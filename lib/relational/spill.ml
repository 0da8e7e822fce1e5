(* Spill runs: the governed kernels' partitions on disk, as pages of
   fixed-width dictionary codes.

   [Dict] is process-wide and append-only, and a run never outlives the
   [Governor.with_ctx] that created it (its file lives in the governor's
   private spill directory, removed on every exit).  A code read back
   therefore names the value it was written for, so a run stores bare
   codes with no dictionary slice, and reading it back fills a chunk's
   code columns directly: no value is decoded or re-interned.

   Page layout ([Page.size] bytes; all integers little-endian):
   {v [u16 rows][u16 arity][rows x arity u32 codes][zero fill] v}
   Every page but the last holds exactly [rows_per_page arity] rows.
   Reading checks each page's header and every code against [Dict.size],
   so a corrupt run raises [Failure] rather than yield a wrong answer. *)

module Governor = Qf_governor.Governor
module Fault = Qf_governor.Fault

let header = 4
let code_bytes = 4

let rows_per_page arity =
  if arity = 0 then 0xFFFF
  else min 0xFFFF ((Page.size - header) / (code_bytes * arity))

type run = {
  pager : Pager.t;
  path : string;
  schema : Schema.t;
  arity : int;
  per_page : int;
  mutable frame : Bytes.t;  (** the last page, receiving appends *)
  mutable page_rows : int;  (** rows in [frame] *)
  mutable rows : int;
}

(* A small pager cache per run: spill partitions are written once and
   scanned once, so pages only pass through it. *)
let run_capacity = 4

let create g schema =
  let path = Governor.fresh_spill_path g in
  Fault.point "spill.create";
  let arity = Schema.arity schema in
  let per_page = rows_per_page arity in
  if per_page < 1 then failwith "Spill.create: one row exceeds a page";
  {
    pager = Pager.open_file ~capacity:run_capacity path;
    path;
    schema;
    arity;
    per_page;
    frame = Bytes.empty;
    page_rows = per_page;
    rows = 0;
  }

let rows r = r.rows
let path r = r.path
let bytes r = Pager.page_count r.pager * Page.size

let discard r =
  Pager.discard r.pager;
  try Sys.remove r.path with Sys_error _ -> ()

(* {1 Writing} *)

let new_page r =
  let frame = Bytes.make Page.size '\000' in
  Bytes.set_uint16_le frame 2 r.arity;
  ignore (Pager.append r.pager frame);
  r.frame <- frame;
  r.page_rows <- 0

(* Append row [i] of the code columns [cols] (of the run's arity).  The
   frame stays the pager's most recently used page while it fills, so no
   eviction can write it out half-done. *)
let append r cols i =
  Fault.point "spill.append";
  if r.page_rows = r.per_page then new_page r;
  let frame = r.frame in
  let off = header + (r.page_rows * r.arity * code_bytes) in
  for c = 0 to r.arity - 1 do
    let code = Array.unsafe_get (Array.unsafe_get cols c) i in
    if code lsr 32 <> 0 then failwith "Spill.append: code exceeds 32 bits";
    let o = off + (c * code_bytes) in
    Bytes.set_uint16_le frame o (code land 0xFFFF);
    Bytes.set_uint16_le frame (o + 2) (code lsr 16)
  done;
  r.page_rows <- r.page_rows + 1;
  Bytes.set_uint16_le frame 0 r.page_rows;
  r.rows <- r.rows + 1

(* Scatter rows [[lo, hi)] of [cols] into [runs] by the key at
   [positions], through the one partitioner. *)
let scatter_into runs cols ~positions ~salt ~lo ~hi =
  let key_cols = Array.map (fun p -> cols.(p)) positions in
  Array.iteri
    (fun p idxs ->
      let run = runs.(p) in
      for k = 0 to Chunkrel.Buf.length idxs - 1 do
        append run cols (Chunkrel.Buf.get idxs k)
      done)
    (Chunkrel.scatter ~salt key_cols ~parts:(Array.length runs) ~lo ~hi)

(* A run is written once, then sealed: its pages all go to disk and its
   cache empties, so the run holds no memory until it is read back, once,
   from disk. *)
let seal r =
  Pager.evict_all r.pager;
  r.frame <- Bytes.empty

(* [parts] fresh runs, filled by [fill] and sealed; on any failure, the
   runs made so far are discarded before the exception propagates. *)
let fresh_runs g schema parts fill =
  let made = ref [] in
  match
    for _ = 1 to parts do
      made := create g schema :: !made
    done;
    let runs = Array.of_list (List.rev !made) in
    fill runs;
    Array.iter seal runs;
    runs
  with
  | runs -> runs
  | exception e ->
    List.iter discard !made;
    raise e

(* {1 Reading} *)

let page_count r = (r.rows + r.per_page - 1) / r.per_page

(* Decode page [id] into [dst] (the run's arity of code columns) from row
   [at] on; returns the page's row count.  [size] is [Dict.size ()]. *)
let load_page r ~size id dst ~at =
  let frame = Pager.read r.pager id in
  let n = Bytes.get_uint16_le frame 0 in
  let expected = min r.per_page (r.rows - (id * r.per_page)) in
  if n <> expected || Bytes.get_uint16_le frame 2 <> r.arity then
    failwith
      (Printf.sprintf "Spill: page %d of %s: bad header (%d rows, want %d)" id
         r.path n expected);
  for row = 0 to n - 1 do
    let off = header + (row * r.arity * code_bytes) in
    for c = 0 to r.arity - 1 do
      let o = off + (c * code_bytes) in
      let code =
        Bytes.get_uint16_le frame o lor (Bytes.get_uint16_le frame (o + 2) lsl 16)
      in
      if code >= size then
        failwith
          (Printf.sprintf "Spill: page %d of %s: unknown code %d" id r.path code);
      Array.unsafe_set (Array.unsafe_get dst c) (at + row) code
    done
  done;
  n

let check_pages r =
  if Pager.page_count r.pager <> page_count r then
    failwith (Printf.sprintf "Spill: %s: wrong page count" r.path)

(* A run holds a partition of a set-semantics relation, so its rows are
   distinct and fill a chunk as they are. *)
let to_relation r =
  check_pages r;
  let size = Dict.size () in
  let cols = Array.init r.arity (fun _ -> Array.make r.rows 0) in
  let at = ref 0 in
  for id = 0 to page_count r - 1 do
    at := !at + load_page r ~size id cols ~at:!at
  done;
  Relation.of_chunkrel r.schema
    { Chunkrel.nrows = r.rows; cols; rows_cache = None }

(* Re-scatter [r] into [parts] sub-runs under [salt], one page at a time. *)
let split g r ~positions ~parts ~salt =
  check_pages r;
  fresh_runs g r.schema parts (fun subs ->
      let size = Dict.size () in
      let page = Array.init r.arity (fun _ -> Array.make r.per_page 0) in
      for id = 0 to page_count r - 1 do
        let n = load_page r ~size id page ~at:0 in
        scatter_into subs page ~positions ~salt ~lo:0 ~hi:n
      done)

(* {1 The governed kernels' spill paths} *)

(* The kernels' common budget gate: reserve [need] bytes around the
   in-memory path, or hand control to the spill path when the reservation
   fails.  Ungoverned (or unbounded-budget) runs take the in-memory path
   with no accounting at all. *)
let governed ~need in_memory spill =
  match Governor.current () with
  | Some g when Governor.budget g < max_int ->
    if Governor.try_charge g need then
      Fun.protect ~finally:(fun () -> Governor.release g need) in_memory
    else spill g
  | _ -> in_memory ()

(* Partitions sized so one partition's working set targets about a quarter
   of the budget, clamped to [2, 256]. *)
let partition_count g ~need =
  let b = max 1 (Governor.budget g) in
  max 2 (min 256 ((4 * need / b) + 1))

let partition_by_key g rel ~positions ~parts =
  let chunk = Relation.codes rel in
  let n = chunk.Chunkrel.nrows in
  let block = 16384 in
  fresh_runs g (Relation.schema rel) parts (fun runs ->
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + block) in
        scatter_into runs chunk.Chunkrel.cols ~positions ~salt:0 ~lo:!lo ~hi;
        lo := hi
      done)

let note_runs g runs =
  Governor.note_spill g
    ~partitions:(Array.length runs)
    ~bytes:(Array.fold_left (fun a r -> a + bytes r) 0 runs)
    ~rows:(Array.fold_left (fun a r -> a + rows r) 0 runs)

(* Whether every row of [runs] carries one and the same key (run [k]'s
   key at [positions.(k)]): no salt can split such a group. *)
let single_key runs ~positions =
  let size = Dict.size () and first = ref None in
  let same r pos =
    let page = Array.init r.arity (fun _ -> Array.make r.per_page 0) in
    let rec from id =
      id >= page_count r
      ||
      let n = load_page r ~size id page ~at:0 in
      let rec row i =
        i >= n
        ||
        let key = Array.map (fun p -> page.(p).(i)) pos in
        match !first with
        | None ->
          first := Some key;
          row (i + 1)
        | Some k -> k = key && row (i + 1)
      in
      row 0 && from (id + 1)
    in
    from 0
  in
  Array.for_all2 same runs positions

(* Scatter every input into runs ([scatter k ~parts] makes input [k]'s,
   under [salt]), then run [f] on each group of equal-index runs under a
   charge of [cost] bytes.  A group whose charge does not fit scatters
   again under the next salt, a page at a time.  When every row landed
   in one group ([rows] are the inputs' row counts) and they all share a
   key, no split can help: the typed [Over_budget] is raised at once. *)
let rec fit g ~salt ~positions ~cost ~rows scatter f =
  let parts = partition_count g ~need:(cost rows) in
  let runs = ref [] in
  Fun.protect ~finally:(fun () -> List.iter (Array.iter discard) !runs)
  @@ fun () ->
  Array.iteri (fun k _ -> runs := scatter k ~parts :: !runs) positions;
  let runs = Array.of_list (List.rev !runs) in
  Array.iter (note_runs g) runs;
  List.concat_map
    (fun j ->
      let group = Array.map (fun rs -> rs.(j)) runs in
      let group_rows = Array.map (fun r -> r.rows) group in
      let run_charged need =
        Fun.protect
          ~finally:(fun () -> Governor.release g need)
          (fun () -> [ f (Array.map to_relation group) ])
      in
      if Array.mem 0 group_rows then []
      else begin
        Governor.check ();
        let need = cost group_rows in
        if Governor.try_charge g need then run_charged need
        else if group_rows = rows && single_key group ~positions then begin
          Governor.charge g need;
          run_charged need
        end
        else
          let salt = salt + 1 in
          fit g ~salt ~positions ~cost ~rows:group_rows
            (fun k ~parts ->
              split g group.(k) ~positions:positions.(k) ~parts ~salt)
            f
      end)
    (List.init parts Fun.id)

let partitioned g rels ~positions ~cost f =
  fit g ~salt:0 ~positions ~cost
    ~rows:(Array.map Relation.cardinal rels)
    (fun k ~parts ->
      partition_by_key g rels.(k) ~positions:positions.(k) ~parts)
    f
