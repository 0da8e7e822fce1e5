(* Spill runs: temp heap files backing the governed kernels' partitioned
   fallbacks.  A run lives in its governor's private spill directory, so
   every exit path of [Governor.with_ctx] removes it even if the owning
   kernel never got to; [discard] is the kernel-local eager cleanup (no
   flush — the data is about to be deleted, and a cleanup path must not
   fail on a simulated write error). *)

module Governor = Qf_governor.Governor
module Fault = Qf_governor.Fault

type run = { file : Heap_file.t; path : string; mutable rows : int }

(* A small pager cache per run: spill partitions are written once and
   scanned once, so a large cache would only delay the page writes the
   fault sweep wants to see. *)
let run_capacity = 4

let create g schema =
  let path = Governor.fresh_spill_path g in
  Fault.point "spill.create";
  { file = Heap_file.create ~capacity:run_capacity path schema; path; rows = 0 }

let add r tup =
  Heap_file.append r.file tup;
  r.rows <- r.rows + 1

let rows r = r.rows
let bytes r = Heap_file.page_count r.file * Page.size
(* A run holds a partition of a set-semantics relation, so its rows are
   distinct: encode them straight into a chunk, with no tuple hash set. *)
let to_relation r =
  let rows = ref [] in
  Heap_file.iter (fun tup -> rows := tup :: !rows) r.file;
  let schema = Heap_file.schema r.file in
  Relation.of_chunkrel schema
    (Chunkrel.of_tuples ~arity:(Schema.arity schema)
       (Array.of_list (List.rev !rows)))

let discard r =
  Heap_file.discard r.file;
  try Sys.remove r.path with Sys_error _ -> ()

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

(* Route every tuple of [rel] into [parts] runs by the hash of its key
   projection, so equal keys land in the same run.  Returns the runs;
   the caller must [discard] them (a [Fun.protect] finally). *)
let partition_by_key g rel ~positions ~parts =
  let runs = Array.init parts (fun _ -> create g (Relation.schema rel)) in
  Relation.iter
    (fun tup ->
      let h = Tuple.hash (Tuple.project positions tup) land max_int in
      add runs.(h mod parts) tup)
    rel;
  runs

let note_runs g runs =
  Governor.note_spill g
    ~partitions:(Array.length runs)
    ~bytes:(Array.fold_left (fun a r -> a + bytes r) 0 runs)
    ~rows:(Array.fold_left (fun a r -> a + rows r) 0 runs)
