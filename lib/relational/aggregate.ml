module Pool = Qf_exec_pool.Pool
module Obs = Qf_obs.Obs
module Buf = Chunkrel.Buf
module Governor = Qf_governor.Governor

type func =
  | Count
  | Sum of string
  | Min of string
  | Max of string

let pp_func ppf = function
  | Count -> Format.pp_print_string ppf "COUNT(*)"
  | Sum c -> Format.fprintf ppf "SUM(%s)" c
  | Min c -> Format.fprintf ppf "MIN(%s)" c
  | Max c -> Format.fprintf ppf "MAX(%s)" c

let numeric_exn context v =
  match Value.to_float v with
  | Some f -> f
  | None ->
    invalid_arg
      (Printf.sprintf "Aggregate.%s: non-numeric value %s" context
         (Value.to_string v))

let eval func schema tuples =
  match tuples with
  | [] -> invalid_arg "Aggregate.eval: empty group"
  | first :: rest -> (
    match func with
    | Count -> Value.Real (float_of_int (List.length tuples))
    | Sum col ->
      let pos = Schema.position schema col in
      let total =
        List.fold_left
          (fun acc tup -> acc +. numeric_exn "sum" (Tuple.get tup pos))
          0. tuples
      in
      Value.Real total
    | Min col ->
      let pos = Schema.position schema col in
      List.fold_left
        (fun acc tup ->
          if Value.compare (Tuple.get tup pos) acc < 0 then Tuple.get tup pos
          else acc)
        (Tuple.get first pos) rest
    | Max col ->
      let pos = Schema.position schema col in
      List.fold_left
        (fun acc tup ->
          if Value.compare (Tuple.get tup pos) acc > 0 then Tuple.get tup pos
          else acc)
        (Tuple.get first pos) rest)

(* {1 Grouping}

   Rows are grouped by their key *codes*: a group id per distinct key
   row, assigned through either a dense code→gid map (single key column
   with a small code domain — the perfect-hash path) or open addressing
   over representative rows.  Aggregates then accumulate into per-gid
   arrays in one vectorized pass; [SUM]/[MIN]/[MAX] decode the measure
   column's codes on the fly (an array read per row), [COUNT] touches no
   values at all.

   Above the parallel threshold, row indices scatter by key hash into [d]
   disjoint partitions (phase 1, chunked), then each partition groups and
   aggregates independently (phase 2); no cross-partition merge is
   needed.  The spilling path reuses phase 2 on each on-disk partition. *)

(* Group the rows listed in [idxs]; returns [rep] (one representative row
   per group, in first-appearance order) and [gid] (parallel to [idxs]). *)
let group_rows key_cols idxs =
  let m = Array.length idxs in
  let gid = Array.make m 0 in
  let dense_path () =
    match key_cols with
    | [| col |] when m > 0 ->
      let maxc = ref 0 in
      for k = 0 to m - 1 do
        let c = Array.unsafe_get col (Array.unsafe_get idxs k) in
        if c > !maxc then maxc := c
      done;
      if !maxc <= (2 * m) + 1024 then Some !maxc else None
    | _ -> None
  in
  match dense_path () with
  | Some maxc ->
    let col = key_cols.(0) in
    let map = Array.make (maxc + 1) (-1) in
    let rep = Buf.create (m / 4) in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let c = Array.unsafe_get col i in
      let g = Array.unsafe_get map c in
      if g >= 0 then Array.unsafe_set gid k g
      else begin
        let g = Buf.length rep in
        Array.unsafe_set map c g;
        Buf.push rep i;
        Array.unsafe_set gid k g
      end
    done;
    Buf.to_array rep, gid
  | None ->
    let cap = Chunkrel.hash_capacity (2 * m) in
    let mask = cap - 1 in
    let slots = Array.make cap (-1) in
    let rep = Buf.create (m / 4 + 8) in
    let nk = Array.length key_cols in
    let keys_equal i j =
      let rec loop k =
        k >= nk
        || Array.unsafe_get (Array.unsafe_get key_cols k) i
           = Array.unsafe_get (Array.unsafe_get key_cols k) j
           && loop (k + 1)
      in
      loop 0
    in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let h = ref (Chunkrel.hash_key key_cols i land mask) in
      let stop = ref false in
      while not !stop do
        let g = Array.unsafe_get slots !h in
        if g = -1 then begin
          let g = Buf.length rep in
          Array.unsafe_set slots !h g;
          Buf.push rep i;
          Array.unsafe_set gid k g;
          stop := true
        end
        else if keys_equal i (Buf.get rep g) then begin
          Array.unsafe_set gid k g;
          stop := true
        end
        else h := (!h + 1) land mask
      done
    done;
    Buf.to_array rep, gid

(* Per-gid aggregate values over the rows in [idxs]. *)
let aggregate_gids (chunk : Chunkrel.t) schema ~func ~rep ~gid ~idxs =
  let ngroups = Array.length rep in
  let m = Array.length idxs in
  match func with
  | Count ->
    let counts = Array.make ngroups 0 in
    for k = 0 to m - 1 do
      let g = Array.unsafe_get gid k in
      Array.unsafe_set counts g (Array.unsafe_get counts g + 1)
    done;
    Array.map (fun c -> Value.Real (float_of_int c)) counts
  | Sum col ->
    let vcol = chunk.Chunkrel.cols.(Schema.position schema col) in
    let sums = Array.make ngroups 0. in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let v = numeric_exn "sum" (Dict.decode (Array.unsafe_get vcol i)) in
      let g = Array.unsafe_get gid k in
      Array.unsafe_set sums g (Array.unsafe_get sums g +. v)
    done;
    Array.map (fun s -> Value.Real s) sums
  | Min col | Max col ->
    let vcol = chunk.Chunkrel.cols.(Schema.position schema col) in
    let want = match func with Min _ -> -1 | _ -> 1 in
    let best = Array.make ngroups (-1) in
    for k = 0 to m - 1 do
      let i = Array.unsafe_get idxs k in
      let g = Array.unsafe_get gid k in
      let b = Array.unsafe_get best g in
      if b = -1 then Array.unsafe_set best g i
      else begin
        let ci = Array.unsafe_get vcol i and cb = Array.unsafe_get vcol b in
        if ci <> cb then begin
          let c = Value.compare (Dict.decode ci) (Dict.decode cb) in
          if (want < 0 && c < 0) || (want > 0 && c > 0) then
            Array.unsafe_set best g i
        end
      end
    done;
    Array.map (fun i -> Dict.decode vcol.(i)) best

(* One partition's groups: row [g] of [keys] holds group [g]'s key codes,
   [aggs.(g)] its aggregate value.  Only the groups are kept, never the
   partition's rows. *)
type groups = {
  keys : Chunkrel.t;
  aggs : Value.t array;
}

(* Phase 2: group and aggregate the rows [idxs] of [chunk]. *)
let group_job chunk schema ~key_positions ~func idxs =
  let key_cols = Array.map (fun p -> chunk.Chunkrel.cols.(p)) key_positions in
  let rep, gid = group_rows key_cols idxs in
  {
    keys =
      {
        Chunkrel.nrows = Array.length rep;
        cols = Chunkrel.gather_cols key_cols rep;
        rows_cache = None;
      };
    aggs = aggregate_gids chunk schema ~func ~rep ~gid ~idxs;
  }

(* Phase 1: row indices scattered into [d] disjoint partitions by key
   hash. *)
let partition_rows pool key_cols n =
  let d = Pool.size pool in
  let per_chunk =
    Pool.run_chunks pool ~n (fun ~lo ~hi ->
        Chunkrel.scatter key_cols ~parts:d ~lo ~hi)
  in
  List.init d (fun j -> Buf.concat (List.map (fun bufs -> bufs.(j)) per_chunk))

let group_in_memory ?pool ?par_threshold rel ~key_positions ~func =
  let schema = Relation.schema rel in
  let chunk = Relation.codes rel in
  let n = chunk.Chunkrel.nrows in
  let threshold =
    match par_threshold with Some v -> v | None -> Pool.par_threshold ()
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let job idxs () = group_job chunk schema ~key_positions ~func idxs in
  if Pool.size pool > 1 && n >= threshold then
    let key_cols =
      Array.map (fun p -> chunk.Chunkrel.cols.(p)) key_positions
    in
    Pool.run_all pool (List.map job (partition_rows pool key_cols n))
  else [ job (Array.init n Fun.id) () ]

(* {1 Spilling group-by}

   Under a governed budget too small for the in-memory group table, rows
   scatter by their group key into spill runs of dictionary codes, then
   each partition groups under a per-partition charge (an overflowing
   partition splits further; see [Spill.partitioned]).  Equal keys land
   in the same partition, so the per-partition groups are exactly the
   in-memory result — no cross-partition merge is ever needed. *)
let spill_groups g rel ~key_positions ~func =
  let schema = Relation.schema rel in
  let arity = Schema.arity schema in
  Spill.partitioned g [| rel |] ~positions:[| key_positions |]
    ~cost:(fun rows -> 2 * Relation.bytes_for ~arity ~rows:rows.(0))
    (fun parts ->
      let chunk = Relation.codes parts.(0) in
      group_job chunk schema ~key_positions ~func
        (Array.init chunk.Chunkrel.nrows Fun.id))

let count_groups parts =
  List.fold_left (fun a p -> a + p.keys.Chunkrel.nrows) 0 parts

(* The governed grouping shared by [group_by] and [group_filter_report],
   inside its [aggregate.group_by] span. *)
let grouped ?pool ?par_threshold rel ~keys ~func =
  let key_positions =
    Array.of_list (List.map (Schema.position (Relation.schema rel)) keys)
  in
  let compute () =
    (* The group table holds every distinct key plus its representative
       rows; charge roughly twice the input, spill when it does not fit. *)
    Spill.governed
      ~need:(2 * Relation.approx_bytes rel)
      (fun () -> group_in_memory ?pool ?par_threshold rel ~key_positions ~func)
      (fun g ->
        if Obs.enabled () then Obs.count "governor.spill.groups" 1;
        spill_groups g rel ~key_positions ~func)
  in
  if not (Obs.enabled ()) then compute ()
  else
    Obs.with_span "aggregate.group_by"
      ~attrs:[ "rows_in", Obs.Int (Relation.cardinal rel) ]
      (fun () ->
        let parts = compute () in
        Obs.set_attr "groups_out" (Obs.Int (count_groups parts));
        parts)

let group_by ?pool ?par_threshold rel ~keys ~func =
  Governor.check ();
  List.concat_map
    (fun { keys; aggs } ->
      List.init keys.Chunkrel.nrows (fun g -> Chunkrel.tuple_at keys g, aggs.(g)))
    (grouped ?pool ?par_threshold rel ~keys ~func)

(* FILTER: group, aggregate, filter by threshold, and gather the
   surviving groups' key codes straight into the output chunk — no tuple
   is built for keys that fail the support test, and none at all for the
   survivors either. *)
let group_filter_report ?pool ?par_threshold rel ~keys ~func ~threshold =
  Governor.check ();
  let compute () =
    let parts = grouped ?pool ?par_threshold rel ~keys ~func in
    let survivors =
      List.map
        (fun { keys; aggs } ->
          let kept = Buf.create (Array.length aggs) in
          Array.iteri
            (fun g v ->
              if numeric_exn "group_filter" v >= threshold then Buf.push kept g)
            aggs;
          Chunkrel.gather keys (Buf.to_array kept))
        parts
    in
    ( Relation.of_chunkrel
        (Schema.restrict (Relation.schema rel) keys)
        (Chunkrel.concat ~arity:(List.length keys) survivors),
      count_groups parts )
  in
  if not (Obs.enabled ()) then compute ()
  else
    (* The a-priori view of the FILTER: [candidates] parameter assignments
       enter, [survivors] pass the threshold; [pruning_ratio] is the
       surviving fraction, always within [0, 1]. *)
    Obs.with_span "aggregate.group_filter"
      ~attrs:[ "rows_in", Obs.Int (Relation.cardinal rel) ]
      (fun () ->
        let out, candidates = compute () in
        let survivors = Relation.cardinal out in
        Obs.set_attr "candidates" (Obs.Int candidates);
        Obs.set_attr "survivors" (Obs.Int survivors);
        Obs.set_attr "pruning_ratio"
          (Obs.Float
             (if candidates = 0 then 1.
              else float_of_int survivors /. float_of_int candidates));
        out, candidates)

let group_filter ?pool ?par_threshold rel ~keys ~func ~threshold =
  fst (group_filter_report ?pool ?par_threshold rel ~keys ~func ~threshold)
