module Obs = Qf_obs.Obs
module Buf = Chunkrel.Buf
module Governor = Qf_governor.Governor

(* Span wrapper shared by the three join kinds: probe/build sizes up
   front, output size on completion.  The disabled path costs one atomic
   load. *)
let observed kind a b compute =
  if not (Obs.enabled ()) then compute ()
  else
    Obs.with_span kind
      ~attrs:
        [
          "probe_rows", Obs.Int (Relation.cardinal a);
          "build_rows", Obs.Int (Relation.cardinal b);
        ]
      (fun () ->
        let out = compute () in
        Obs.set_attr "rows_out" (Obs.Int (Relation.cardinal out));
        out)

(* Join-target positions, hoisted once into [int array]s so the per-tuple
   work is pure array indexing (the old code re-ran the linear
   [Schema.position] scan through intermediate lists). *)
let positions_of_pairs a b pairs =
  let sa = Relation.schema a and sb = Relation.schema b in
  ( Array.of_list (List.map (fun (ca, _) -> Schema.position sa ca) pairs),
    Array.of_list (List.map (fun (_, cb) -> Schema.position sb cb) pairs) )

(* Output columns of [b] that are not join targets, renamed on collision
   with a column of [a] — or with another output column: ["c"] from [b]
   colliding with ["c"] from [a] becomes ["c_2"], and if ["c_2"] is also
   taken (say [b] itself has a ["c_2"] column) the suffix escalates to
   ["c_3"], ["c_4"], ... so the output schema never has duplicates. *)
let residual_columns a b pairs =
  let sa = Relation.schema a and sb = Relation.schema b in
  let joined = Hashtbl.create 8 in
  List.iter (fun (_, cb) -> Hashtbl.replace joined cb ()) pairs;
  let used = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace used c ()) (Schema.columns sa);
  let residual_base =
    List.filter (fun c -> not (Hashtbl.mem joined c)) (Schema.columns sb)
  in
  (* Names any residual keeps verbatim are reserved up front, so an early
     rename cannot steal a later residual's own name. *)
  List.iter
    (fun c -> if not (Hashtbl.mem used c) then Hashtbl.replace used c ())
    residual_base;
  List.map
    (fun c ->
      let out =
        if Schema.mem sa c then begin
          let rec fresh i =
            let candidate = Printf.sprintf "%s_%d" c i in
            if Hashtbl.mem used candidate then fresh (i + 1) else candidate
          in
          let name = fresh 2 in
          Hashtbl.replace used name ();
          name
        end
        else c
      in
      c, out)
    residual_base

(* Probe-side SIP prechecks: [(pos, reducer)] pairs over [a]'s columns.
   A probe row failing a reducer cannot match the build side (the caller
   guarantees each reducer over-approximates [b]'s values at the paired
   column), so it is skipped before the chain walk.  Reducers never
   change the result set — only the work — and emit no counters of their
   own here, so join outputs and metrics stay deterministic. *)
let sip_checks_cols ca sip =
  let checks =
    Array.of_list
      (List.map (fun (p, s) -> ca.Chunkrel.cols.(p), s) sip)
  in
  let n = Array.length checks in
  fun i ->
    let rec loop k =
      k >= n
      ||
      let col, s = Array.unsafe_get checks k in
      Sip.mem s (Array.unsafe_get col i) && loop (k + 1)
    in
    loop 0

(* {1 Columnar probe machinery}

   Both kinds of probe walk the build side's bucket chains comparing raw
   key codes; no tuple is ever materialized.  Over set-semantics inputs
   the outputs below are automatically duplicate-free:

   - equi output rows are [a]-row ++ residual([b]-row); two matches with
     the same [a] row come from distinct [b] rows agreeing on every join
     column, which therefore differ in some residual column;
   - semi/anti outputs are subsets of [a]'s rows.

   So the outputs are gathers of probe-row index buffers, with no
   output-side hash set at all. *)

(* Per-probe-row chain walk: calls [emit j] for every matching build row. *)
let probe_chain (ci : Index.t) akey_cols i emit =
  let h = ref 17 in
  let nk = Array.length akey_cols in
  for k = 0 to nk - 1 do
    h := Chunkrel.mix !h (Array.unsafe_get (Array.unsafe_get akey_cols k) i)
  done;
  let j = ref (Array.unsafe_get ci.Index.heads (!h land ci.Index.mask)) in
  while !j >= 0 do
    let bj = !j in
    let rec eq k =
      k >= nk
      || Array.unsafe_get (Array.unsafe_get akey_cols k) i
         = Array.unsafe_get (Array.unsafe_get ci.Index.key_cols k) bj
         && eq (k + 1)
    in
    if eq 0 then emit bj;
    j := Array.unsafe_get ci.Index.next bj
  done

let chain_mem ci akey_cols i =
  let found = ref false in
  (* Cheap early exit is not worth a second walk implementation: chains
     are short under a well-sized radix table. *)
  probe_chain ci akey_cols i (fun _ -> found := true);
  !found

(* {1 Equi-join}

   Build one radix/bucket-chained index on [b]'s key codes, then probe
   with [a]'s key codes into an interleaved (probe row, build row) pair
   buffer; the output columns are gathered once. *)

let equi_chunk ~sip a b pos_a pos_b residual_pos =
  let ca = Relation.codes a in
  let ci = Index.build b (Array.to_list pos_b) in
  let akey_cols = Array.map (fun p -> ca.Chunkrel.cols.(p)) pos_a in
  let sip_pass = sip_checks_cols ca sip in
  let n = ca.Chunkrel.nrows in
  let buf = Buf.create (2 * n) in
  for i = 0 to n - 1 do
    if sip_pass i then probe_chain ci akey_cols i (fun j -> Buf.push2 buf i j)
  done;
  let pairs = Buf.to_array buf in
  let m = Array.length pairs / 2 in
  let pa = Array.init m (fun k -> pairs.(2 * k)) in
  let pb = Array.init m (fun k -> pairs.((2 * k) + 1)) in
  let out_cols =
    Array.append
      (Chunkrel.gather_cols ca.Chunkrel.cols pa)
      (Chunkrel.gather_cols
         (Array.map (fun p -> ci.Index.chunk.Chunkrel.cols.(p)) residual_pos)
         pb)
  in
  { Chunkrel.nrows = m; cols = out_cols; rows_cache = None }

(* {1 Grace-style spilling equi-join}

   When the governed budget cannot hold the in-memory build index, both
   sides scatter by their join key into spill runs of dictionary codes
   (equal keys land in the same partition index on both sides), and each
   partition pair runs the in-memory equi body under a per-partition
   charge (an overflowing pair splits further; see [Spill.partitioned]).
   Partitions are disjoint by key, so the partition outputs are disjoint
   too and concatenate into the result with no dedup.  SIP prechecks are
   skipped here — they only prune probe rows that cannot match, so the
   output is unchanged either way. *)
let spill_equi g a b pos_a pos_b residual_pos out_schema =
  let arity_a = Relation.arity a and arity_b = Relation.arity b in
  let outputs =
    Spill.partitioned g [| a; b |] ~positions:[| pos_a; pos_b |]
      ~cost:(fun rows ->
        Relation.bytes_for ~arity:arity_a ~rows:rows.(0)
        + (2 * Relation.bytes_for ~arity:arity_b ~rows:rows.(1)))
      (fun parts ->
        equi_chunk ~sip:[] parts.(0) parts.(1) pos_a pos_b residual_pos)
  in
  Relation.of_chunkrel out_schema
    (Chunkrel.concat ~arity:(Schema.arity out_schema) outputs)

let equi ?(sip = []) a b pairs =
  observed "join.equi" a b @@ fun () ->
  Governor.check ();
  let pos_a, pos_b = positions_of_pairs a b pairs in
  let residual = residual_columns a b pairs in
  let residual_pos =
    Array.of_list
      (List.map (fun (c, _) -> Schema.position (Relation.schema b) c) residual)
  in
  let out_schema =
    Schema.of_list (Schema.columns (Relation.schema a) @ List.map snd residual)
  in
  (* The build-side index (plus the probe pairs) is what an in-memory
     equi-join holds beyond its inputs; charge that, spill when it does
     not fit. *)
  Spill.governed
    ~need:(2 * Relation.approx_bytes b)
    (fun () ->
      Relation.of_chunkrel out_schema
        (equi_chunk ~sip a b pos_a pos_b residual_pos))
    (fun g ->
      if Obs.enabled () then Obs.count "governor.spill.joins" 1;
      spill_equi g a b pos_a pos_b residual_pos out_schema)

(* {1 Semi/anti joins} — membership filters over the probe side. *)

let filter_by_presence ?(sip = []) ~keep_matching a b pairs =
  let pos_a, pos_b = positions_of_pairs a b pairs in
  let ca = Relation.codes a in
  let ci = Index.build b (Array.to_list pos_b) in
  let akey_cols = Array.map (fun p -> ca.Chunkrel.cols.(p)) pos_a in
  let sip_pass = sip_checks_cols ca sip in
  let n = ca.Chunkrel.nrows in
  let buf = Buf.create n in
  for i = 0 to n - 1 do
    if sip_pass i && chain_mem ci akey_cols i = keep_matching then
      Buf.push buf i
  done;
  let kept = Buf.to_array buf in
  Relation.of_chunkrel (Relation.schema a) (Chunkrel.gather ca kept)

let semi ?sip a b pairs =
  observed "join.semi" a b @@ fun () ->
  Governor.check ();
  filter_by_presence ?sip ~keep_matching:true a b pairs

let anti a b pairs =
  observed "join.anti" a b @@ fun () ->
  Governor.check ();
  filter_by_presence ~keep_matching:false a b pairs
