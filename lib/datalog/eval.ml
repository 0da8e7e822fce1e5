module Value = Qf_relational.Value
module Tuple = Qf_relational.Tuple
module Schema = Qf_relational.Schema
module Relation = Qf_relational.Relation
module Index = Qf_relational.Index
module Catalog = Qf_relational.Catalog
module Statistics = Qf_relational.Statistics
module Dict = Qf_relational.Dict
module Chunkrel = Qf_relational.Chunkrel
module Buf = Chunkrel.Buf
module Pool = Qf_exec_pool.Pool
module Sip = Qf_relational.Sip
module Obs = Qf_obs.Obs

exception Error of string

let log_src = Logs.Src.create "qf.eval" ~doc:"Datalog evaluation"

module Log = (val Logs.src_log log_src)

let errorf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let relation_for catalog (a : Ast.atom) =
  match Catalog.find_opt catalog a.pred with
  | None -> errorf "unknown predicate %s" a.pred
  | Some rel ->
    if Relation.arity rel <> List.length a.args then
      errorf "predicate %s: arity mismatch (query %d, stored %d)" a.pred
        (List.length a.args) (Relation.arity rel);
    rel

module Envs = struct
  (* All environments live in one flat dictionary-code array of stride
     [width] ([count * width] ints); [slots] maps a binding key to its
     column in every row.  Binding extension probes the {!Index.t} chains
     directly over code arrays, filters compare codes, and parallel steps
     emit per-chunk {!Chunkrel.Buf}s merged by a single blit — no per-row
     boxing anywhere on the hot path.

     Rows are pairwise distinct, by induction over the literals: the start
     set is one row; an extension appends to each (distinct) row the fresh
     columns of each matching tuple, and two tuples of a set relation that
     agree on the probed key positions differ in a fresh column (a
     fully bound atom matches at most once); a filter keeps a subset. *)
  type t = {
    slots : (string * int) list;
    width : int;
    count : int;
    data : int array;
  }

  let start () = { slots = []; width = 0; count = 1; data = [||] }
  let bound_keys t = List.map fst t.slots
  let count t = t.count
  let slot_of t key = List.assoc_opt key t.slots

  (* A step produces per-chunk [Buf]s (each an [(emitted rows) * stride]
     run of codes) and merges them with one pre-sized allocation and
     [Array.blit] per chunk — the merge never boxes a row.  Every
     materialized environment set passes through here, so this is where
     [eval.env_rows] is counted. *)
  let merge_code_chunks slots ~width pieces =
    let count = List.fold_left (fun acc (k, _) -> acc + k) 0 pieces in
    Obs.count "eval.env_rows" count;
    { slots; width; count; data = Buf.concat (List.map snd pieces) }

  (* [run ~lo ~hi] over rows [0, count), chunked across the pool when the
     set is large enough to pay for it. *)
  let chunked count run =
    let pool = Pool.default () in
    if Pool.size pool = 1 || count < Pool.par_threshold () then
      [ run ~lo:0 ~hi:count ]
    else Pool.run_chunks pool ~n:count run

  (* {2 Ready literals}

     A literal whose terms are all bound compiles once into a predicate
     over (environment row base offset, candidate row).  The same compiled
     form serves a stand-alone filter pass (no candidate: the row argument
     is unused) and the check fused into a binding extension's probe loop,
     where the bindings being made are read straight from the candidate
     tuple's columns.  [mk ()] is called once per chunk, so a membership
     predicate may own its scratch probe key. *)

  (* Where a term's code is read from: a pre-encoded constant, a column of
     the environment row, or a column of the candidate tuple. *)
  type src =
    | Code of int
    | Slot of int
    | Cand of int array

  let read data base row = function
    | Code c -> c
    | Slot s -> Array.unsafe_get data (base + s)
    | Cand col -> Array.unsafe_get col row

  (* [fresh] maps the keys an extension is binding to candidate columns. *)
  let src_of ?(fresh = []) t = function
    | Ast.Const v -> Code (Dict.encode v)
    | (Ast.Var _ | Ast.Param _) as term -> (
      let key = Ast.binding_key term in
      match slot_of t key, List.assoc_opt key fresh with
      | Some s, _ -> Slot s
      | None, Some col -> Cand col
      | None, None -> errorf "unbound %s in a filtering subgoal" key)

  (* A transient full-arity code index for membership filtering.  Built
     with [Index.build] directly — NOT through the catalog cache — so
     negation tests move no [index_cache] hit/miss counters. *)
  let membership_index rel =
    Index.build rel (List.init (Relation.arity rel) Fun.id)

  let membership ci srcs data ~want =
    let srcs = Array.of_list srcs in
    let n = Array.length srcs in
    fun () ->
      let probe = Array.make n 0 in
      fun base row ->
        for k = 0 to n - 1 do
          probe.(k) <- read data base row (Array.unsafe_get srcs k)
        done;
        Index.mem_codes ci probe = want

  (* [Eq]/[Ne] compare codes: the dictionary is injective, and
     [Value.compare] is 0 exactly on equal values.  Ordered comparisons
     decode. *)
  let compile_cmp src data l c r =
    let l = src l and r = src r in
    match c with
    | Ast.Eq -> fun () base row -> read data base row l = read data base row r
    | Ast.Ne -> fun () base row -> read data base row l <> read data base row r
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      fun () base row ->
        Ast.comparison_eval
          (Value.compare
             (Dict.decode (read data base row l))
             (Dict.decode (read data base row r)))
          c

  (* A fully bound positive subgoal probes the catalog index on all its
     positions — the index a binding extension of that atom would ask for.
     A negation probes a transient index (see {!membership_index}). *)
  let compile catalog src data = function
    | Ast.Cmp (l, c, r) -> compile_cmp src data l c r
    | Ast.Neg a ->
      membership
        (membership_index (relation_for catalog a))
        (List.map src a.args) data ~want:false
    | Ast.Pos a ->
      let rel = relation_for catalog a in
      membership
        (Catalog.index catalog rel (List.init (Relation.arity rel) Fun.id))
        (List.map src a.args) data ~want:true

  let conj mks () =
    let preds = Array.of_list (List.map (fun mk -> mk ()) mks) in
    let n = Array.length preds in
    fun base row ->
      let rec all i =
        i >= n || ((Array.unsafe_get preds i) base row && all (i + 1))
      in
      all 0

  (* [filter_codes mk t] keeps the rows satisfying the compiled predicate. *)
  let filter_codes mk { slots; width; count; data } =
    let run ~lo ~hi =
      let pred = mk () in
      let out = Buf.create ((hi - lo) * width) in
      let kept = ref 0 in
      for r = lo to hi - 1 do
        let base = r * width in
        if pred base (-1) then begin
          incr kept;
          for c = 0 to width - 1 do Buf.push out data.(base + c) done
        end
      done;
      !kept, out
    in
    merge_code_chunks slots ~width (chunked count run)

  let filter_ready catalog t lits =
    filter_codes (conj (List.map (compile catalog (src_of t) t.data) lits)) t

  let filter_neg catalog t a = filter_ready catalog t [ Ast.Neg a ]
  let filter_cmp t l c r = filter_codes (compile_cmp (src_of t) t.data l c r) t

  (* {2 Binding extension} *)

  (* How each argument position of an atom is consumed given current slots:
     part of the lookup key, a fresh binding, or an intra-tuple check
     against a fresh binding made at an earlier position. *)
  type arg_role =
    | Key of src  (** a constant or a row column *)
    | Bind_new  (** first occurrence of an unbound key *)
    | Check_new of int  (** later occurrence; index into the new-values list *)

  let analyze_args t (a : Ast.atom) =
    let fresh = ref [] in
    let roles =
      List.map
        (fun arg ->
          match arg with
          | Ast.Const v -> Key (Code (Dict.encode v))
          | Ast.Var _ | Ast.Param _ -> (
            let key = Ast.binding_key arg in
            match slot_of t key with
            | Some s -> Key (Slot s)
            | None -> (
              match
                List.find_index (fun k -> String.equal k key) (List.rev !fresh)
              with
              | Some i -> Check_new i
              | None ->
                fresh := key :: !fresh;
                Bind_new)))
        a.args
    in
    roles, List.rev !fresh

  (* Sideways-information-passing at binding extension: [sip] maps a
     binding key about to be bound ([Bind_new]) to a reducer
     over-approximating the values that can survive the rest of the rule
     (in practice: the parameter column of a materialized [ok] step whose
     subgoal is still in the body).  A candidate match whose fresh value
     fails its reducer is dropped before the row is emitted; the
     ok-subgoal join would have dropped it later anyway, so results are
     unchanged — only the intermediate row count shrinks.

     Rejections are totted up in one atomic and flushed as a single
     [sip.rows_pruned] count: the set of key-matched candidates examined
     is the same under any chunking, so the total is deterministic across
     pool sizes (the invariant the differential suite pins down).

     [ready] literals are tested on each candidate that passes the SIP
     check, before its row is emitted, so a rejected candidate is never
     materialized and [sip.rows_pruned] is the same as when they run as
     separate filters afterwards. *)
  let extend_pos ?(sip = []) ?(ready = []) catalog t (a : Ast.atom) =
    let rel = relation_for catalog a in
    let roles, fresh_keys = analyze_args t a in
    let key_positions =
      List.concat
        (List.mapi
           (fun i role ->
             match role with
             | Key _ -> [ i ]
             | Bind_new | Check_new _ -> [])
           roles)
    in
    (* Memoized through the catalog: FILTER steps, optimizer probes and
       repeated runs against the same stored relations all share built
       indexes (invalidated by relation version). *)
    let ci = Catalog.index catalog rel key_positions in
    let { width; count; data; _ } = t in
    let new_width = width + List.length fresh_keys in
    (* For each matching tuple: positions to copy into new slots, and
       positions to check for intra-tuple repeated fresh variables. *)
    let fills = ref [] and checks = ref [] in
    List.iteri
      (fun pos role ->
        match role with
        | Bind_new -> fills := pos :: !fills
        | Check_new i -> checks := (pos, i) :: !checks
        | Key _ -> ())
      roles;
    let fills = List.rev !fills and checks = List.rev !checks in
    (* Reducers aligned with the fresh bindings: [(index into the
       fresh-values list, reducer)]. *)
    let sip_checks =
      if sip = [] then []
      else
        List.mapi (fun i key -> i, List.assoc_opt key sip) fresh_keys
        |> List.filter_map (fun (i, s) -> Option.map (fun s -> i, s) s)
    in
    let rejects =
      if sip_checks <> [] && Obs.enabled () then Some (Atomic.make 0) else None
    in
    let reject () =
      match rejects with
      | Some r -> ignore (Atomic.fetch_and_add r 1)
      | None -> ()
    in
    let slots =
      t.slots @ List.mapi (fun i key -> key, width + i) fresh_keys
    in
    (* The probe key for an environment is its slot codes plus pre-encoded
       constant codes, hashed exactly as the index hashed its key columns
       ([Chunkrel.hash_codes] = [Chunkrel.hash_key] for equal keys). *)
    let key_specs =
      Array.of_list
        (List.filter_map
           (function Key src -> Some src | Bind_new | Check_new _ -> None)
           roles)
    in
    let nkeys = Array.length key_specs in
    let chunk_cols = ci.Index.chunk.Chunkrel.cols in
    let fill_cols =
      Array.of_list (List.map (fun pos -> chunk_cols.(pos)) fills)
    in
    let n_fresh = Array.length fill_cols in
    (* An intra-tuple repeat check compares two columns of the *same*
       candidate row, so it needs no per-row fresh-value staging. *)
    let check_pairs =
      Array.of_list
        (List.map (fun (pos, i) -> chunk_cols.(pos), fill_cols.(i)) checks)
    in
    let nchecks = Array.length check_pairs in
    let sip_cols =
      Array.of_list (List.map (fun (i, s) -> fill_cols.(i), s) sip_checks)
    in
    let nsips = Array.length sip_cols in
    let ready_mk =
      let fresh = List.combine fresh_keys (Array.to_list fill_cols) in
      conj (List.map (compile catalog (src_of ~fresh t) data) ready)
    in
    let run ~lo ~hi =
      let out = Buf.create ((hi - lo) * new_width) in
      let emitted = ref 0 in
      let probe = Array.make nkeys 0 in
      let ready_ok = ready_mk () in
      for r = lo to hi - 1 do
        let base = r * width in
        for k = 0 to nkeys - 1 do
          probe.(k) <- read data base (-1) (Array.unsafe_get key_specs k)
        done;
        let h = Chunkrel.hash_codes probe in
        let j = ref ci.Index.heads.(h land ci.Index.mask) in
        while !j >= 0 do
          let row = !j in
          let rec keys_eq k =
            k >= nkeys
            || Array.unsafe_get (Array.unsafe_get ci.Index.key_cols k) row
               = Array.unsafe_get probe k
               && keys_eq (k + 1)
          in
          let rec checks_ok c =
            c >= nchecks
            ||
            let ca, cb = Array.unsafe_get check_pairs c in
            Array.unsafe_get ca row = Array.unsafe_get cb row
            && checks_ok (c + 1)
          in
          let rec sip_ok k =
            k >= nsips
            ||
            let col, s = Array.unsafe_get sip_cols k in
            Sip.mem s (Array.unsafe_get col row) && sip_ok (k + 1)
          in
          if keys_eq 0 && checks_ok 0 then begin
            if not (sip_ok 0) then reject ()
            else if ready_ok base row then begin
              incr emitted;
              for c = 0 to width - 1 do
                Buf.push out (Array.unsafe_get data (base + c))
              done;
              for k = 0 to n_fresh - 1 do
                Buf.push out
                  (Array.unsafe_get (Array.unsafe_get fill_cols k) row)
              done
            end
          end;
          j := ci.Index.next.(row)
        done
      done;
      !emitted, out
    in
    let result = merge_code_chunks slots ~width:new_width (chunked count run) in
    (match rejects with
    | Some r -> Obs.count "sip.rows_pruned" (Atomic.get r)
    | None -> ());
    result

  let key_positions t keys =
    List.map
      (fun key ->
        match slot_of t key with
        | Some s -> s
        | None -> errorf "Envs.project: unbound key %s" key)
      keys

  (* Gather the projected columns out of the stride layout and hand the
     distinct rows to the relation as an already-distinct chunk.  Rows are
     distinct already (see [t]), so when the keys cover every slot the
     dedup pass is skipped; otherwise one open-addressing pass dedupes the
     code rows. *)
  let project t ~keys ~columns =
    let { width; count; data; _ } = t in
    let positions = key_positions t keys in
    let pcols =
      Array.of_list
        (List.map
           (fun p ->
             Array.init count (fun r -> Array.unsafe_get data ((r * width) + p)))
           positions)
    in
    let nrows, cols =
      if List.for_all (fun (_, s) -> List.mem s positions) t.slots then
        count, pcols
      else
        let idxs = Chunkrel.distinct_rows pcols count in
        Array.length idxs, Chunkrel.gather_cols pcols idxs
    in
    Relation.of_chunkrel (Schema.of_list columns)
      { Chunkrel.nrows; cols; rows_cache = None }

  let semijoin t ~keys ~keep =
    let srcs = List.map (fun s -> Slot s) (key_positions t keys) in
    filter_codes (membership (membership_index keep) srcs t.data ~want:true) t

  let rows { width; count; data; _ } =
    List.init count (fun r ->
        Tuple.of_array
          (Array.init width (fun c -> Dict.decode data.((r * width) + c))))
end

(* {1 Literal ordering} *)

let literal_keys lit =
  List.map (fun v -> v) (Ast.literal_vars lit)
  @ List.map (fun p -> "$" ^ p) (Ast.literal_params lit)

let atom_keys (a : Ast.atom) =
  List.filter_map
    (function
      | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
      | Ast.Const _ -> None)
    a.args

(* Estimated number of index matches per environment for [atom] given the
   bound-key set: |R| divided by the distinct counts of the columns at
   bound (or constant) positions, assuming independence. *)
let estimate_matches catalog bound (a : Ast.atom) =
  let rel = relation_for catalog a in
  let stats = Catalog.stats catalog a.pred in
  let columns = Schema.columns (Relation.schema rel) in
  let est = ref (float_of_int (Statistics.cardinality stats)) in
  let bound_positions = ref 0 in
  List.iteri
    (fun i arg ->
      let is_bound =
        match arg with
        | Ast.Const _ -> true
        | Ast.Var _ | Ast.Param _ -> List.mem (Ast.binding_key arg) bound
      in
      if is_bound then begin
        incr bound_positions;
        let d = Statistics.distinct stats (List.nth columns i) in
        est := !est /. float_of_int (max 1 d)
      end)
    a.args;
  !est, !bound_positions

let order_body catalog (r : Ast.rule) =
  (match Safety.check r with
  | Ok () -> ()
  | Error e -> raise (Error e));
  let rec loop bound remaining ordered =
    if remaining = [] then List.rev ordered
    else begin
      (* First flush every Neg/Cmp whose keys are all bound. *)
      let ready, rest =
        List.partition
          (fun lit ->
            match lit with
            | Ast.Pos _ -> false
            | Ast.Neg _ | Ast.Cmp _ ->
              List.for_all (fun k -> List.mem k bound) (literal_keys lit))
          remaining
      in
      if ready <> [] then loop bound rest (List.rev_append ready ordered)
      else begin
        (* Pick the cheapest positive subgoal among those sharing a bound
           key; a cross product only when none does. *)
        let candidates =
          List.filter_map
            (function Ast.Pos a -> Some a | Ast.Neg _ | Ast.Cmp _ -> None)
            rest
        in
        let candidates =
          match
            List.filter
              (fun a -> List.exists (fun k -> List.mem k bound) (atom_keys a))
              candidates
          with
          | [] -> candidates
          | connected -> connected
        in
        match candidates with
        | [] ->
          errorf "order_body: non-positive subgoals with unbound variables"
        | _ ->
          let best =
            List.fold_left
              (fun acc a ->
                let est, bp = estimate_matches catalog bound a in
                match acc with
                | None -> Some (a, est, bp)
                | Some (_, best_est, best_bp) ->
                  if est < best_est || (est = best_est && bp > best_bp) then
                    Some (a, est, bp)
                  else acc)
              None candidates
          in
          let a, _, _ = Option.get best in
          let rest' =
            let removed = ref false in
            List.filter
              (fun lit ->
                match lit with
                | Ast.Pos a' when (not !removed) && Ast.equal_atom a' a ->
                  removed := true;
                  false
                | _ -> true)
              rest
          in
          loop
            (List.sort_uniq String.compare (bound @ atom_keys a))
            rest'
            (Ast.Pos a :: ordered)
      end
    end
  in
  let ordered = loop [] r.body [] in
  Log.debug (fun m ->
      m "join order for %s: %s" r.head.pred
        (String.concat " ; " (List.map Pretty.literal_to_string ordered)));
  ordered

(* {1 Whole-rule evaluation} *)

let head_columns (r : Ast.rule) =
  let base =
    List.mapi
      (fun i t ->
        match t with
        | Ast.Var v -> v
        | Ast.Const _ -> Printf.sprintf "c%d" i
        | Ast.Param p -> errorf "parameter $%s in head" p)
      r.head.args
  in
  (* Disambiguate duplicates: B, B -> B, B_2. *)
  let seen = Hashtbl.create 8 in
  List.map
    (fun name ->
      let n =
        match Hashtbl.find_opt seen name with Some n -> n + 1 | None -> 1
      in
      Hashtbl.replace seen name n;
      if n = 1 then name else Printf.sprintf "%s_%d" name n)
    base

(* Split an ordered body into groups: a positive subgoal that binds a key,
   followed by the literals that are ready once it has (comparisons,
   negations, fully bound positives).  Literals ready before anything is
   bound form a head-less leading group. *)
let group_body ordered =
  let rec go bound groups = function
    | [] -> List.rev_map (fun (head, ready) -> head, List.rev ready) groups
    | lit :: rest -> (
      match lit, groups with
      | Ast.Pos a, _
        when List.exists (fun k -> not (List.mem k bound)) (atom_keys a) ->
        go (atom_keys a @ bound) ((Some a, []) :: groups) rest
      | _, (head, ready) :: groups ->
        go bound ((head, lit :: ready) :: groups) rest
      | _, [] -> go bound [ None, [ lit ] ] rest)
  in
  go [] [] ordered

let run_body ?sip catalog (r : Ast.rule) =
  List.fold_left
    (fun envs (head, ready) ->
      (* Group boundaries are the evaluator's cancellation checkpoints:
         a governed deadline interrupts a rule between joins (one atomic
         load per group when ungoverned). *)
      Qf_governor.Governor.check ();
      match head with
      | Some a -> Envs.extend_pos ?sip ~ready catalog envs a
      | None -> Envs.filter_ready catalog envs ready)
    (Envs.start ())
    (group_body (order_body catalog r))

let head_keys (r : Ast.rule) =
  List.map
    (fun t ->
      match t with
      | Ast.Var _ -> `Key (Ast.binding_key t)
      | Ast.Const v -> `Const v
      | Ast.Param p -> errorf "parameter $%s in head" p)
    r.head.args

(* Project environments onto (group keys, head terms).  Head constants are
   materialized directly. *)
let project_with_consts envs ~group_keys ~group_columns (r : Ast.rule) =
  let head = head_keys r in
  let keys =
    group_keys
    @ List.filter_map (function `Key k -> Some k | `Const _ -> None) head
  in
  let columns =
    group_columns
    @ List.filteri
        (fun i _ ->
          match List.nth head i with `Key _ -> true | `Const _ -> false)
        (head_columns r)
  in
  let narrow = Envs.project envs ~keys ~columns in
  if List.for_all (function `Key _ -> true | `Const _ -> false) head then
    narrow
  else begin
    (* Re-insert constant head columns in position. *)
    let full_schema =
      Schema.of_list (group_columns @ head_columns r)
    in
    let out = Relation.create full_schema in
    let n_group = List.length group_columns in
    Relation.iter
      (fun tup ->
        let rest = ref (Tuple.to_list tup |> List.filteri (fun i _ -> i >= n_group)) in
        let prefix = Tuple.to_list tup |> List.filteri (fun i _ -> i < n_group) in
        let head_vals =
          List.map
            (function
              | `Const v -> v
              | `Key _ -> (
                match !rest with
                | v :: tl ->
                  rest := tl;
                  v
                | [] -> errorf "project_with_consts: internal arity error"))
            head
        in
        Relation.add out (Tuple.of_list (prefix @ head_vals)))
      narrow;
    out
  end

let param_keys_and_columns (r : Ast.rule) =
  let params = Ast.rule_params r in
  List.map (fun p -> "$" ^ p) params, List.map (fun p -> "$" ^ p) params

let tabulate ?sip catalog (r : Ast.rule) =
  let envs = run_body ?sip catalog r in
  let group_keys, group_columns = param_keys_and_columns r in
  project_with_consts envs ~group_keys ~group_columns r

let answers catalog ~bindings (r : Ast.rule) =
  let r' = Ast.subst_rule bindings r in
  (match Ast.rule_params r' with
  | [] -> ()
  | p :: _ -> errorf "answers: parameter $%s left unbound" p);
  let envs = run_body catalog r' in
  project_with_consts envs ~group_keys:[] ~group_columns:[] r'

let tabulate_query ?sip catalog (q : Ast.query) =
  (match Ast.wf_query q with Ok () -> () | Error e -> raise (Error e));
  match q with
  | [] -> assert false
  | first :: rest ->
    let acc = tabulate ?sip catalog first in
    List.fold_left
      (fun acc r ->
        Qf_governor.Governor.check ();
        let next = tabulate ?sip catalog r in
        (* Positional rename: arities agree by wf_query. *)
        Relation.fold (fun tup () -> Relation.add acc tup) next ();
        acc)
      acc rest
