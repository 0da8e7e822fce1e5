module Ast = Qf_datalog.Ast
module Eval = Qf_datalog.Eval
module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Aggregate = Qf_relational.Aggregate
module Sip = Qf_relational.Sip

module Obs = Qf_obs.Obs

let log_src = Logs.Src.create "qf.plan" ~doc:"FILTER-step plan execution"

module Log = (val Logs.src_log log_src)

type step_report = {
  step_name : string;
  tabulated_rows : int;
  groups : int;
  survivors : int;
  seconds : float;
  reused_from : string option;
  memo_hit : bool;
  sip_pruned : int;
}

type report = {
  result : Qf_relational.Relation.t;
  steps : step_report list;
}

type options = {
  semijoin_reduction : bool;
  symmetric_reuse : bool;
  memoize : bool;
}

let default_options =
  { semijoin_reduction = true; symmetric_reuse = true; memoize = true }

(* Sideways information passing — the rewrite the paper's Sec. 1.3 measured:
   "first find those items that appeared in at least 20 baskets ... and then
   join the set of these items with the baskets relation before performing
   the query".  Two mechanisms:

   {ul
   {- For every {e unary} ok-subgoal [ok($p)] in a rule, each base subgoal
      with [$p] in some argument position is replaced by the materialized
      reduction of its relation against a {!Sip} reducer built over [ok]'s
      column — exact below {!Sip.exact_cutoff}, a Bloom filter above it.
      The reduction may over-approximate (Bloom false positives); that is
      sound because the [ok] subgoal itself stays in the body, so spurious
      survivors are eliminated by the actual join.  {!Cost.should_reduce}
      gates placement: when [ok] covers (almost) the whole column domain
      the reduction cannot prune and is skipped.}
   {- For every {e multi-parameter} ok-subgoal [ok($p, $q, ...)], a per
      column reducer is handed to the evaluator ([Eval.tabulate_query
      ~sip]), which consults it the moment a binding for that parameter is
      about to be created — pruning posting-list extensions before they
      enter the environment relation.}}

   The binding-passing evaluator prunes the first parameter it binds for
   free, but later extensions scan unreduced posting lists; materializing
   the reduction is what yields the multiplicative (per-parameter) savings.
   Reductions and reducers are memoized across rules and steps of one plan
   execution.  [pruned] accumulates rows removed by materialized
   reductions (the deterministic [base - reduced] difference). *)
let reduce_rule work ~step_names ~canon ~cache ~sips ~pruned (r : Ast.rule) =
  let param_oks =
    List.filter_map
      (function
        | Ast.Pos { Ast.pred; args }
          when List.mem pred step_names
               && args <> []
               && List.for_all
                    (function Ast.Param _ -> true | _ -> false)
                    args ->
          Some
            ( pred,
              List.map
                (function Ast.Param p -> p | _ -> assert false)
                args )
        | _ -> None)
      r.body
  in
  if param_oks = [] then r, []
  else begin
    let canonical name =
      match Hashtbl.find_opt canon name with Some c -> c | None -> name
    in
    (* Reducer over the [rank]-th column of [ok_name]'s relation, shared
       across rules and steps.  Columns are addressed positionally: step
       outputs carry their own (sorted) parameter names, which differ from
       this step's parameters when the relation was registered by the
       symmetry or memo shortcut. *)
    let reducer ok_name rank =
      let key = Printf.sprintf "%s#%d" ok_name rank in
      match Hashtbl.find_opt sips key with
      | Some s -> s
      | None ->
        let rel = Catalog.find work ok_name in
        let col = List.nth (Schema.columns (Relation.schema rel)) rank in
        let s = Sip.of_column rel col in
        Hashtbl.replace sips key s;
        s
    in
    let unary_oks =
      List.filter_map
        (function ok, [ p ] -> Some (p, ok) | _ -> None)
        param_oks
    in
    let reduce_atom (a : Ast.atom) =
      if List.mem a.pred step_names then a
      else begin
        let pred = ref a.pred in
        List.iteri
          (fun i arg ->
            match arg with
            | Ast.Param p -> (
              match List.assoc_opt p unary_oks with
              | None -> ()
              | Some ok_name ->
                let canonical_ok = canonical ok_name in
                let reduced_name =
                  Printf.sprintf "%s~%d~%s" !pred i canonical_ok
                in
                if Hashtbl.mem cache reduced_name then pred := reduced_name
                else begin
                  let base = Catalog.find work !pred in
                  let ok = Catalog.find work canonical_ok in
                  let col =
                    List.nth (Schema.columns (Relation.schema base)) i
                  in
                  if
                    Cost.should_reduce work ~pred:!pred ~col
                      ~ok_cardinal:(Relation.cardinal ok)
                  then begin
                    let reduced =
                      Sip.filter base ~pos:i (reducer canonical_ok 0)
                    in
                    let removed =
                      Relation.cardinal base - Relation.cardinal reduced
                    in
                    pruned := !pruned + removed;
                    if Obs.enabled () then
                      Obs.count "sip.rows_pruned" removed;
                    Catalog.add work reduced_name reduced;
                    Hashtbl.replace cache reduced_name ();
                    pred := reduced_name
                  end
                end)
            | Ast.Var _ | Ast.Const _ -> ())
          a.args;
        { a with Ast.pred = !pred }
      end
    in
    let body =
      List.map
        (function
          | Ast.Pos a -> Ast.Pos (reduce_atom a)
          | (Ast.Neg _ | Ast.Cmp _) as lit -> lit)
        r.body
    in
    (* Evaluator-side reducers for multi-parameter ok steps (keyed by the
       parameters' binding keys).  The reducer for parameter [p] reads the
       column at [p]'s rank in the subgoal's {e sorted} parameter list —
       the positional bijection under which aliased step outputs are
       α-equivalent. *)
    let sip =
      List.fold_left
        (fun acc (ok_name, params) ->
          if List.length params < 2 then acc
          else begin
            let ok_name = canonical ok_name in
            let sorted = List.sort String.compare params in
            List.fold_left
              (fun acc p ->
                let key = "$" ^ p in
                if List.mem_assoc key acc then acc
                else
                  match List.find_index (String.equal p) sorted with
                  | Some rank -> (key, reducer ok_name rank) :: acc
                  | None -> acc)
              acc params
          end)
        [] param_oks
    in
    { r with Ast.body }, sip
  end

let run_step work ~options ~step_names ~canon ~cache ~sips ~est
    (flock : Flock.t) (s : Plan.step) =
  let t0 = Obs.now () in
  let pruned = ref 0 in
  let compute () =
    let query, sip =
      if options.semijoin_reduction then begin
        let reduced =
          List.map
            (reduce_rule work ~step_names ~canon ~cache ~sips ~pruned)
            s.query
        in
        ( List.map fst reduced,
          List.fold_left
            (fun acc (_, sip) ->
              List.fold_left
                (fun acc (k, r) ->
                  if List.mem_assoc k acc then acc else (k, r) :: acc)
                acc sip)
            [] reduced )
      end
      else s.query, []
    in
    let tab = Eval.tabulate_query ~sip work query in
    let keys = List.map (fun p -> "$" ^ p) s.params in
    let func =
      Filter.to_aggregate flock.filter
        ~head_columns:(Eval.head_columns (List.hd s.query))
    in
    (* One grouping pass yields both the survivors and the candidate
       count: [group_filter_report]'s candidate count is exactly
       [Relation.cardinal (Relation.project tab keys)], so the separate
       projection pass this step used to make is fused away. *)
    let survivors, groups =
      Aggregate.group_filter_report tab ~keys ~func
        ~threshold:flock.filter.threshold
    in
    Catalog.add work s.name survivors;
    survivors, Relation.cardinal tab, groups, Relation.cardinal survivors
  in
  let survivors, tab_rows, groups, survived =
    if not (Obs.enabled ()) then compute ()
    else
      (* The FILTER-step span: rows in, candidate groups, surviving rows,
         the a-priori pruning ratio (surviving fraction), rows removed by
         semijoin reducers, and — when the cost model produced one — the
         estimated output cardinality next to the observed one. *)
      Obs.with_span "filter.step" ~attrs:[ "step", Obs.Str s.name ] (fun () ->
          let (_, tab_rows, groups, survived) as r = compute () in
          Obs.set_attr "rows_in" (Obs.Int tab_rows);
          Obs.set_attr "groups" (Obs.Int groups);
          Obs.set_attr "rows_out" (Obs.Int survived);
          Obs.set_attr "pruning_ratio"
            (Obs.Float
               (if groups = 0 then 1.
                else float_of_int survived /. float_of_int groups));
          if options.semijoin_reduction then
            Obs.set_attr "sip_pruned" (Obs.Int !pruned);
          (match est with
          | Some (e : Cost.step_estimate) ->
            Obs.set_attr "est_rows" (Obs.Float e.Cost.est_rows);
            Obs.set_attr "est_groups" (Obs.Float e.Cost.est_groups)
          | None -> ());
          r)
  in
  Log.debug (fun m ->
      m "step %s: %d rows -> %d groups -> %d survive (sip pruned %d)" s.name
        tab_rows groups survived !pruned);
  ( survivors,
    {
      step_name = s.name;
      tabulated_rows = tab_rows;
      groups;
      survivors = survived;
      seconds = Obs.now () -. t0;
      reused_from = None;
      memo_hit = false;
      sip_pruned = !pruned;
    } )

(* Symmetric-step reuse (paper Ex. 3.1: "by symmetry, the set of $1's that
   survive ... is exactly the same as the set of $2's"): when a step's query
   equals an earlier step's query up to renaming its (sorted) parameters,
   register the earlier result under the new name instead of recomputing.
   The sorted-positional bijection matches the result relation's column
   order, so the aliased relation is exactly the step's output. *)
let find_symmetric_twin earlier (s : Plan.step) =
  List.find_opt
    (fun (e : Plan.step) ->
      List.length e.params = List.length s.params
      && List.length e.query = List.length s.query
      &&
      let mapping = List.combine e.params s.params in
      List.for_all2
        (fun er sr -> Ast.equal_rule (Ast.rename_params mapping er) sr)
        e.query s.query)
    earlier

let run_with_report ?(options = default_options) catalog (plan : Plan.t) =
  Obs.with_span "plan.run"
    ~attrs:[ "steps", Obs.Int (List.length plan.steps + 1) ]
  @@ fun () ->
  (* Confront the System-R estimates with reality: when profiling, cost
     each step up front so the spans carry estimated next to observed
     cardinalities.  Derived predicates the model has no statistics for
     (e.g. view outputs on a bare catalog) disable the estimates, never
     the run. *)
  let estimates =
    if not (Obs.enabled ()) then []
    else
      match Cost.plan_step_estimates (Cost.of_catalog catalog) plan with
      | ests -> ests
      | exception Failure _ -> []
  in
  let est_for (s : Plan.step) =
    List.find_opt
      (fun (e : Cost.step_estimate) -> String.equal e.Cost.step s.Plan.name)
      estimates
  in
  let work = Catalog.copy catalog in
  let cache = Hashtbl.create 8 in
  let sips : (string, Sip.t) Hashtbl.t = Hashtbl.create 8 in
  let canon : (string, string) Hashtbl.t = Hashtbl.create 8 in
  (* One step, three shortcuts in increasing cost: alias a symmetric twin
     computed earlier in this plan; fetch an α-equivalent subplan from the
     catalog's cross-level memo (possibly written by a {e previous} plan —
     the k-1 levelwise pass, typically); or compute, and publish into the
     memo.  A memo hit registers the {e stored relation object}, so its
     (id, version) pair flows into the signatures of this plan's later
     steps and an entire plan prefix can cascade into hits. *)
  let exec_step ~executed ~defined (s : Plan.step) =
    (* Step boundaries are the plan executor's cancellation checkpoints:
       a governed deadline interrupts a plan between steps. *)
    Qf_governor.Governor.check ();
    match
      if options.symmetric_reuse then find_symmetric_twin executed s
      else None
    with
    | Some twin ->
      let t0 = Obs.now () in
      let rel = Catalog.find work twin.Plan.name in
      Catalog.add work s.name rel;
      Hashtbl.replace canon s.name
        (match Hashtbl.find_opt canon twin.Plan.name with
        | Some c -> c
        | None -> twin.Plan.name);
      if Obs.enabled () then
        Obs.with_span "filter.step"
          ~attrs:
            [
              "step", Obs.Str s.name;
              "reused_from", Obs.Str twin.Plan.name;
              "rows_out", Obs.Int (Relation.cardinal rel);
            ]
          (fun () -> ());
      ( rel,
        {
          step_name = s.name ^ " (= " ^ twin.Plan.name ^ " by symmetry)";
          tabulated_rows = 0;
          groups = Relation.cardinal rel;
          survivors = Relation.cardinal rel;
          seconds = Obs.now () -. t0;
          reused_from = Some twin.Plan.name;
          memo_hit = false;
          sip_pruned = 0;
        } )
    | None -> (
      let memo_key =
        if options.memoize && Catalog.memo_enabled work then
          Stepsig.of_step ~work ~filter:plan.flock.filter s
        else None
      in
      match Option.bind memo_key (Catalog.memo_find work) with
      | Some rel ->
        let t0 = Obs.now () in
        Catalog.add work s.name rel;
        if Obs.enabled () then
          Obs.with_span "filter.step"
            ~attrs:
              [
                "step", Obs.Str s.name;
                "memo", Obs.Str "hit";
                "rows_out", Obs.Int (Relation.cardinal rel);
              ]
            (fun () -> ());
        ( rel,
          {
            step_name = s.name ^ " (memo)";
            tabulated_rows = 0;
            groups = Relation.cardinal rel;
            survivors = Relation.cardinal rel;
            seconds = Obs.now () -. t0;
            reused_from = None;
            memo_hit = true;
            sip_pruned = 0;
          } )
      | None ->
        let rel, report =
          run_step work ~options ~step_names:defined ~canon ~cache ~sips
            ~est:(est_for s) plan.flock s
        in
        (match memo_key with
        | Some key -> Catalog.memo_add work key rel
        | None -> ());
        rel, report)
  in
  let _, reports =
    List.fold_left
      (fun ((executed, defined), acc) (s : Plan.step) ->
        let _, report = exec_step ~executed ~defined s in
        (s :: executed, s.name :: defined), report :: acc)
      (([], []), [])
      plan.steps
  in
  let step_names = List.map (fun (s : Plan.step) -> s.Plan.name) plan.steps in
  let result, final_report =
    exec_step ~executed:[] ~defined:step_names plan.final
  in
  Obs.set_attr "rows_out" (Obs.Int (Relation.cardinal result));
  { result; steps = List.rev reports @ [ final_report ] }

let run ?options catalog plan = (run_with_report ?options catalog plan).result
