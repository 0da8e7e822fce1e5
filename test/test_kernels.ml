(* Kernel correctness against list-level oracles.

   Every relational kernel runs over dictionary-encoded columns.  The
   QCheck properties below check each kernel's result *set* against an
   independent oracle written over plain tuple lists in this file: a
   nested-loop join, [List.filter], and association-list grouping
   through [Aggregate.eval].  Deterministic units pin the classic edge
   cases (empty input, all-duplicate rows, single-column relations,
   mixed value types).

   The corpus check at the bottom replays the differential suite's 100
   seeded basket instances through every executor with the pool forced
   to 1 and 4 domains, against [Naive.run] (generate-and-test) — the
   full-stack analogue of the per-kernel properties. *)

module R = Qf_relational.Relation
module V = Qf_relational.Value
module Tuple = Qf_relational.Tuple
module Schema = Qf_relational.Schema
module Join = Qf_relational.Join
module Aggregate = Qf_relational.Aggregate
module Pool = Qf_exec_pool.Pool
open Qf_core
open Qf_testgen.Testgen

(* {1 List-level oracles} *)

let tuples rel = List.map Tuple.to_list (R.to_sorted_list rel)

let pos rel col = Schema.position (R.schema rel) col

(* Nested-loop equi-join: [a]'s row followed by [b]'s non-target columns,
   for every pair agreeing on all [pairs]. *)
let oracle_equi a b pairs =
  let pairs = List.map (fun (ca, cb) -> pos a ca, pos b cb) pairs in
  let targets = List.map snd pairs in
  List.concat_map
    (fun ta ->
      List.filter_map
        (fun tb ->
          if List.for_all (fun (i, j) -> V.equal (List.nth ta i) (List.nth tb j)) pairs
          then Some (ta @ List.filteri (fun j _ -> not (List.mem j targets)) tb)
          else None)
        (tuples b))
    (tuples a)

let oracle_presence ~keep_matching a b pairs =
  let pairs = List.map (fun (ca, cb) -> pos a ca, pos b cb) pairs in
  List.filter
    (fun ta ->
      List.exists
        (fun tb ->
          List.for_all (fun (i, j) -> V.equal (List.nth ta i) (List.nth tb j)) pairs)
        (tuples b)
      = keep_matching)
    (tuples a)

let oracle_project rel cols =
  List.sort_uniq compare
    (List.map (fun t -> List.map (fun c -> List.nth t (pos rel c)) cols) (tuples rel))

(* Association-list grouping: (key, aggregate) per distinct key. *)
let oracle_groups rel ~keys ~func =
  let groups =
    List.fold_left
      (fun acc tup ->
        let key = List.map (fun c -> Tuple.get tup (pos rel c)) keys in
        match List.assoc_opt key acc with
        | Some members -> (key, tup :: members) :: List.remove_assoc key acc
        | None -> (key, [ tup ]) :: acc)
      [] (R.to_list rel)
  in
  List.map (fun (key, members) -> key, Aggregate.eval func (R.schema rel) members) groups

let oracle_group_filter rel ~keys ~func ~threshold =
  List.filter_map
    (fun (key, v) ->
      match V.to_float v with
      | Some x when x >= threshold -> Some key
      | _ -> None)
    (oracle_groups rel ~keys ~func)

(* [R.equal] between the kernel's output and the oracle's rows (as a
   relation over the kernel output's columns). *)
let agrees got expected =
  R.equal got (R.of_values (Schema.columns (R.schema got)) expected)

let check_prop name got expected =
  if not (agrees got expected) then
    QCheck.Test.fail_reportf "%s: kernel differs from oracle\nkernel:\n%a\noracle:\n%a"
      name R.pp got R.pp
      (R.of_values (Schema.columns (R.schema got)) expected);
  true

let groups_rel keys groups =
  R.of_values (keys @ [ "agg" ]) (List.map (fun (key, v) -> key @ [ v ]) groups)

(* {1 Generators} *)

(* Two joinable relations sharing a [B] column, skewed to a tiny value
   universe so duplicate keys, empty join results and all-duplicate
   columns all occur naturally. *)
let gen_join_pair =
  QCheck.Gen.(
    let* a = gen_small_relation ~columns:[ "A"; "B" ] ~max_value:4 ~max_rows:24 in
    let* b = gen_small_relation ~columns:[ "B"; "C" ] ~max_value:4 ~max_rows:24 in
    return (a, b))

let arb_join_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "a:\n%s\nb:\n%s" (pp_relation a) (pp_relation b))
    gen_join_pair

let arb_rel3 =
  QCheck.make ~print:pp_relation
    (gen_small_relation ~columns:[ "A"; "B"; "C" ] ~max_value:4 ~max_rows:30)

(* {1 Join kernels} *)

let semi_oracle = oracle_presence ~keep_matching:true
let anti_oracle = oracle_presence ~keep_matching:false

let join_prop ?(suffix = "") ~count op oracle op_name =
  QCheck.Test.make ~count ~name:(op_name ^ suffix ^ ": kernel = nested-loop oracle")
    arb_join_pair (fun (a, b) ->
      check_prop op_name (op a b [ "B", "B" ]) (oracle a b [ "B", "B" ]))

(* The forced-parallel variant drives the chunked fan-out paths even on
   tiny inputs ([par_threshold:0] at the call sites below); the pool
   comes from the environment (the second runtest pass forces
   QF_DOMAINS=4). *)
let join_prop_par = join_prop ~suffix:" (forced parallel)" ~count:75
let join_prop = join_prop ~count:150

(* {1 Select / project} *)

let select_pred tup =
  match Tuple.get tup 0 with V.Int i -> i mod 2 = 0 | _ -> true

let select_prop =
  QCheck.Test.make ~count:150 ~name:"select: kernel = List.filter" arb_rel3
    (fun rel ->
      check_prop "select" (R.select rel select_pred)
        (List.filter (fun t -> select_pred (Tuple.of_list t)) (tuples rel)))

let project_prop =
  QCheck.Test.make ~count:150 ~name:"project: kernel = list oracle" arb_rel3
    (fun rel ->
      check_prop "project" (R.project rel [ "B"; "A" ]) (oracle_project rel [ "B"; "A" ]))

let project_single_prop =
  QCheck.Test.make ~count:150 ~name:"project to one column (forced parallel): kernel = list oracle"
    arb_rel3 (fun rel ->
      check_prop "project1" (R.project ~par_threshold:0 rel [ "C" ]) (oracle_project rel [ "C" ]))

(* {1 Aggregation} *)

let arb_func =
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Aggregate.pp_func f)
    QCheck.Gen.(
      oneofl
        [
          Aggregate.Count;
          Aggregate.Sum "C";
          Aggregate.Min "C";
          Aggregate.Max "C";
        ])

let group_by_check name rel ~keys ~func =
  let got =
    groups_rel keys
      (List.map
         (fun (key, v) -> Tuple.to_list key, v)
         (Aggregate.group_by rel ~keys ~func))
  in
  check_prop name got
    (List.map (fun (key, v) -> key @ [ v ]) (oracle_groups rel ~keys ~func))

let group_by_prop =
  QCheck.Test.make ~count:150 ~name:"group_by: kernel = association-list oracle"
    (QCheck.pair arb_rel3 arb_func) (fun (rel, func) ->
      group_by_check "group_by" rel ~keys:[ "A"; "B" ] ~func)

let group_by_single_key_prop =
  (* Exercises the dense code->group fast path (single key column). *)
  QCheck.Test.make ~count:150 ~name:"group_by one key: kernel = association-list oracle"
    (QCheck.pair arb_rel3 arb_func) (fun (rel, func) ->
      group_by_check "group_by1" rel ~keys:[ "B" ] ~func)

let group_filter_prop =
  QCheck.Test.make ~count:150 ~name:"group_filter: kernel = association-list oracle"
    (QCheck.triple arb_rel3 arb_func (QCheck.int_range 1 5))
    (fun (rel, func, threshold) ->
      let threshold = float_of_int threshold in
      check_prop "group_filter"
        (Aggregate.group_filter rel ~keys:[ "A"; "B" ] ~func ~threshold)
        (oracle_group_filter rel ~keys:[ "A"; "B" ] ~func ~threshold))

let group_filter_report_prop =
  QCheck.Test.make ~count:150
    ~name:"group_filter_report candidates = |project keys|"
    (QCheck.pair arb_rel3 (QCheck.int_range 1 5)) (fun (rel, threshold) ->
      let _, candidates =
        Aggregate.group_filter_report rel ~keys:[ "A"; "B" ]
          ~func:Aggregate.Count
          ~threshold:(float_of_int threshold)
      in
      candidates = List.length (oracle_project rel [ "A"; "B" ]))

(* {1 Edge-case units} *)

let check_unit name got expected =
  if not (agrees got expected) then
    Alcotest.failf "%s: kernel differs from oracle\nkernel:\n%a" name R.pp got

let test_empty_inputs () =
  let empty cols = R.of_values cols [] in
  let one = R.of_values [ "B"; "C" ] [ [ V.Int 1; V.Int 2 ] ] in
  check_unit "equi on empty"
    (Join.equi (empty [ "A"; "B" ]) (empty [ "B"; "C" ]) [ "B", "B" ])
    [];
  check_unit "semi empty probe" (Join.semi (empty [ "A"; "B" ]) one [ "B", "B" ]) [];
  check_unit "anti empty build"
    (Join.anti (R.of_values [ "A"; "B" ] [ [ V.Int 1; V.Int 2 ] ]) (empty [ "B"; "C" ])
       [ "B", "B" ])
    [ [ V.Int 1; V.Int 2 ] ];
  check_unit "select on empty" (R.select (empty [ "A"; "B" ]) (fun _ -> true)) [];
  check_unit "project on empty" (R.project (empty [ "A"; "B" ]) [ "A" ]) [];
  check_unit "group_filter on empty"
    (Aggregate.group_filter (empty [ "A"; "B" ]) ~keys:[ "A" ] ~func:Aggregate.Count
       ~threshold:1.)
    [];
  Alcotest.(check int) "group_by on empty" 0
    (List.length (Aggregate.group_by (empty [ "A"; "B" ]) ~keys:[ "A" ] ~func:Aggregate.Count))

let test_all_duplicates () =
  (* Relations are sets, so "all duplicates" means every projected row
     collapses to one: the dedup paths must agree with the oracle. *)
  let rel =
    R.of_values [ "A"; "B" ]
      (List.init 20 (fun i -> [ V.Int (i mod 2); V.Int 7 ]))
  in
  check_unit "project all-dup column" (R.project rel [ "B" ]) [ [ V.Int 7 ] ];
  check_unit "group_by all-dup key"
    (groups_rel [ "B" ]
       (List.map
          (fun (k, v) -> Tuple.to_list k, v)
          (Aggregate.group_by rel ~keys:[ "B" ] ~func:Aggregate.Count)))
    [ [ V.Int 7; V.Real 2. ] ];
  check_unit "self equi on all-dup key"
    (Join.equi rel rel [ "B", "A" ])
    (oracle_equi rel rel [ "B", "A" ])

let test_single_column () =
  let rel = R.of_values [ "A" ] (List.init 9 (fun i -> [ V.Int (i mod 3) ])) in
  let all = [ [ V.Int 0 ]; [ V.Int 1 ]; [ V.Int 2 ] ] in
  check_unit "single-column project" (R.project rel [ "A" ]) all;
  check_unit "single-column semi self" (Join.semi rel rel [ "A", "A" ]) all;
  check_unit "single-column group_filter"
    (Aggregate.group_filter rel ~keys:[ "A" ] ~func:Aggregate.Count ~threshold:1.)
    all

(* Values of different types never share a dictionary code: Int 1 and
   Real 1.0 must stay distinct. *)
let test_mixed_types () =
  let rel =
    R.of_values [ "A"; "B" ]
      [
        [ V.Int 1; V.Str "x" ];
        [ V.Real 1.0; V.Str "x" ];
        [ V.Int 1; V.Str "y" ];
      ]
  in
  check_unit "mixed-type project" (R.project rel [ "A" ]) [ [ V.Int 1 ]; [ V.Real 1.0 ] ];
  check_unit "mixed-type self join"
    (Join.equi rel rel [ "A", "A" ])
    (oracle_equi rel rel [ "A", "A" ]);
  Alcotest.(check int) "mixed-type self join size" 5
    (R.cardinal (Join.equi rel rel [ "A", "A" ]))

(* {1 The full-stack corpus under forced pool sizes} *)

let run_executors cat flock =
  let direct = Direct.run cat flock in
  let optimized = Plan_exec.run cat (Optimizer.optimize cat flock) in
  let singleton =
    match Apriori_gen.singleton_plan flock with
    | Ok p -> Plan_exec.run cat p
    | Error e -> failwith ("singleton plan: " ^ e)
  in
  let dynamic =
    match Dynamic.run cat flock with
    | Ok r -> r.Dynamic.answers
    | Error e -> failwith ("dynamic: " ^ e)
  in
  [
    "direct", direct;
    "optimized plan", optimized;
    "singleton plan", singleton;
    "dynamic", dynamic;
  ]

let test_corpus_pool_insensitive () =
  let seeds = List.init 100 Fun.id in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_size (Pool.default_size ()))
    (fun () ->
      List.iter
        (fun seed ->
          let rel, threshold = instance ~seed gen_basket_instance in
          let flock = pair_flock threshold in
          let expected = Naive.run (catalog_of rel) flock in
          List.iter
            (fun domains ->
              Pool.set_default_size domains;
              List.iter
                (fun (name, got) ->
                  if not (R.equal expected got) then
                    Alcotest.failf
                      "seed %d: %s at %d domains disagrees with Naive \
                       (threshold %d)\n%s"
                      seed name domains threshold (pp_relation rel))
                (run_executors (catalog_of rel) flock))
            [ 1; 4 ])
        seeds)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      join_prop (fun a b p -> Join.equi a b p) oracle_equi "equi";
      join_prop (fun a b p -> Join.semi a b p) semi_oracle "semi";
      join_prop (fun a b p -> Join.anti a b p) anti_oracle "anti";
      join_prop_par (fun a b p -> Join.equi ~par_threshold:0 a b p) oracle_equi "equi";
      join_prop_par (fun a b p -> Join.semi ~par_threshold:0 a b p) semi_oracle "semi";
      join_prop_par (fun a b p -> Join.anti ~par_threshold:0 a b p) anti_oracle "anti";
      select_prop;
      project_prop;
      project_single_prop;
      group_by_prop;
      group_by_single_key_prop;
      group_filter_prop;
      group_filter_report_prop;
    ]
  @ [
      Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
      Alcotest.test_case "all-duplicate rows" `Quick test_all_duplicates;
      Alcotest.test_case "single-column relations" `Quick test_single_column;
      Alcotest.test_case "mixed value types" `Quick test_mixed_types;
      Alcotest.test_case "100-seed corpus: pool insensitive, agrees with Naive"
        `Quick test_corpus_pool_insensitive;
    ]
