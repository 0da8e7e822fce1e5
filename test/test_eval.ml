(* The Datalog evaluator: binding-passing joins, negation, arithmetic,
   grouping by parameters, unions. *)
open Qf_datalog
module R = Qf_relational.Relation
module V = Qf_relational.Value
module Catalog = Qf_relational.Catalog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rule text =
  match Parser.parse_rule text with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" text e

let catalog () =
  let cat = Catalog.create () in
  Catalog.add cat "edge"
    (R.of_values [ "X"; "Y" ]
       V.[
         [ Int 1; Int 2 ]; [ Int 2; Int 3 ]; [ Int 3; Int 4 ];
         [ Int 1; Int 3 ]; [ Int 4; Int 4 ];
       ]);
  Catalog.add cat "color"
    (R.of_values [ "N"; "C" ]
       V.[ [ Int 1; Str "red" ]; [ Int 2; Str "blue" ]; [ Int 3; Str "red" ] ]);
  cat

let tab cat text = Eval.tabulate cat (rule text)

let test_single_subgoal () =
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y)" in
  check_int "all edges" 5 (R.cardinal r)

let test_join_two_subgoals () =
  (* Two-step paths. *)
  let r = tab (catalog ()) "answer(X,Z) :- edge(X,Y) AND edge(Y,Z)" in
  (* 1-2-3, 2-3-4, 1-3-4, 3-4-4, 4-4-4 => distinct (X,Z): (1,3)(2,4)(1,4)(3,4)(4,4) *)
  check_int "two-step paths" 5 (R.cardinal r)

let test_repeated_variable_in_atom () =
  let r = tab (catalog ()) "answer(X) :- edge(X,X)" in
  check_int "self-loops" 1 (R.cardinal r);
  check_bool "node 4" true (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4 |]))

let test_constant_in_atom () =
  let r = tab (catalog ()) "answer(X) :- edge(X,3)" in
  check_int "edges into 3" 2 (R.cardinal r)

let test_negation () =
  (* Nodes with an outgoing edge whose target has no outgoing edge... with
     colors: colored nodes not blue-colored. *)
  let r =
    tab (catalog ()) "answer(N) :- color(N,C) AND NOT color(N,blue)"
  in
  (* negation on a different binding: NOT color(N,"blue") removes node 2 *)
  check_int "non-blue colored nodes" 2 (R.cardinal r)

let test_negation_joined () =
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y) AND NOT edge(Y,X)" in
  check_int "asymmetric edges" 4 (R.cardinal r);
  check_bool "4->4 excluded (symmetric)" false (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4; V.Int 4 |]))

let test_arithmetic () =
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y) AND X < Y" in
  check_int "forward edges" 4 (R.cardinal r);
  let r = tab (catalog ()) "answer(X,Y) :- edge(X,Y) AND Y <= 3" in
  check_int "small targets" 3 (R.cardinal r)

let test_cross_product () =
  let r = tab (catalog ()) "answer(N,C) :- color(N,C) AND edge(4,4)" in
  check_int "guarded cross" 3 (R.cardinal r)

let test_head_constant () =
  let r = tab (catalog ()) "answer(X, 99) :- edge(X,X)" in
  check_bool "constant column materialized" true
    (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4; V.Int 99 |]))

let test_head_constant_with_params () =
  (* Constant head columns must be re-inserted in position even when the
     tabulation carries parameter columns. *)
  let r = tab (catalog ()) "answer(X, 42, Y) :- edge(X,Y) AND edge(X,$t)" in
  check_bool "constant column in the middle" true
    (R.fold
       (fun tup ok -> ok && Qf_relational.Tuple.get tup 2 = V.Int 42)
       r true);
  check_bool "schema" true
    (Qf_relational.Schema.columns (R.schema r) = [ "$t"; "X"; "c1"; "Y" ])

let test_params_grouping () =
  let r = tab (catalog ()) "answer(X) :- edge(X,$t)" in
  (* Schema: $t, X; one row per (target, source) pair. *)
  check_int "param tabulation" 5 (R.cardinal r);
  check_bool "schema has $t first" true
    (Qf_relational.Schema.columns (R.schema r) = [ "$t"; "X" ])

let test_answers_with_bindings () =
  let r =
    Eval.answers (catalog ())
      ~bindings:[ "$t", V.Int 3 ]
      (rule "answer(X) :- edge(X,$t)")
  in
  check_int "sources of 3" 2 (R.cardinal r)

let test_answers_unbound_param_rejected () =
  Alcotest.check_raises "unbound param"
    (Eval.Error "answers: parameter $t left unbound") (fun () ->
      ignore (Eval.answers (catalog ()) ~bindings:[] (rule "answer(X) :- edge(X,$t)")))

let test_unsafe_rejected () =
  (try
     ignore (tab (catalog ()) "answer(Z) :- edge(X,Y)");
     Alcotest.fail "expected Eval.Error"
   with Eval.Error _ -> ());
  try
    ignore (tab (catalog ()) "answer(X) :- edge(X,Y) AND NOT color(Q,red)");
    Alcotest.fail "expected Eval.Error"
  with Eval.Error _ -> ()

let test_unknown_predicate () =
  try
    ignore (tab (catalog ()) "answer(X) :- nosuch(X,Y)");
    Alcotest.fail "expected Eval.Error"
  with Eval.Error msg ->
    check_bool "mentions predicate" true (Test_util.contains ~sub:"nosuch" msg)

let test_arity_mismatch () =
  try
    ignore (tab (catalog ()) "answer(X) :- edge(X,Y,Z)");
    Alcotest.fail "expected Eval.Error"
  with Eval.Error msg ->
    check_bool "mentions arity" true (Test_util.contains ~sub:"arity" msg)

let test_union () =
  let q =
    match
      Parser.parse_query
        "answer(X) :- edge(X,$t)\nanswer(X) :- edge($t,X)"
    with
    | Ok q -> q
    | Error e -> Alcotest.failf "parse union: %s" e
  in
  let r = Eval.tabulate_query (catalog ()) q in
  (* ($t,X) pairs reachable as (target,source) or (source,target). *)
  check_int "union dedups" 9 (R.cardinal r)

let test_duplicate_head_vars () =
  let r = tab (catalog ()) "answer(X,X) :- edge(X,X)" in
  check_bool "duplicated head column" true (R.mem r (Qf_relational.Tuple.of_array [| V.Int 4; V.Int 4 |]));
  check_bool "columns disambiguated" true
    (Qf_relational.Schema.columns (R.schema r) = [ "X"; "X_2" ])

let test_order_body_starts_small () =
  let cat = catalog () in
  let ordered =
    Eval.order_body cat
      (rule "answer(N) :- edge(X,Y) AND color(N,C) AND edge(N,X)")
  in
  match List.hd ordered with
  | Ast.Pos a ->
    Alcotest.(check string) "smallest relation first" "color" a.pred
  | _ -> Alcotest.fail "expected positive first"

(* The final body of [Apriori_gen.levelwise_basket ~k:2] on a catalog
   where [ok_1] is smaller than the per-item fan-out of [baskets]: the
   cheapest-estimate rule alone would place [ok_1($2)] as a cross product
   right after [ok_1($1)]. *)
let test_order_body_connected () =
  let cat = Catalog.create () in
  Catalog.add cat "baskets"
    (R.of_values [ "BID"; "Item" ]
       (List.concat_map
          (fun b -> List.map (fun i -> V.[ Int b; Int i ]) [ 1; 2; 3 ])
          (List.init 10 Fun.id)));
  Catalog.add cat "ok_1" (R.of_values [ "$1" ] V.[ [ Int 1 ]; [ Int 2 ] ]);
  let ordered =
    Eval.order_body cat
      (rule
         "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND \
          ok_1($1) AND ok_1($2)")
  in
  let keys (a : Ast.atom) =
    List.filter_map
      (function
        | (Ast.Var _ | Ast.Param _) as t -> Some (Ast.binding_key t)
        | Ast.Const _ -> None)
      a.args
  in
  let rec walk bound = function
    | [] -> ()
    | Ast.Pos a :: rest ->
      let connected b = List.exists (fun k -> List.mem k bound) (keys b) in
      if not (connected a) then
        List.iter
          (function
            | Ast.Pos b when connected b ->
              Alcotest.failf "%s placed while %s is connected"
                (Pretty.atom_to_string a) (Pretty.atom_to_string b)
            | _ -> ())
          rest;
      walk (keys a @ bound) rest
    | (Ast.Neg _ | Ast.Cmp _) :: rest -> walk bound rest
  in
  walk [] ordered;
  check_int "every literal placed" 5 (List.length ordered)

let test_envs_incremental_api () =
  let cat = catalog () in
  let envs = Eval.Envs.start () in
  check_int "start: one empty env" 1 (Eval.Envs.count envs);
  let envs =
    Eval.Envs.extend_pos cat envs
      { Ast.pred = "edge"; args = [ Ast.Var "X"; Ast.Var "Y" ] }
  in
  check_int "extended" 5 (Eval.Envs.count envs);
  let envs = Eval.Envs.filter_cmp envs (Ast.Var "X") Ast.Lt (Ast.Var "Y") in
  check_int "filtered" 4 (Eval.Envs.count envs);
  let keep = R.of_values [ "X" ] V.[ [ Int 1 ] ] in
  let envs = Eval.Envs.semijoin envs ~keys:[ "X" ] ~keep in
  check_int "semijoined" 2 (Eval.Envs.count envs);
  let rel = Eval.Envs.project envs ~keys:[ "Y" ] ~columns:[ "Y" ] in
  check_int "projected distinct" 2 (R.cardinal rel)

let suite =
  [
    Alcotest.test_case "single subgoal" `Quick test_single_subgoal;
    Alcotest.test_case "join two subgoals" `Quick test_join_two_subgoals;
    Alcotest.test_case "repeated variable in atom" `Quick
      test_repeated_variable_in_atom;
    Alcotest.test_case "constant in atom" `Quick test_constant_in_atom;
    Alcotest.test_case "negation" `Quick test_negation;
    Alcotest.test_case "negation after join" `Quick test_negation_joined;
    Alcotest.test_case "arithmetic subgoals" `Quick test_arithmetic;
    Alcotest.test_case "cross product" `Quick test_cross_product;
    Alcotest.test_case "head constants" `Quick test_head_constant;
    Alcotest.test_case "head constants with params" `Quick
      test_head_constant_with_params;
    Alcotest.test_case "parameter grouping" `Quick test_params_grouping;
    Alcotest.test_case "answers with bindings" `Quick test_answers_with_bindings;
    Alcotest.test_case "answers rejects unbound params" `Quick
      test_answers_unbound_param_rejected;
    Alcotest.test_case "unsafe rules rejected" `Quick test_unsafe_rejected;
    Alcotest.test_case "unknown predicate" `Quick test_unknown_predicate;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "union tabulation" `Quick test_union;
    Alcotest.test_case "duplicate head variables" `Quick test_duplicate_head_vars;
    Alcotest.test_case "join order heuristic" `Quick test_order_body_starts_small;
    Alcotest.test_case "join order stays connected" `Quick
      test_order_body_connected;
    Alcotest.test_case "incremental Envs API" `Quick test_envs_incremental_api;
  ]
