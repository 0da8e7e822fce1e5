(* Tuples, schemas, relations, indexes: the storage layer. *)
open Qf_relational

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let t ints = Tuple.of_list (List.map (fun i -> Value.Int i) ints)

let test_tuple_compare () =
  check_int "equal" 0 (Tuple.compare (t [ 1; 2 ]) (t [ 1; 2 ]));
  check_bool "lex order" true (Tuple.compare (t [ 1; 2 ]) (t [ 1; 3 ]) < 0);
  check_bool "shorter first" true (Tuple.compare (t [ 1 ]) (t [ 1; 0 ]) < 0);
  check_bool "equal means hash equal" true
    (Tuple.hash (t [ 4; 5 ]) = Tuple.hash (t [ 4; 5 ]))

let test_tuple_project_append () =
  Alcotest.(check bool)
    "project reorders" true
    (Tuple.equal (Tuple.project [| 1; 0 |] (t [ 7; 8 ])) (t [ 8; 7 ]));
  Alcotest.(check bool)
    "append" true
    (Tuple.equal (Tuple.append (t [ 1 ]) (t [ 2; 3 ])) (t [ 1; 2; 3 ]));
  Alcotest.check_raises "project out of range"
    (Invalid_argument "index out of bounds")
    (fun () -> ignore (Tuple.project [| 5 |] (t [ 1 ])))

let test_schema_basics () =
  let s = Schema.of_list [ "A"; "B"; "C" ] in
  check_int "arity" 3 (Schema.arity s);
  check_int "position" 1 (Schema.position s "B");
  check_bool "mem" true (Schema.mem s "C");
  check_bool "not mem" false (Schema.mem s "Z");
  Alcotest.(check (option int)) "position_opt none" None (Schema.position_opt s "Z");
  check_bool "restrict keeps order given" true
    (Schema.equal (Schema.restrict s [ "C"; "A" ]) (Schema.of_list [ "C"; "A" ]))

let test_schema_duplicates () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.of_list: duplicate column \"A\"") (fun () ->
      ignore (Schema.of_list [ "A"; "A" ]));
  Alcotest.check_raises "append collision"
    (Invalid_argument "Schema.of_list: duplicate column \"B\"") (fun () ->
      ignore (Schema.append (Schema.of_list [ "A"; "B" ]) (Schema.of_list [ "B" ])))

let test_relation_set_semantics () =
  let r = Relation.create (Schema.of_list [ "X" ]) in
  Relation.add r (t [ 1 ]);
  Relation.add r (t [ 1 ]);
  Relation.add r (t [ 2 ]);
  check_int "duplicates ignored" 2 (Relation.cardinal r);
  check_bool "mem" true (Relation.mem r (t [ 1 ]));
  check_bool "not mem" false (Relation.mem r (t [ 3 ]))

let test_relation_arity_check () =
  let r = Relation.create (Schema.of_list [ "X"; "Y" ]) in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.add: arity mismatch (1 vs 2)") (fun () ->
      Relation.add r (t [ 1 ]))

let test_relation_project () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Int 10 ]; [ Int 2; Int 10 ]; [ Int 1; Int 20 ] ]
  in
  let p = Relation.project r [ "Y" ] in
  check_int "project dedups" 2 (Relation.cardinal p);
  check_bool "projected schema" true
    (Schema.equal (Relation.schema p) (Schema.of_list [ "Y" ]))

let test_relation_select_union_diff () =
  let r = Relation.of_values [ "X" ] Value.[ [ Int 1 ]; [ Int 2 ]; [ Int 3 ] ] in
  let s = Relation.of_values [ "X" ] Value.[ [ Int 2 ]; [ Int 4 ] ] in
  let even =
    Relation.select r (fun tup ->
        match Tuple.get tup 0 with Value.Int i -> i mod 2 = 0 | _ -> false)
  in
  check_int "select" 1 (Relation.cardinal even);
  check_int "union dedups" 4 (Relation.cardinal (Relation.union r s));
  check_int "diff" 2 (Relation.cardinal (Relation.diff r s));
  check_bool "diff keeps 1,3" true
    (Relation.equal (Relation.diff r s)
       (Relation.of_values [ "X" ] Value.[ [ Int 1 ]; [ Int 3 ] ]))

let test_relation_column_values () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Str "a" ]; [ Int 2; Str "a" ]; [ Int 1; Str "b" ] ]
  in
  check_int "distinct X" 2 (List.length (Relation.column_values r "X"));
  check_int "distinct Y" 2 (List.length (Relation.column_values r "Y"))

let test_relation_equal () =
  let a = Relation.of_values [ "X" ] Value.[ [ Int 1 ]; [ Int 2 ] ] in
  let b = Relation.of_values [ "Z" ] Value.[ [ Int 2 ]; [ Int 1 ] ] in
  check_bool "order-insensitive, schema-name-insensitive" true
    (Relation.equal a b);
  Relation.add b (t [ 3 ]);
  check_bool "cardinality differs" false (Relation.equal a b)

let test_index () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 30 ] ]
  in
  (* Rows whose key codes equal [key], by walking the key's bucket chain. *)
  let matches (idx : Index.t) key =
    let codes = Array.of_list (List.map (fun i -> Dict.encode (Value.Int i)) key) in
    let rec walk j n =
      if j < 0 then n
      else
        let hit = Array.for_all2 (fun col c -> col.(j) = c) idx.key_cols codes in
        walk idx.next.(j) (if hit then n + 1 else n)
    in
    walk idx.heads.(Chunkrel.hash_codes codes land idx.mask) 0
  in
  let idx = Index.build r [ 0 ] in
  check_int "key count" 2
    (Array.length (Chunkrel.distinct_rows idx.key_cols (Relation.cardinal r)));
  check_int "group size" 2 (matches idx [ 1 ]);
  check_bool "mem_codes agrees" true (Index.mem_codes idx [| Dict.encode (Value.Int 1) |]);
  check_int "missing key" 0 (matches idx [ 9 ]);
  check_bool "mem_codes on a missing key" false
    (Index.mem_codes idx [| Dict.encode (Value.Int 9) |]);
  (* Empty column list: everything shares the empty key (cross product). *)
  let all = Index.build r [] in
  check_int "empty key groups all" 3 (matches all [])

let test_statistics () =
  let r =
    Relation.of_values [ "X"; "Y" ]
      Value.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 30 ] ]
  in
  let s = Statistics.of_relation r in
  check_int "cardinality" 3 (Statistics.cardinality s);
  check_int "distinct X" 2 (Statistics.distinct s "X");
  check_int "distinct Y" 3 (Statistics.distinct s "Y");
  Alcotest.(check (float 0.001)) "tuples per X" 1.5 (Statistics.tuples_per_value s "X");
  Alcotest.(check (float 0.001))
    "join estimate |R join R on X|"
    4.5
    (Statistics.estimate_join s s [ "X", "X" ])

let test_statistics_frequencies () =
  let r =
    Relation.of_values [ "Item" ]
      Value.[ [ Int 1 ]; [ Int 2 ]; [ Int 3 ] ]
  in
  (* Duplicate rows collapse (set semantics), so build frequencies via a
     two-column relation where the first column varies. *)
  let r2 =
    Relation.of_values [ "BID"; "Item" ]
      Value.[
        [ Int 1; Int 7 ]; [ Int 2; Int 7 ]; [ Int 3; Int 7 ];
        [ Int 4; Int 8 ]; [ Int 5; Int 8 ];
        [ Int 6; Int 9 ];
      ]
  in
  let s = Statistics.of_relation r2 in
  Alcotest.(check (array int))
    "descending frequencies" [| 3; 2; 1 |]
    (Statistics.frequencies s "Item");
  check_int "count_at_least 1" 3 (Statistics.count_at_least s "Item" 1);
  check_int "count_at_least 2" 2 (Statistics.count_at_least s "Item" 2);
  check_int "count_at_least 3" 1 (Statistics.count_at_least s "Item" 3);
  check_int "count_at_least 4" 0 (Statistics.count_at_least s "Item" 4);
  let s1 = Statistics.of_relation r in
  check_int "all singletons" 3 (Statistics.count_at_least s1 "Item" 1);
  check_int "none at 2" 0 (Statistics.count_at_least s1 "Item" 2)

module R = Relation
module V = Value
module T = Tuple

(* {1 The catalog's index cache} *)

let fresh_rel () =
  R.of_values [ "X"; "Y" ]
    V.[ [ Int 1; Int 10 ]; [ Int 1; Int 20 ]; [ Int 2; Int 30 ] ]

let test_cache_counters () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  Catalog.reset_index_stats cat;
  let i1 = Catalog.index cat rel [ 0 ] in
  check_int "first build misses" 1 (snd (Catalog.index_stats cat));
  let i2 = Catalog.index cat rel [ 0 ] in
  Alcotest.(check (pair int int)) "second lookup hits" (1, 1)
    (Catalog.index_stats cat);
  check_bool "same index object reused" true (i1 == i2);
  (* A different position list is a different cache entry. *)
  ignore (Catalog.index cat rel [ 1 ]);
  Alcotest.(check (pair int int)) "new positions miss" (1, 2)
    (Catalog.index_stats cat)

let test_cache_invalidated_by_add () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  let v0 = R.version rel in
  let before = Catalog.index cat rel [ 0 ] in
  let has_9 idx = Index.mem_codes idx [| Qf_relational.Dict.encode (V.Int 9) |] in
  check_bool "stale key absent" false (has_9 before);
  R.add rel (T.of_list [ V.Int 9; V.Int 90 ]);
  check_bool "version bumped" true (R.version rel > v0);
  Catalog.reset_index_stats cat;
  let after = Catalog.index cat rel [ 0 ] in
  Alcotest.(check (pair int int)) "stale entry rebuilt as a miss" (0, 1)
    (Catalog.index_stats cat);
  check_bool "rebuilt index sees the new tuple" true (has_9 after);
  check_bool "the stale index still answers for its snapshot" false
    (has_9 before);
  (* Duplicate insertion does not invalidate. *)
  let v1 = R.version rel in
  R.add rel (T.of_list [ V.Int 9; V.Int 90 ]);
  check_int "duplicate add keeps the version" v1 (R.version rel);
  ignore (Catalog.index cat rel [ 0 ]);
  check_int "and still hits" 1 (fst (Catalog.index_stats cat))

let test_cache_shared_with_copy () =
  let cat = Catalog.create () in
  let rel = fresh_rel () in
  Catalog.add cat "r" rel;
  Catalog.reset_index_stats cat;
  ignore (Catalog.index_on cat rel [ "X" ]);
  let copy = Catalog.copy cat in
  ignore (Catalog.index_on copy rel [ "X" ]);
  check_int "copy reuses the base catalog's entries" 1
    (fst (Catalog.index_stats cat))

let test_plan_exec_cache_hits () =
  (* A multi-step plan must hit the cache: with the semijoin rewrite and
     symmetric-step aliasing disabled, the two FILTER steps and the final
     step all tabulate over the *same* base relation with the same join
     positions, so only the first step pays for the index build. *)
  let cat =
    Qf_workload.Market.catalog
      { Qf_workload.Market.default with n_baskets = 120; n_items = 40; seed = 5 }
  in
  let flock = Qf_core.Apriori_gen.basket_flock ~pred:"baskets" ~k:2 ~support:8 in
  let plan =
    match
      Qf_core.Apriori_gen.param_set_plan flock ~param_sets:[ [ "1" ]; [ "2" ] ]
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  Catalog.reset_index_stats cat;
  let options =
    {
      Qf_core.Plan_exec.semijoin_reduction = false;
      symmetric_reuse = false;
      memoize = false;
    }
  in
  ignore (Qf_core.Plan_exec.run ~options cat plan);
  let hits, misses = Catalog.index_stats cat in
  check_bool
    (Printf.sprintf "multi-step plan hits the index cache (%d/%d)" hits misses)
    true (hits > 0)

(* {1 Tuple and value kernels} *)

let test_tuple_hash_cached () =
  let a = T.of_list [ V.Int 1; V.str "x" ] in
  let b = T.of_list [ V.Int 1; V.str "x" ] in
  check_int "equal tuples, equal hashes" (T.hash a) (T.hash b);
  check_bool "equal" true (T.equal a b);
  let p = T.project [| 1 |] a in
  check_bool "projection re-hashes" true (T.equal p (T.of_list [ V.str "x" ]))

let test_value_interning () =
  let tag = "qf-intern-test-unique-string" in
  let c0 = V.interned_count () in
  let a = V.str tag in
  let c1 = V.interned_count () in
  let b = V.str tag in
  check_int "second str interns nothing new" c1 (V.interned_count ());
  check_bool "first str interned at most one" true (c1 <= c0 + 1);
  check_bool "interned values equal" true (V.equal a b)

let suite =
  [
    Alcotest.test_case "statistics frequencies" `Quick
      test_statistics_frequencies;
    Alcotest.test_case "tuple compare/hash" `Quick test_tuple_compare;
    Alcotest.test_case "tuple project/append" `Quick test_tuple_project_append;
    Alcotest.test_case "schema basics" `Quick test_schema_basics;
    Alcotest.test_case "schema duplicate detection" `Quick test_schema_duplicates;
    Alcotest.test_case "relation set semantics" `Quick test_relation_set_semantics;
    Alcotest.test_case "relation arity check" `Quick test_relation_arity_check;
    Alcotest.test_case "relation project dedups" `Quick test_relation_project;
    Alcotest.test_case "relation select/union/diff" `Quick
      test_relation_select_union_diff;
    Alcotest.test_case "relation column_values" `Quick test_relation_column_values;
    Alcotest.test_case "relation equal" `Quick test_relation_equal;
    Alcotest.test_case "hash index" `Quick test_index;
    Alcotest.test_case "statistics" `Quick test_statistics;
    Alcotest.test_case "index cache counters" `Quick test_cache_counters;
    Alcotest.test_case "index cache invalidation on add" `Quick
      test_cache_invalidated_by_add;
    Alcotest.test_case "index cache shared with copies" `Quick
      test_cache_shared_with_copy;
    Alcotest.test_case "plan execution hits the cache" `Quick
      test_plan_exec_cache_hits;
    Alcotest.test_case "tuple hash caching" `Quick test_tuple_hash_cached;
    Alcotest.test_case "value interning" `Quick test_value_interning;
  ]
