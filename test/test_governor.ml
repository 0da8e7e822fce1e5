(* The resource governor: byte-accounted budgets, deadlines, cooperative
   cancellation, spill-to-disk kernels — and the deterministic
   fault-injection sweep proving that a failure at *every* counted
   fault point yields either a typed error or the correct result, never
   corruption, a poisoned catalog, or a leaked temp file. *)

module R = Qf_relational.Relation
module Schema = Qf_relational.Schema
module Tuple = Qf_relational.Tuple
module Value = Qf_relational.Value
module Catalog = Qf_relational.Catalog
module Join = Qf_relational.Join
module Aggregate = Qf_relational.Aggregate
module Heap_file = Qf_relational.Heap_file
module Spill = Qf_relational.Spill
module Chunkrel = Qf_relational.Chunkrel
module Dict = Qf_relational.Dict
module Pool = Qf_exec_pool.Pool
module Governor = Qf_governor.Governor
module Fault = Qf_governor.Fault
open Qf_core
open Qf_testgen.Testgen

let with_pool_size size f =
  let saved_size = Pool.size (Pool.default ()) in
  Pool.set_default_size size;
  Fun.protect ~finally:(fun () -> Pool.set_default_size saved_size) f

(* Spill files of THIS process left behind anywhere under the temp dir:
   the hygiene invariant is that this list is empty after every governed
   run, including every faulted one. *)
let leaked_spill_files () =
  let prefix = "qf_spill." ^ string_of_int (Unix.getpid ()) ^ "." in
  let tmp = Filename.get_temp_dir_name () in
  match Sys.readdir tmp with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> String.starts_with ~prefix e)
    |> List.map (fun e -> Filename.concat tmp e)
  | exception Sys_error _ -> []

let assert_no_leaks context =
  match leaked_spill_files () with
  | [] -> ()
  | files ->
    (* Clean up so one failure does not cascade into every later case. *)
    List.iter
      (fun dir ->
        (try Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
         with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      files;
    Alcotest.failf "%s: leaked spill files: %s" context
      (String.concat ", " files)

(* {1 Unit tests: accounting, budget parsing, deadlines, cancellation} *)

let test_budget_of_string () =
  let check s expected =
    Alcotest.(check (option int))
      s expected (Governor.budget_of_string s)
  in
  check "4096" (Some 4096);
  check "64k" (Some 65536);
  check "64K" (Some 65536);
  check "2m" (Some (2 * 1024 * 1024));
  check "1g" (Some (1024 * 1024 * 1024));
  check "unbounded" (Some max_int);
  check "inf" (Some max_int);
  check "" None;
  check "k" None;
  check "-1" None;
  check "12x" None;
  check "lots" None;
  (* Decimal digits only: no base prefix, separator or sign. *)
  check "0x10k" None;
  check "1_0m" None;
  check "+4" None;
  (* Past [max_int]: rejected, never wrapped. *)
  check "4294967296g" None;
  check "9000000000g" None;
  check "99999999999999999999" None;
  check "4294967295g" (Some (4294967295 * 1024 * 1024 * 1024))

(* The catalog's cache budgets parse through the same function: a string
   [budget_of_string] rejects falls back to the default. *)
let test_catalog_budget_env () =
  let saved = Option.value ~default:"" (Sys.getenv_opt "QF_MEMO_BUDGET") in
  let memo_budget_under raw =
    Unix.putenv "QF_MEMO_BUDGET" raw;
    Catalog.memo_budget (Catalog.create ())
  in
  Fun.protect ~finally:(fun () -> Unix.putenv "QF_MEMO_BUDGET" saved)
  @@ fun () ->
  let default = memo_budget_under "" in
  Alcotest.(check int) "2k" 2048 (memo_budget_under "2k");
  Alcotest.(check int) "unbounded" max_int (memo_budget_under "unbounded");
  List.iter
    (fun raw -> Alcotest.(check int) raw default (memo_budget_under raw))
    [ "0x10k"; "1_0m"; "+4"; "9000000000g" ]

let test_charge_release_peak () =
  let g = Governor.create ~mem_budget:1000 () in
  Governor.charge g 400;
  Alcotest.(check int) "used" 400 (Governor.used g);
  Alcotest.(check bool) "fits" true (Governor.try_charge g 600);
  Alcotest.(check bool) "over" false (Governor.try_charge g 1);
  Alcotest.(check int) "used unchanged by failed charge" 1000
    (Governor.used g);
  Governor.release g 600;
  Governor.release g 400;
  Alcotest.(check int) "released" 0 (Governor.used g);
  Alcotest.(check int) "peak survives release" 1000
    (Governor.stats g).Governor.peak_bytes;
  match Governor.charge g 1001 with
  | () -> Alcotest.fail "charge over budget must raise"
  | exception Governor.Over_budget { requested; used; budget } ->
    Alcotest.(check int) "requested" 1001 requested;
    Alcotest.(check int) "used" 0 used;
    Alcotest.(check int) "budget" 1000 budget

let test_deadline () =
  let g = Governor.create ~timeout_s:0.000001 () in
  match
    Governor.with_ctx g (fun () ->
        Unix.sleepf 0.002;
        Governor.check ();
        "unreachable")
  with
  | _ -> Alcotest.fail "expired deadline must raise at the next check"
  | exception Governor.Deadline_exceeded { elapsed; timeout } ->
    Alcotest.(check bool) "elapsed past timeout" true (elapsed >= timeout)

let test_cancel () =
  let g = Governor.create () in
  match
    Governor.with_ctx g (fun () ->
        Governor.check ();
        Governor.cancel g;
        Governor.check ();
        "unreachable")
  with
  | _ -> Alcotest.fail "cancel must raise at the next check"
  | exception Governor.Cancelled -> ()

let test_ungoverned_check_is_noop () =
  Governor.check ();
  Alcotest.(check bool) "no ambient governor" true (Governor.current () = None)

(* {1 Spill kernels agree with the in-memory kernels} *)

let relation_of_rows columns rows =
  let rel = R.create (Schema.of_list columns) in
  List.iter
    (fun row ->
      R.add rel
        (Tuple.of_array (Array.of_list (List.map Value.str row))))
    rows;
  rel

let big_pair_relation n =
  relation_of_rows [ "B"; "I" ]
    (List.concat_map
       (fun b ->
         List.map
           (fun i ->
             [ Printf.sprintf "b%d" b; Printf.sprintf "i%d" ((b * 7 + i) mod 37) ])
           (List.init (1 + (b mod 5)) Fun.id))
       (List.init n Fun.id))

let test_spilled_join_agrees () =
  with_pool_size 1 @@ fun () ->
  let a = big_pair_relation 60 in
  let b = big_pair_relation 40 in
  let pairs = [ "I", "I" ] in
  let expected = Join.equi a b pairs in
  let g = Governor.create ~mem_budget:8192 () in
  let got = Governor.with_ctx g (fun () -> Join.equi a b pairs) in
  if not (R.equal expected got) then
    Alcotest.fail "spilled equi-join disagrees";
  Alcotest.(check bool) "join spilled" true
    ((Governor.stats g).Governor.spill_partitions > 0);
  assert_no_leaks "spilled join"

let test_spilled_group_by_agrees () =
  with_pool_size 1 @@ fun () ->
  let rel = big_pair_relation 80 in
  let sort = List.sort compare in
  let expected =
    sort (Aggregate.group_by rel ~keys:[ "I" ] ~func:Aggregate.Count)
  in
  let g = Governor.create ~mem_budget:8192 () in
  let got =
    Governor.with_ctx g (fun () ->
        sort (Aggregate.group_by rel ~keys:[ "I" ] ~func:Aggregate.Count))
  in
  if got <> expected then Alcotest.fail "spilled group-by disagrees";
  Alcotest.(check bool) "group-by spilled" true
    ((Governor.stats g).Governor.spill_partitions > 0);
  assert_no_leaks "spilled group-by"

let test_spilled_group_filter_agrees () =
  with_pool_size 1 @@ fun () ->
  let rel = big_pair_relation 80 in
  let expected =
    Aggregate.group_filter rel ~keys:[ "I" ] ~func:Aggregate.Count
      ~threshold:3.
  in
  let g = Governor.create ~mem_budget:8192 () in
  let got =
    Governor.with_ctx g (fun () ->
        Aggregate.group_filter rel ~keys:[ "I" ] ~func:Aggregate.Count
          ~threshold:3.)
  in
  if not (R.equal expected got) then
    Alcotest.fail "spilled group-filter disagrees";
  Alcotest.(check bool) "group-filter spilled" true
    ((Governor.stats g).Governor.spill_partitions > 0);
  assert_no_leaks "spilled group-filter"

(* {1 The spill-run format}

   A run stores dictionary codes.  Writing one and reading it back must
   give back exactly the rows scattered into it; the one partitioner must
   put every key in exactly one run; a corrupt run must fail with
   [Failure]; and an overflowing partition must split, unless it holds a
   single key. *)

(* [rows] distinct rows of [arity] columns: column 0 numbers the rows (so
   they are distinct), the others repeat values so keys collide. *)
let run_relation ~arity ~rows ~seed =
  let st = Random.State.make [| seed |] in
  let columns = List.init arity (Printf.sprintf "c%d") in
  let rel = R.create (Schema.of_list columns) in
  for i = 0 to rows - 1 do
    R.add rel
      (Tuple.of_array
         (Array.init arity (fun c ->
              if c = 0 then Value.Int i
              else if Random.State.bool st then
                Value.Int (Random.State.int st 7)
              else Value.str (Printf.sprintf "v%d" (Random.State.int st 5)))))
  done;
  rel

(* Run [f] on [rel]'s runs under a fresh unbounded governor, discarding
   the runs afterwards. *)
let with_runs rel ~positions ~parts f =
  let g = Governor.create () in
  Governor.with_ctx g @@ fun () ->
  let runs = Spill.partition_by_key g rel ~positions ~parts in
  Fun.protect ~finally:(fun () -> Array.iter Spill.discard runs) (fun () ->
      f runs)

(* Arity 0-4; 0 rows, exactly one page, or one page plus one row (an arity-0
   relation holds at most the empty row); 1-4 runs; any key columns. *)
let arb_run_case =
  QCheck.make
    ~print:(fun (arity, size, parts, mask, seed) ->
      Printf.sprintf "arity %d, size case %d, %d parts, key mask %d, seed %d"
        arity size parts mask seed)
    QCheck.Gen.(
      tup5 (int_range 0 4) (int_range 0 2) (int_range 1 4) (int_bound 15)
        (int_bound 10_000))

let run_case (arity, size, parts, mask, seed) =
  let page = Spill.rows_per_page arity in
  let rows = min (if arity = 0 then 1 else max_int) [| 0; page; page + 1 |].(size) in
  let positions =
    Array.of_list
      (List.filter (fun c -> mask land (1 lsl c) <> 0) (List.init arity Fun.id))
  in
  run_relation ~arity ~rows ~seed, positions, parts

let prop_run_round_trip =
  QCheck.Test.make ~count:60 ~name:"spill runs: to_relation (partition_by_key r) = r"
    arb_run_case (fun case ->
      let rel, positions, parts = run_case case in
      with_runs rel ~positions ~parts @@ fun runs ->
      let back = R.create (R.schema rel) in
      Array.iter (fun run -> R.iter (R.add back) (Spill.to_relation run)) runs;
      Array.fold_left (fun a r -> a + Spill.rows r) 0 runs = R.cardinal rel
      && R.equal back rel)

let prop_keys_in_one_run =
  QCheck.Test.make ~count:60 ~name:"spill runs: every key lands in exactly one run"
    arb_run_case (fun case ->
      let rel, positions, parts = run_case case in
      with_runs rel ~positions ~parts @@ fun runs ->
      let owner = Hashtbl.create 64 in
      Array.for_all Fun.id
        (Array.mapi
           (fun k run ->
             List.for_all
               (fun tup ->
                 let key = Tuple.project positions tup in
                 match Hashtbl.find_opt owner key with
                 | None ->
                   Hashtbl.add owner key k;
                   true
                 | Some k' -> k = k')
               (R.to_list (Spill.to_relation run)))
           runs))

(* One run of 3000 two-column rows spans six pages, so its first page has
   left the run's four-page cache and is read back from disk. *)
let test_corrupt_run () =
  let rel = run_relation ~arity:2 ~rows:3000 ~seed:5 in
  let corrupted name damage =
    with_runs rel ~positions:[| 0 |] ~parts:1 @@ fun runs ->
    damage (Spill.path runs.(0));
    match Spill.to_relation runs.(0) with
    | _ -> Alcotest.failf "%s: a corrupt run was read back" name
    | exception Failure _ -> ()
  in
  let poke ~off bytes path =
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.write_substring fd bytes 0 (String.length bytes))
  in
  corrupted "bad row count" (poke ~off:0 "\255\255");
  corrupted "short page" (poke ~off:0 "\001\000");
  corrupted "out-of-range code" (poke ~off:4 "\255\255\255\255");
  corrupted "truncated file" (fun path -> Unix.truncate path 4096);
  corrupted "empty file" (fun path -> Unix.truncate path 0);
  assert_no_leaks "corrupt runs"

(* Keys chosen so the one partitioner puts 300 of 2000 distinct keys into
   the first of the spill path's partitions: that partition's charge
   overflows the budget, so it must split rather than fail. *)
let test_skewed_partition_splits () =
  with_pool_size 1 @@ fun () ->
  let budget = 16384 and rows = 2000 and heavy = 300 in
  let g = Governor.create ~mem_budget:budget () in
  let need = 2 * R.bytes_for ~arity:2 ~rows in
  let parts = Spill.partition_count g ~need in
  let candidates = 20 * rows in
  let keys = Array.init candidates (fun i -> Value.str (Printf.sprintf "k%d" i)) in
  let codes = Array.map Dict.encode keys in
  let bufs = Chunkrel.scatter [| codes |] ~parts ~lo:0 ~hi:candidates in
  let in_first = Chunkrel.Buf.to_array bufs.(0) in
  let elsewhere =
    Array.concat
      (List.map Chunkrel.Buf.to_array (List.tl (Array.to_list bufs)))
  in
  let picked =
    Array.append (Array.sub in_first 0 heavy)
      (Array.sub elsewhere 0 (rows - heavy))
  in
  let rel = R.create (Schema.of_list [ "K"; "V" ]) in
  Array.iter (fun i -> R.add rel (Tuple.of_list [ keys.(i); Value.Int 1 ])) picked;
  let group () =
    List.sort compare (Aggregate.group_by rel ~keys:[ "K" ] ~func:Aggregate.Count)
  in
  let expected = group () in
  let got = Governor.with_ctx g group in
  if got <> expected then Alcotest.fail "split group-by disagrees";
  Alcotest.(check bool)
    "the overflowing partition split" true
    ((Governor.stats g).Governor.spill_partitions > parts);
  assert_no_leaks "skewed split"

(* A single key over budget: the first scatter puts every row in one
   partition, and since they share a key, the governor's typed error
   follows that one attempt with no further split. *)
let test_single_key_over_budget () =
  with_pool_size 1 @@ fun () ->
  let rel = R.create (Schema.of_list [ "K"; "V" ]) in
  for i = 0 to 999 do
    R.add rel (Tuple.of_list [ Value.str "hot"; Value.Int i ])
  done;
  let g = Governor.create ~mem_budget:16384 () in
  let parts = Spill.partition_count g ~need:(2 * R.approx_bytes rel) in
  (match
     Governor.with_ctx g (fun () ->
         Aggregate.group_by rel ~keys:[ "K" ] ~func:Aggregate.Count)
   with
  | _ -> Alcotest.fail "a single key over budget must raise Over_budget"
  | exception Governor.Over_budget _ -> ());
  Alcotest.(check int)
    "one scatter, no split" parts
    (Governor.stats g).Governor.spill_partitions;
  assert_no_leaks "single-key split"

(* Two heavy keys that the first scatter puts in one partition: every row
   lands there, yet they are two keys, so the partition splits again
   under a new salt instead of failing. *)
let test_colliding_keys_split () =
  with_pool_size 1 @@ fun () ->
  let per_key = 100 in
  let g = Governor.create ~mem_budget:16384 () in
  let need = 2 * R.bytes_for ~arity:2 ~rows:(2 * per_key) in
  let parts = Spill.partition_count g ~need in
  let keys = Array.init 64 (fun i -> Value.str (Printf.sprintf "h%d" i)) in
  let codes = Array.map Dict.encode keys in
  let bufs = Chunkrel.scatter [| codes |] ~parts ~lo:0 ~hi:(Array.length keys) in
  let shared =
    List.find (fun b -> Chunkrel.Buf.length b >= 2) (Array.to_list bufs)
  in
  let a = keys.(Chunkrel.Buf.get shared 0)
  and b = keys.(Chunkrel.Buf.get shared 1) in
  let rel = R.create (Schema.of_list [ "K"; "V" ]) in
  List.iter
    (fun k ->
      for i = 0 to per_key - 1 do
        R.add rel (Tuple.of_list [ k; Value.Int i ])
      done)
    [ a; b ];
  let group () =
    List.sort compare (Aggregate.group_by rel ~keys:[ "K" ] ~func:Aggregate.Count)
  in
  let expected = group () in
  let got = Governor.with_ctx g group in
  if got <> expected then Alcotest.fail "colliding keys: group-by disagrees";
  Alcotest.(check bool)
    "split after the first scatter" true
    ((Governor.stats g).Governor.spill_partitions > parts);
  assert_no_leaks "colliding keys"

(* {1 Executors under a tiny budget agree with ungoverned direct} *)

let tiny_budget = 4096

let run_governed g f = Governor.with_ctx g f

let test_executors_agree_under_tiny_budget () =
  with_pool_size 1 @@ fun () ->
  List.iter
    (fun seed ->
      let rel, threshold = instance ~seed gen_basket_instance in
      let cat = catalog_of rel in
      let flock = pair_flock threshold in
      let expected = Direct.run cat flock in
      let governed name f =
        let g = Governor.create ~mem_budget:tiny_budget () in
        let got = run_governed g f in
        if not (R.equal expected got) then
          Alcotest.failf "seed %d: governed %s disagrees with direct" seed
            name
      in
      governed "direct" (fun () -> Direct.run cat flock);
      governed "plan" (fun () ->
          Plan_exec.run cat (Optimizer.optimize cat flock));
      governed "dynamic" (fun () ->
          match Dynamic.run cat flock with
          | Ok r -> r.Dynamic.answers
          | Error e -> Alcotest.failf "seed %d: dynamic: %s" seed e);
      governed "naive" (fun () -> Naive.run cat flock))
    (List.init 10 (fun i -> i * 7));
  assert_no_leaks "tiny-budget executors"

let test_plan_deadline_interrupts () =
  with_pool_size 1 @@ fun () ->
  let rel, threshold = instance ~seed:3 gen_basket_instance in
  let cat = catalog_of rel in
  let flock = pair_flock threshold in
  let plan = Optimizer.optimize cat flock in
  let g = Governor.create ~timeout_s:1e-9 () in
  match Governor.with_ctx g (fun () -> Plan_exec.run cat plan) with
  | _ -> Alcotest.fail "plan under expired deadline must raise"
  | exception Governor.Deadline_exceeded _ -> ()

(* {1 The deterministic fault-injection sweep}

   Each scenario is a self-contained governed computation with a known
   expected answer.  [Fault.with_count] learns how many fault points the
   clean run crosses; the sweep then replays the scenario once per point
   with exactly that point armed.  Every replay must either produce the
   correct answer (the injection landed on a pass-through point, e.g. in
   a counting-only site) or raise a typed error — [Fault.Injected] or a
   governor fault — and must never leak a spill file or corrupt shared
   state (proven by a final clean re-run against the same catalog). *)

type scenario = {
  name : string;
  expected : check:bool -> unit;
      (* runs the computation; [check = true] compares against the known
         answer, [check = false] just exercises it *)
}

let mining_scenario name ~mode =
  let rel, threshold = instance ~seed:11 gen_basket_instance in
  let cat = catalog_of rel in
  let flock = pair_flock threshold in
  let expected = with_pool_size 1 (fun () -> Direct.run cat flock) in
  let run () =
    with_pool_size 1 @@ fun () ->
    (* Every replay executes the kernels: a memo hit from the previous
       replay would skip the spill path and every point on it. *)
    Catalog.memo_clear cat;
    let g = Governor.create ~mem_budget:tiny_budget () in
    Governor.with_ctx g @@ fun () ->
    match mode with
    | `Direct -> Direct.run cat flock
    | `Plan -> Plan_exec.run cat (Optimizer.optimize cat flock)
    | `Dynamic -> (
      match Dynamic.run cat flock with
      | Ok r -> r.Dynamic.answers
      | Error e -> failwith ("dynamic: " ^ e))
  in
  {
    name;
    expected =
      (fun ~check ->
        let got = run () in
        if check && not (R.equal expected got) then
          Alcotest.failf "%s: wrong result" name);
  }

(* Storage round-trip with a 2-page buffer pool: every append risks an
   eviction flush, so the [pager.write]/[pager.read]/[heap.append] points
   all fire many times. *)
let storage_scenario =
  let rel = big_pair_relation 60 in
  let run () =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qf_governor_hf.%d" (Unix.getpid ()))
    in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let hf = Heap_file.create ~capacity:2 path (R.schema rel) in
        let ok =
          try
            R.iter (Heap_file.append hf) rel;
            Heap_file.flush hf;
            true
          with e ->
            Heap_file.discard hf;
            raise e
        in
        ignore ok;
        let back = Heap_file.to_relation hf in
        Heap_file.close hf;
        back)
  in
  {
    name = "storage round-trip";
    expected =
      (fun ~check ->
        let got = run () in
        if check && not (R.equal rel got) then
          Alcotest.failf "storage round-trip: wrong result");
  }

let scenarios () =
  [
    mining_scenario "plan/tiny-budget" ~mode:`Plan;
    mining_scenario "direct/tiny-budget" ~mode:`Direct;
    mining_scenario "dynamic/tiny-budget" ~mode:`Dynamic;
    storage_scenario;
  ]

let typed_fault = function
  | Fault.Injected _ | Governor.Over_budget _ | Governor.Deadline_exceeded _
  | Governor.Cancelled ->
    true
  | _ -> false

(* The spill path's own points, which the plan scenario must reach: a
   sweep that stopped crossing one would stop testing its failure. *)
let spill_points = [ "spill.create"; "spill.append"; "pager.write"; "pager.read" ]

let test_fault_sweep () =
  let total_points = ref 0 in
  List.iter
    (fun s ->
      let injected = Hashtbl.create 16 in
      let (), points = Fault.with_count (fun () -> s.expected ~check:true) in
      assert_no_leaks (s.name ^ " (clean)");
      Alcotest.(check bool)
        (s.name ^ ": counted at least one fault point")
        true (points > 0);
      total_points := !total_points + points;
      for k = 1 to points do
        (match Fault.with_inject ~at:k (fun () -> s.expected ~check:true) with
        | Ok (), _ -> ()
        | Error (Fault.Injected { point; _ }), _ ->
          Hashtbl.replace injected point ()
        | Error e, _ when typed_fault e -> ()
        | Error e, _ ->
          Alcotest.failf "%s: injection at point %d leaked exception %s"
            s.name k (Printexc.to_string e));
        assert_no_leaks (Printf.sprintf "%s (inject %d)" s.name k)
      done;
      if s.name = "plan/tiny-budget" then
        List.iter
          (fun point ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: injected at %s" s.name point)
              true (Hashtbl.mem injected point))
          spill_points;
      (* The shared inputs survived every injection: a final clean run
         still produces the exact expected answer. *)
      s.expected ~check:true;
      assert_no_leaks (s.name ^ " (final)"))
    (scenarios ());
  (* The acceptance bar: the sweep must exercise a substantial number of
     distinct injection points across the scenarios. *)
  Alcotest.(check bool)
    (Printf.sprintf "swept >= 200 fault points (got %d)" !total_points)
    true
    (!total_points >= 200)

let suite =
  [
    Alcotest.test_case "budget_of_string" `Quick test_budget_of_string;
    Alcotest.test_case "catalog budgets use budget_of_string" `Quick
      test_catalog_budget_env;
    Alcotest.test_case "charge/release/peak accounting" `Quick
      test_charge_release_peak;
    Alcotest.test_case "deadline raises at the next check" `Quick
      test_deadline;
    Alcotest.test_case "cancel raises at the next check" `Quick test_cancel;
    Alcotest.test_case "ungoverned check is a no-op" `Quick
      test_ungoverned_check_is_noop;
    Alcotest.test_case "spilled equi-join = in-memory" `Quick
      test_spilled_join_agrees;
    Alcotest.test_case "spilled group-by = in-memory" `Quick
      test_spilled_group_by_agrees;
    Alcotest.test_case "spilled group-filter = in-memory" `Quick
      test_spilled_group_filter_agrees;
    QCheck_alcotest.to_alcotest prop_run_round_trip;
    QCheck_alcotest.to_alcotest prop_keys_in_one_run;
    Alcotest.test_case "a corrupt spill run raises Failure" `Quick
      test_corrupt_run;
    Alcotest.test_case "an overflowing partition of distinct keys splits" `Quick
      test_skewed_partition_splits;
    Alcotest.test_case "a single key over budget raises after one scatter"
      `Quick test_single_key_over_budget;
    Alcotest.test_case "two keys sharing a partition split under a new salt"
      `Quick test_colliding_keys_split;
    Alcotest.test_case "executors agree under a tiny budget" `Slow
      test_executors_agree_under_tiny_budget;
    Alcotest.test_case "plan execution honours the deadline" `Quick
      test_plan_deadline_interrupts;
    Alcotest.test_case "fault-injection sweep: typed errors only, no leaks"
      `Slow test_fault_sweep;
  ]
