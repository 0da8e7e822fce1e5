(* flockbench: the repository benchmark's per-process harness.

     flockbench.exe gen    --workload W --seed N --dir DIR [--smoke]
     flockbench.exe oracle --workload W --dir DIR [--smoke]
     flockbench.exe run    --workload W --dir DIR --expect D[,D...]
                           [--smoke] [--trace] [--prewarm]

   [gen] writes a workload's inputs (CSV files, plus the flock program
   where the workload has one) from a seed.  [oracle] prints the answer
   digest of every flock of the workload, computed with [Direct.run] (no
   a-priori steps, no SIP reducers, no memo).  [run] performs one mining
   run — flockc's call sequence, each layer timed from outside — checks
   the answer against the oracle digests and the did-work assertions, and
   prints one JSON object of metrics.  A process makes exactly one run:
   the dictionary, the catalog memo and the index cache are process-wide,
   so a second run in the same process would time warm caches.

   run.py, beside this file, drives the closed loop over processes. *)

module Catalog = Qf_relational.Catalog
module Relation = Qf_relational.Relation
module Csv = Qf_relational.Csv
module Layout = Qf_relational.Layout
module Governor = Qf_governor.Governor
module Obs = Qf_obs.Obs
module Pool = Qf_exec_pool.Pool
open Qf_core

(* {1 Workloads} *)

type workload = {
  name : string;
  files : string list;  (** input predicates, one CSV each *)
  levels : int list;  (** [] = parse program.flock; else levelwise k's *)
  mem_budget : string option;  (** governed execution under this budget *)
  memo_hits : int;  (** exact memo hits a cold run must show *)
}

let basket_config ~smoke ~seed =
  {
    Qf_workload.Market.n_baskets = (if smoke then 600 else 40_000);
    n_items = (if smoke then 120 else 4_000);
    avg_basket_size = 6;
    zipf_exponent = 1.0;
    seed;
  }

let levelwise_config ~smoke ~seed =
  {
    Qf_workload.Market.n_baskets = (if smoke then 600 else 12_000);
    n_items = (if smoke then 120 else 4_000);
    avg_basket_size = 6;
    zipf_exponent = 1.0;
    seed = seed + 7919;
  }

let medical_config ~smoke ~seed =
  {
    Qf_workload.Medical.default with
    n_patients = (if smoke then 500 else 27_000);
    diseases_per_patient = 2;
    seed;
  }

let pairs_support ~smoke = if smoke then 10 else 200
let levelwise_support ~smoke = if smoke then 8 else 60
let medical_support ~smoke = if smoke then 5 else 100

let pairs_program support =
  Printf.sprintf
    {|QUERY:
answer(B) :-
    baskets(B,$1) AND
    baskets(B,$2) AND
    $1 < $2

FILTER:
COUNT(answer.B) >= %d
|}
    support

(* data/multi_disease.flock with the support scaled to the input size. *)
let medical_program support =
  Printf.sprintf
    {|VIEWS:
explained(P,S) :-
    diagnoses(P,D) AND
    causes(D,S)

QUERY:
answer(P) :-
    exhibits(P,$s) AND
    treatments(P,$m) AND
    NOT explained(P,$s)

FILTER:
COUNT(answer.P) >= %d
|}
    support

let workload ~smoke = function
  | "basket_pairs" ->
    { name = "basket_pairs"; files = [ "baskets" ]; levels = [];
      mem_budget = None; memo_hits = 0 }
  | "basket_levelwise" ->
    { name = "basket_levelwise"; files = [ "baskets" ]; levels = [ 2; 3; 4 ];
      mem_budget = None; memo_hits = 5 }
  | "medical_views" ->
    { name = "medical_views";
      files = [ "diagnoses"; "exhibits"; "treatments"; "causes" ];
      levels = []; mem_budget = None; memo_hits = 0 }
  | "basket_pairs_spill" ->
    { name = "basket_pairs_spill"; files = [ "baskets" ]; levels = [];
      mem_budget = Some (if smoke then "48k" else "4m"); memo_hits = 0 }
  | w -> failwith ("unknown workload " ^ w)

(* {1 Helpers} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc text)

let ok_or_fail = function Ok v -> v | Error e -> failwith e

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Order-independent digest of a CSV rendering: header, then the rows
   sorted, so relations iterated in different orders digest equal. *)
let digest csv =
  match String.split_on_char '\n' csv |> List.filter (( <> ) "") with
  | [] -> Digest.to_hex (Digest.string "")
  | header :: rows ->
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (header :: List.sort String.compare rows)))

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> go ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  go ()

let csv_path dir p = Filename.concat dir (p ^ ".csv")

let load_catalog dir (w : workload) =
  let cat = Catalog.create () in
  List.iter (fun p -> Catalog.add cat p (Csv.load (csv_path dir p))) w.files;
  cat

(* {1 gen} *)

let gen ~smoke ~seed ~dir (w : workload) =
  let save p rel = Csv.save (csv_path dir p) rel in
  match w.name with
  | "basket_pairs" | "basket_pairs_spill" ->
    save "baskets" (Qf_workload.Market.relation (basket_config ~smoke ~seed));
    write_file
      (Filename.concat dir "program.flock")
      (pairs_program (pairs_support ~smoke))
  | "basket_levelwise" ->
    save "baskets" (Qf_workload.Market.relation (levelwise_config ~smoke ~seed))
  | _medical_views ->
    let { Qf_workload.Medical.catalog; _ } =
      Qf_workload.Medical.generate (medical_config ~smoke ~seed)
    in
    List.iter (fun p -> save p (Catalog.find catalog p)) w.files;
    write_file
      (Filename.concat dir "program.flock")
      (medical_program (medical_support ~smoke))

let read_program dir =
  ok_or_fail (Parse.program (read_file (Filename.concat dir "program.flock")))

let levelwise ~smoke k =
  Apriori_gen.levelwise_basket ~pred:"baskets" ~k
    ~support:(levelwise_support ~smoke)

(* {1 oracle} *)

let oracle ~smoke ~dir (w : workload) =
  let cat = load_catalog dir w in
  let answers =
    match w.levels with
    | [] ->
      let program = read_program dir in
      let work =
        if program.views = [] then cat
        else ok_or_fail (Views.materialize cat program.views)
      in
      [ Direct.run work program.flock ]
    | ks -> List.map (fun k -> Direct.run cat (fst (levelwise ~smoke k))) ks
  in
  List.iter (fun r -> print_endline (digest (Csv.to_string r))) answers

(* {1 run} *)

(* Every metric a run reports, in report order; all start at 0 and
   layers accumulate into them (the levelwise workload runs three plans). *)
let metric_names =
  [ "wall_s"; "setup_s"; "query_s"; "rows_per_s"; "peak_rss_mb";
    "csv.load_s"; "catalog.add_s"; "csv.rows"; "csv.bytes"; "csv.minor_mw";
    "parse.time_s"; "views.time_s"; "views.rows"; "statistics.time_s";
    "optimizer.time_s"; "optimizer.plans"; "optimizer.filter_steps";
    "optimizer.est_work";
    "plan_exec.time_s"; "plan_exec.aux_steps_s"; "plan_exec.final_step_s";
    "plan_exec.tabulated_rows"; "plan_exec.groups"; "plan_exec.survivors";
    "plan_exec.survival_ratio"; "plan_exec.minor_mw";
    "output.time_s"; "output.rows";
    "memo.hits"; "memo.misses"; "memo.hit_ratio"; "sip.rows_pruned";
    "index_cache.hits"; "index_cache.misses";
    "governor.peak_bytes"; "spill.partitions"; "spill.rows"; "spill.bytes";
    "spill.bytes_per_input_byte";
    "trace.plan.run.self_s"; "trace.filter.step.self_s";
    "trace.join.equi.self_s"; "trace.join.semi.self_s";
    "trace.join.anti.self_s"; "trace.aggregate.group_by.self_s";
    "trace.aggregate.group_filter.self_s"; "trace.other.self_s";
    "trace.join.equi.probe_rows"; "trace.join.equi.build_rows";
    "trace.pool.chunk.tasks";
    "unattributed_s" ]

(* The layer timers: consecutive, non-overlapping, and together the whole
   of [wall_s] but for [unattributed_s]. *)
let phases =
  [ "csv.load_s"; "catalog.add_s"; "parse.time_s"; "views.time_s";
    "statistics.time_s"; "optimizer.time_s"; "plan_exec.time_s";
    "output.time_s" ]

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let add name v = Hashtbl.replace metrics name (Hashtbl.find metrics name +. v)
let set name v = Hashtbl.replace metrics name v
let get name = Hashtbl.find metrics name
let now = Unix.gettimeofday

let layer name f =
  let t0 = now () in
  let r = f () in
  add name (now () -. t0);
  r

let minor_mw f =
  let w0 = Gc.minor_words () in
  let r = f () in
  r, (Gc.minor_words () -. w0) /. 1e6

(* Run a plan and render its answer: the plan_exec and output layers.
   Returns the CSV text, checked against the oracle by the caller. *)
let execute ?governor work plan =
  let (report : Plan_exec.report), mw =
    layer "plan_exec.time_s" @@ fun () ->
    minor_mw @@ fun () ->
    match governor with
    | None -> Plan_exec.run_with_report work plan
    | Some g ->
      Governor.with_ctx g (fun () -> Plan_exec.run_with_report work plan)
  in
  add "plan_exec.minor_mw" mw;
  let final = List.nth report.steps (List.length report.steps - 1) in
  List.iter
    (fun (s : Plan_exec.step_report) ->
      if s != final then add "plan_exec.aux_steps_s" s.seconds;
      add "sip.rows_pruned" (float_of_int s.sip_pruned))
    report.steps;
  add "plan_exec.final_step_s" final.seconds;
  add "plan_exec.tabulated_rows" (float_of_int final.tabulated_rows);
  add "plan_exec.groups" (float_of_int final.groups);
  add "plan_exec.survivors" (float_of_int final.survivors);
  if final.tabulated_rows <= 0 then
    failwith "did-work: the final step tabulated no rows";
  let csv = layer "output.time_s" (fun () -> Csv.to_string report.result) in
  add "output.rows" (float_of_int (Relation.cardinal report.result));
  csv

(* Statistics for every relation the optimizer can see, forced here so
   the optimizer layer times plan search alone. *)
let force_statistics cat =
  layer "statistics.time_s" @@ fun () ->
  List.iter (fun p -> ignore (Catalog.stats cat p)) (Catalog.names cat)

(* Everything after set-up: parse → views → statistics → optimizer →
   plan_exec → output, once per flock of the workload. *)
let mine ~smoke ~dir ?governor (w : workload) cat =
  match w.levels with
  | [] ->
    let program = layer "parse.time_s" (fun () -> read_program dir) in
    let work =
      layer "views.time_s" @@ fun () ->
      if program.views = [] then cat
      else ok_or_fail (Views.materialize cat program.views)
    in
    List.iter
      (fun p ->
        if not (Catalog.mem cat p) then
          add "views.rows"
            (float_of_int (Relation.cardinal (Catalog.find work p))))
      (Catalog.names work);
    force_statistics work;
    let choices =
      layer "optimizer.time_s" (fun () ->
          Optimizer.enumerate work program.flock)
    in
    let best = List.hd choices in
    set "optimizer.plans" (float_of_int (List.length choices));
    set "optimizer.filter_steps"
      (float_of_int (Plan.filter_step_count best.plan));
    set "optimizer.est_work" best.cost;
    [ execute ?governor work best.plan ]
  | ks ->
    force_statistics cat;
    List.map
      (fun k ->
        let plan, est =
          layer "optimizer.time_s" @@ fun () ->
          let _, plan = levelwise ~smoke k in
          plan, Cost.estimate_plan (Cost.of_catalog cat) plan
        in
        add "optimizer.plans" 1.;
        add "optimizer.filter_steps"
          (float_of_int (Plan.filter_step_count plan));
        add "optimizer.est_work" est;
        execute ?governor cat plan)
      ks

(* Kernel self times from the spans nested under [plan.run]: a span's
   duration minus the time its children cover. *)
let traced_spans =
  [ "plan.run"; "filter.step"; "join.equi"; "join.semi"; "join.anti";
    "aggregate.group_by"; "aggregate.group_filter" ]

let record_trace () =
  let r = Obs.report () in
  let dur (s : Obs.span) = s.stop_s -. s.start_s in
  let under = Hashtbl.create 256 and covered = Hashtbl.create 256 in
  List.iter
    (fun (s : Obs.span) ->
      let inside =
        s.name = "plan.run"
        || Option.fold ~none:false ~some:(Hashtbl.find under) s.parent
      in
      Hashtbl.replace under s.id inside;
      Option.iter
        (fun p ->
          let c = Option.value ~default:0. (Hashtbl.find_opt covered p) in
          Hashtbl.replace covered p (c +. dur s))
        s.parent)
    r.spans;
  List.iter
    (fun (s : Obs.span) ->
      if Hashtbl.find under s.id then begin
        let self =
          dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
        in
        if List.mem s.name traced_spans then
          add ("trace." ^ s.name ^ ".self_s") self
        else add "trace.other.self_s" self;
        if s.name = "join.equi" then
          List.iter
            (function
              | ("probe_rows" | "build_rows") as k, Obs.Int n ->
                add ("trace.join.equi." ^ k) (float_of_int n)
              | _ -> ())
            s.attrs
      end)
    r.spans;
  Option.iter
    (fun n -> set "trace.pool.chunk.tasks" (float_of_int n))
    (List.assoc_opt "pool.chunk.tasks" r.counters)

let run ~smoke ~dir ~expect ~trace ~prewarm (w : workload) =
  List.iter (fun n -> Hashtbl.replace metrics n 0.) metric_names;
  Obs.set_enabled trace;
  Obs.reset ();
  let governor =
    Option.map
      (fun b ->
        Governor.create
          ~mem_budget:(Option.get (Governor.budget_of_string b))
          ())
      w.mem_budget
  in
  List.iter
    (fun p ->
      add "csv.bytes" (float_of_int (Unix.stat (csv_path dir p)).st_size))
    w.files;
  let t0 = now () in
  let cat = Catalog.create () in
  List.iter
    (fun p ->
      let rel, mw =
        layer "csv.load_s" (fun () ->
            minor_mw (fun () -> Csv.load (csv_path dir p)))
      in
      layer "catalog.add_s" (fun () -> Catalog.add cat p rel);
      add "csv.minor_mw" mw;
      add "csv.rows" (float_of_int (Relation.cardinal rel)))
    w.files;
  let t_setup = now () in
  if prewarm then begin
    (* Smoke-test hook: fill the memo with a first run whose figures are
       thrown away, so the did-work guard must reject the second. *)
    let saved = Hashtbl.copy metrics in
    ignore (mine ~smoke ~dir ?governor w cat);
    Hashtbl.reset metrics;
    Hashtbl.iter (Hashtbl.replace metrics) saved
  end;
  let outputs = mine ~smoke ~dir ?governor w cat in
  let t_end = now () in
  let wall = t_end -. t0 in
  set "wall_s" wall;
  set "setup_s" (t_setup -. t0);
  set "query_s" (t_end -. t_setup);
  set "rows_per_s" (get "csv.rows" /. wall);
  set "peak_rss_mb" (float_of_int (peak_rss_kb ()) /. 1024.);
  set "unattributed_s"
    (wall -. List.fold_left (fun acc p -> acc +. get p) 0. phases);
  let ratio a b = if b = 0. then 0. else a /. b in
  set "plan_exec.survival_ratio"
    (ratio (get "plan_exec.survivors") (get "plan_exec.groups"));
  let hits, misses, _ = Catalog.memo_stats cat in
  set "memo.hits" (float_of_int hits);
  set "memo.misses" (float_of_int misses);
  set "memo.hit_ratio"
    (ratio (float_of_int hits) (float_of_int (hits + misses)));
  let ihits, imisses = Catalog.index_stats cat in
  set "index_cache.hits" (float_of_int ihits);
  set "index_cache.misses" (float_of_int imisses);
  Option.iter
    (fun g ->
      let s = Governor.stats g in
      set "governor.peak_bytes" (float_of_int s.peak_bytes);
      set "spill.partitions" (float_of_int s.spill_partitions);
      set "spill.rows" (float_of_int s.spilled_rows);
      set "spill.bytes" (float_of_int s.spilled_bytes);
      set "spill.bytes_per_input_byte"
        (ratio (float_of_int s.spilled_bytes) (get "csv.bytes")))
    governor;
  if trace then record_trace ();
  (* Did-work assertions: counters that repeat exactly on a cold run. *)
  if hits <> w.memo_hits then
    failwith
      (Printf.sprintf "did-work: %d memo hits, expected %d" hits w.memo_hits);
  let spilled = get "spill.partitions" > 0. in
  if spilled <> (governor <> None) then
    failwith
      (Printf.sprintf "did-work: %g spill partitions on a %s run"
         (get "spill.partitions")
         (if governor = None then "unbudgeted" else "budgeted"));
  let got = List.map digest outputs in
  if got <> expect then
    failwith
      (Printf.sprintf "answer digests %s differ from the oracle's %s"
         (String.concat "," got) (String.concat "," expect));
  let stamp =
    [ "ocaml", Sys.ocaml_version;
      "pool_size", string_of_int (Pool.size (Pool.default ()));
      "par_threshold", string_of_int (Pool.par_threshold ());
      "layout", Layout.to_string (Layout.mode ());
      "memo_budget", string_of_int (Catalog.memo_budget cat);
      "index_budget",
      Option.value ~default:"default" (Sys.getenv_opt "QF_INDEX_BUDGET");
      "mem_budget", Option.value ~default:"unbounded" w.mem_budget ]
  in
  Printf.printf "{\"ok\": true, \"metrics\": {%s}, \"stamp\": {%s}}\n"
    (String.concat ", "
       (List.map
          (fun n -> Printf.sprintf "%s: %.17g" (json_string n) (get n))
          metric_names))
    (String.concat ", "
       (List.map
          (fun (k, v) -> json_string k ^ ": " ^ json_string v)
          stamp))

(* {1 Command line} *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload_name = ref "" and seed = ref 0 and dir = ref "" in
  let expect = ref "" and smoke = ref false in
  let trace = ref false and prewarm = ref false in
  let specs =
    [ "--workload", Arg.Set_string workload_name, "NAME workload";
      "--seed", Arg.Set_int seed, "N input seed (gen)";
      "--dir", Arg.Set_string dir, "DIR input directory";
      "--expect", Arg.Set_string expect, "D,... oracle digests (run)";
      "--smoke", Arg.Set smoke, " tiny inputs";
      "--trace", Arg.Set trace, " enable Obs spans (run)";
      "--prewarm", Arg.Set prewarm, " warm the memo before the run (run)" ]
  in
  let usage = "flockbench.exe (gen|oracle|run) --workload NAME --dir DIR ..." in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let smoke = !smoke and dir = !dir in
  match
    let w = workload ~smoke !workload_name in
    match cmd with
    | "gen" -> gen ~smoke ~seed:!seed ~dir w
    | "oracle" -> oracle ~smoke ~dir w
    | "run" ->
      run ~smoke ~dir
        ~expect:(String.split_on_char ',' !expect)
        ~trace:!trace ~prewarm:!prewarm w
    | _ ->
      prerr_endline usage;
      exit 2
  with
  | () -> ()
  | exception e ->
    Printf.printf "{\"ok\": false, \"error\": %s}\n"
      (json_string (Printexc.to_string e));
    exit 1
