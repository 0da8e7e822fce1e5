(* Tracing spans + metrics.  One global collector under a mutex; the
   current span is a per-domain stack (Domain.DLS), so instrumented code
   never threads a context value.  All entry points are gated on a single
   atomic flag: the disabled fast path is one load and a tail call. *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type span = {
  id : int;
  parent : int option;
  name : string;
  mutable attrs : (string * value) list;
  start_s : float;
  mutable stop_s : float;
}

type report = {
  spans : span list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

type sink = {
  on_span : span -> unit;
  on_report : report -> unit;
}

(* {1 State} *)

let truthy = function
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let enabled_flag = Atomic.make (truthy (Sys.getenv_opt "QF_PROFILE"))
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let mutex = Mutex.create ()
let next_id = ref 0
let finished : span list ref = ref []
let counters_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, float ref) Hashtbl.t = Hashtbl.create 32

(* Stack of open spans on this domain, innermost first. *)
let stack_key : span list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let silent = { on_span = ignore; on_report = ignore }
let current_sink = ref silent
let set_sink s = current_sink := s

let now = Unix.gettimeofday

(* {1 Spans} *)

let start_span ?(attrs = []) name =
  let parent =
    match Domain.DLS.get stack_key with
    | [] -> None
    | s :: _ -> Some s.id
  in
  Mutex.lock mutex;
  let id = !next_id in
  incr next_id;
  Mutex.unlock mutex;
  let s = { id; parent; name; attrs; start_s = now (); stop_s = neg_infinity } in
  Domain.DLS.set stack_key (s :: Domain.DLS.get stack_key);
  s

let finish_span s =
  s.stop_s <- now ();
  (match Domain.DLS.get stack_key with
  | top :: rest when top == s -> Domain.DLS.set stack_key rest
  | stack ->
    (* Out-of-order finish (an exception unwound through several spans):
       drop [s] wherever it sits. *)
    Domain.DLS.set stack_key (List.filter (fun x -> x != s) stack));
  Mutex.lock mutex;
  finished := s :: !finished;
  Mutex.unlock mutex;
  !current_sink.on_span s

let with_span ?attrs name f =
  if not (enabled ()) then f ()
  else begin
    let s = start_span ?attrs name in
    Fun.protect ~finally:(fun () -> finish_span s) f
  end

let set_attr key v =
  if enabled () then
    match Domain.DLS.get stack_key with
    | [] -> ()
    | s :: _ ->
      s.attrs <-
        (if List.mem_assoc key s.attrs then
           List.map (fun (k, old) -> if String.equal k key then k, v else k, old) s.attrs
         else s.attrs @ [ key, v ])

(* {1 Metrics} *)

let count name n =
  if enabled () then begin
    Mutex.lock mutex;
    (match Hashtbl.find_opt counters_tbl name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace counters_tbl name (ref n));
    Mutex.unlock mutex
  end

let gauge_update name f =
  Mutex.lock mutex;
  (match Hashtbl.find_opt gauges_tbl name with
  | Some r -> r := f (Some !r)
  | None -> Hashtbl.replace gauges_tbl name (ref (f None)));
  Mutex.unlock mutex

let gauge_set name v =
  if enabled () then gauge_update name (fun _ -> v)

let gauge_add name v =
  if enabled () then
    gauge_update name (function None -> v | Some old -> old +. v)

let gauge_max name v =
  if enabled () then
    gauge_update name (function None -> v | Some old -> Float.max old v)

(* {1 Reports} *)

let by_name (a, _) (b, _) = String.compare a b

let report () =
  Mutex.lock mutex;
  let spans = List.sort (fun a b -> Int.compare a.id b.id) !finished in
  let counters =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counters_tbl []
    |> List.sort by_name
  in
  let gauges =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) gauges_tbl []
    |> List.sort by_name
  in
  Mutex.unlock mutex;
  { spans; counters; gauges }

let reset () =
  Mutex.lock mutex;
  finished := [];
  next_id := 0;
  Hashtbl.reset counters_tbl;
  Hashtbl.reset gauges_tbl;
  Mutex.unlock mutex;
  Domain.DLS.set stack_key []

let flush () = !current_sink.on_report (report ())

(* {1 Rendering} *)

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let value_to_string = function
  | Int n -> string_of_int n
  | Float f -> float_str f
  | Str s -> s
  | Bool b -> string_of_bool b

let is_time_gauge name =
  (* Gauges carrying wall-clock fractions; redacted in stable output. *)
  let has_sub sub =
    let n = String.length name and m = String.length sub in
    let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
    go 0
  in
  has_sub "time" || has_sub "seconds"

let duration s = s.stop_s -. s.start_s

let render_text ?(redact_timings = false) r =
  let buf = Buffer.create 1024 in
  let children =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun s ->
        match s.parent with
        | Some p -> Hashtbl.replace tbl p (s :: Option.value (Hashtbl.find_opt tbl p) ~default:[])
        | None -> ())
      (List.rev r.spans);
    tbl
  in
  let rec emit depth s =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf s.name;
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf " %s=%s" k (value_to_string v)))
      s.attrs;
    Buffer.add_string buf
      (if redact_timings then " (-)"
       else Printf.sprintf " (%.6fs)" (duration s));
    Buffer.add_char buf '\n';
    List.iter (emit (depth + 1))
      (Hashtbl.find_opt children s.id |> Option.value ~default:[])
  in
  let roots = List.filter (fun s -> s.parent = None) r.spans in
  if roots <> [] then begin
    Buffer.add_string buf "spans:\n";
    List.iter (emit 1) roots
  end;
  if r.counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" k v))
      r.counters
  end;
  if r.gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s %s\n" k
             (if redact_timings && is_time_gauge k then "-" else float_str v)))
      r.gauges
  end;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let value_to_json = function
  | Int n -> string_of_int n
  | Float f ->
    if Float.is_finite f then float_str f
    else Printf.sprintf "%S" (Float.to_string f)
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> string_of_bool b

let span_to_json ?(redact_timings = false) s =
  let attrs =
    String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": %s" (json_escape k) (value_to_json v))
         s.attrs)
  in
  Printf.sprintf
    "{ \"id\": %d, \"parent\": %s, \"name\": \"%s\", \"attrs\": { %s }, \
     \"duration_s\": %s }"
    s.id
    (match s.parent with None -> "null" | Some p -> string_of_int p)
    (json_escape s.name) attrs
    (if redact_timings then "null" else Printf.sprintf "%.6f" (duration s))

let render_json ?(redact_timings = false) r =
  let spans =
    String.concat ",\n    " (List.map (span_to_json ~redact_timings) r.spans)
  in
  let counters =
    String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v)
         r.counters)
  in
  let gauges =
    String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": %s" (json_escape k)
             (if redact_timings && is_time_gauge k then "null" else float_str v))
         r.gauges)
  in
  Printf.sprintf
    "{\n  \"spans\": [\n    %s\n  ],\n  \"counters\": { %s },\n  \"gauges\": { %s }\n}\n"
    spans counters gauges

let text_tree ppf =
  {
    on_span = ignore;
    on_report =
      (fun r ->
        Format.fprintf ppf "%s@?" (render_text r));
  }

let json_lines oc =
  {
    on_span =
      (fun s ->
        output_string oc (span_to_json s);
        output_char oc '\n');
    on_report =
      (fun r ->
        List.iter
          (fun (k, v) ->
            Printf.fprintf oc
              "{ \"counter\": \"%s\", \"value\": %d }\n" (json_escape k) v)
          r.counters;
        List.iter
          (fun (k, v) ->
            Printf.fprintf oc
              "{ \"gauge\": \"%s\", \"value\": %s }\n" (json_escape k)
              (float_str v))
          r.gauges;
        Stdlib.flush oc);
  }
