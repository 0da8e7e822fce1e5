(* A small state-machine CSV reader: handles quoted fields with embedded
   commas, doubled quotes, and newlines.  A line ends at [\n] or [\r\n]; a
   lone [\r] is data.  A leading UTF-8 byte-order mark is skipped.  Rows
   are value-string lists. *)
let parse_rows text =
  let rows = ref [] and fields = ref [] and buf = Buffer.create 32 in
  let push_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let push_row () =
    push_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let n = String.length text in
  let rec plain i =
    if i >= n then (if Buffer.length buf > 0 || !fields <> [] then push_row ())
    else
      match text.[i] with
      | ',' ->
        push_field ();
        plain (i + 1)
      | '\n' ->
        push_row ();
        plain (i + 1)
      | '\r' when i + 1 < n && text.[i + 1] = '\n' -> plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then failwith "Csv.parse: unterminated quoted field"
    else
      match text.[i] with
      | '"' when i + 1 < n && text.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain (if String.starts_with ~prefix:"\xEF\xBB\xBF" text then 3 else 0);
  List.rev !rows

let parse_string text =
  match parse_rows text with
  | [] -> failwith "Csv.parse: empty input (missing header)"
  | header :: rows ->
    let schema = Schema.of_list header in
    let rel = Relation.create schema in
    List.iteri
      (fun i row ->
        if List.length row <> Schema.arity schema then
          failwith
            (Printf.sprintf "Csv.parse: row %d has %d fields, expected %d"
               (i + 2) (List.length row) (Schema.arity schema));
        Relation.add rel (Tuple.of_list (List.map Value.of_string row)))
      rows;
    (* Load boundary: materialize the columnar snapshot now so the first
       kernel does not pay the conversion mid-query. *)
    Relation.prepare rel;
    rel

let escape_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

let field_of_value = function
  | Value.Int i -> string_of_int i
  | Value.Real f -> Printf.sprintf "%g" f
  | Value.Str s -> escape_field s

let to_string rel =
  let buf = Buffer.create 1024 in
  let add_row fields =
    Buffer.add_string buf (String.concat "," fields);
    Buffer.add_char buf '\n'
  in
  add_row (List.map escape_field (Schema.columns (Relation.schema rel)));
  List.iter
    (fun tup -> add_row (List.map field_of_value (Tuple.to_list tup)))
    (Relation.to_sorted_list rel);
  Buffer.contents buf

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

let save path rel =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string rel))
