(* A relation is an abstract handle over two representations of one
   tuple set:

   - [chunk]: the columnar snapshot every kernel reads — a {!Chunkrel.t}
     of dictionary-encoded code columns, tagged with the relation
     [version] it snapshots;
   - [table]: a hash set of {!Tuple.t}s, the insertion and membership
     structure behind the tuple-level API ([add], [mem]).

   At least one is always present.  [codes] and [ensure_table]
   materialize the missing one lazily; kernels producing columnar output
   construct chunk-only relations through [of_chunkrel] and never build
   the table unless someone asks for it.  Mutation ([add]) goes through
   the table and bumps [version], staling any cached chunk. *)

type t = {
  id : int;
  schema : Schema.t;
  mutable table : unit Tuple.Table.t option;
  mutable chunk : Chunkrel.t option;
  mutable chunk_version : int;
  mutable card : int;
  mutable version : int;
}

(* Identity for the catalog's index cache: ids are process-unique, and
   [version] bumps on every successful insertion, so (id, version) names
   one immutable snapshot of the tuple set. *)
let next_id = Atomic.make 0

let create schema =
  {
    id = Atomic.fetch_and_add next_id 1;
    schema;
    table = Some (Tuple.Table.create 64);
    chunk = None;
    chunk_version = 0;
    card = 0;
    version = 0;
  }

(* Internal constructor for kernel outputs whose rows are known distinct
   (selections, joins over set inputs, deduplicated projections). *)
let of_chunkrel schema (chunk : Chunkrel.t) =
  if Array.length chunk.Chunkrel.cols <> Schema.arity schema then
    invalid_arg "Relation.of_chunkrel: arity mismatch";
  {
    id = Atomic.fetch_and_add next_id 1;
    schema;
    table = None;
    chunk = Some chunk;
    chunk_version = 0;
    card = chunk.Chunkrel.nrows;
    version = 0;
  }

let id t = t.id
let version t = t.version
let schema t = t.schema
let arity t = Schema.arity t.schema
let cardinal t = t.card
let is_empty t = cardinal t = 0

let ensure_table t =
  match t.table with
  | Some tb -> tb
  | None ->
    let chunk = Option.get t.chunk in
    let tb = Tuple.Table.create (max 64 chunk.Chunkrel.nrows) in
    Array.iter (fun tup -> Tuple.Table.add tb tup ()) (Chunkrel.rows chunk);
    t.table <- Some tb;
    tb

(* The columnar snapshot of the current version, built from the row table
   on demand and cached until the next mutation. *)
let codes t =
  match t.chunk with
  | Some chunk when t.chunk_version = t.version -> chunk
  | _ ->
    let tb = ensure_table t in
    let n = Tuple.Table.length tb in
    let tuples = Array.make n (Tuple.of_array [||]) in
    let i = ref 0 in
    Tuple.Table.iter
      (fun tup () ->
        tuples.(!i) <- tup;
        incr i)
      tb;
    let chunk = Chunkrel.of_tuples ~arity:(arity t) tuples in
    t.chunk <- Some chunk;
    t.chunk_version <- t.version;
    chunk

let prepare t = ignore (codes t)

let add t tup =
  if Tuple.arity tup <> arity t then
    invalid_arg
      (Printf.sprintf "Relation.add: arity mismatch (%d vs %d)"
         (Tuple.arity tup) (arity t));
  let tb = ensure_table t in
  if not (Tuple.Table.mem tb tup) then begin
    Tuple.Table.add tb tup ();
    t.card <- t.card + 1;
    t.version <- t.version + 1
  end

(* Internal: insert a tuple known to be absent and of the right arity. *)
let unsafe_add_new t tup =
  let tb = ensure_table t in
  Tuple.Table.add tb tup ();
  t.card <- t.card + 1;
  t.version <- t.version + 1

let mem t tup = Tuple.Table.mem (ensure_table t) tup

let iter f t =
  match t.table with
  | Some tb -> Tuple.Table.iter (fun tup () -> f tup) tb
  | None -> Array.iter f (Chunkrel.rows (Option.get t.chunk))

let fold f t init =
  match t.table with
  | Some tb -> Tuple.Table.fold (fun tup () acc -> f tup acc) tb init
  | None ->
    Array.fold_left
      (fun acc tup -> f tup acc)
      init
      (Chunkrel.rows (Option.get t.chunk))

let to_list t = fold List.cons t []
let to_sorted_list t = List.sort Tuple.compare (to_list t)

let of_list schema tuples =
  let rel = create schema in
  List.iter (add rel) tuples;
  rel

let of_values columns rows =
  of_list (Schema.of_list columns) (List.map Tuple.of_list rows)

(* {1 Scan kernels}

   A vectorized loop collects surviving row *indices* into a pre-sized
   int buffer and gathers the output columns once.  Selection preserves
   distinctness, so no output hashing happens at all; projection
   deduplicates over code rows. *)

let select t pred =
  let chunk = codes t in
  let rows = Chunkrel.rows chunk in
  let n = chunk.Chunkrel.nrows in
  let buf = Chunkrel.Buf.create n in
  for i = 0 to n - 1 do
    if pred rows.(i) then Chunkrel.Buf.push buf i
  done;
  of_chunkrel t.schema (Chunkrel.gather chunk (Chunkrel.Buf.to_array buf))

let project t cols =
  let positions = Array.of_list (List.map (Schema.position t.schema) cols) in
  let chunk = codes t in
  let pcols = Array.map (fun p -> chunk.Chunkrel.cols.(p)) positions in
  let kept = Chunkrel.distinct_rows pcols chunk.Chunkrel.nrows in
  of_chunkrel
    (Schema.restrict t.schema cols)
    {
      Chunkrel.nrows = Array.length kept;
      cols = Chunkrel.gather_cols pcols kept;
      rows_cache = None;
    }

let union a b =
  if arity a <> arity b then invalid_arg "Relation.union: arity mismatch";
  let out = create a.schema in
  iter (add out) a;
  iter (add out) b;
  out

let diff a b =
  if arity a <> arity b then invalid_arg "Relation.diff: arity mismatch";
  let out = create a.schema in
  iter (fun tup -> if not (mem b tup) then unsafe_add_new out tup) a;
  out

(* Distinct codes of the column, decoded once each. *)
let column_values t col =
  let chunk = codes t in
  let col = chunk.Chunkrel.cols.(Schema.position t.schema col) in
  let kept = Chunkrel.distinct_rows [| col |] chunk.Chunkrel.nrows in
  Array.fold_left (fun acc i -> Dict.decode col.(i) :: acc) [] kept

(* Budget accounting for the catalog's LRU caches.  Deliberately a
   function of (cardinal, arity) only — never of which representations
   happen to be materialized — so cache eviction order, and therefore the
   memo.evict counters, do not depend on which kernels ran first. *)
let bytes_for ~arity ~rows = (16 * (arity + 2) * rows) + 256
let approx_bytes t = bytes_for ~arity:(arity t) ~rows:(cardinal t)

let equal a b =
  arity a = arity b
  && cardinal a = cardinal b
  && fold (fun tup ok -> ok && mem b tup) a true

let pp ppf t =
  Format.fprintf ppf "@[<v>%a: %d tuples@,%a@]" Schema.pp t.schema (cardinal t)
    (Format.pp_print_list Tuple.pp)
    (to_sorted_list t)
