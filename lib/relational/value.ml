type t =
  | Int of int
  | Str of string
  | Real of float

(* {1 String interning}

   String-keyed workloads (items, symptoms, words) compare the same small
   set of strings over and over in hash probes.  Interning maps every
   distinct string to one canonical copy so equality can try pointer
   comparison before falling back to [String.equal].  The table is guarded
   by a mutex so that interning stays safe from any domain; [equal]
   itself never touches the table, so the fast path stays lock-free.
   Interning is an optimization, not an invariant: [Str] values built
   without {!str} still compare correctly. *)

let intern_table : (string, string) Hashtbl.t = Hashtbl.create 1024
let intern_mutex = Mutex.create ()

let intern s =
  Mutex.lock intern_mutex;
  let canonical =
    match Hashtbl.find_opt intern_table s with
    | Some c -> c
    | None ->
      Hashtbl.add intern_table s s;
      s
  in
  Mutex.unlock intern_mutex;
  canonical

let str s = Str (intern s)
let interned_count () = Hashtbl.length intern_table

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y ->
    let c = Float.compare (float_of_int x) y in
    if c <> 0 then c else -1
  | Real x, Int y ->
    let c = Float.compare x (float_of_int y) in
    if c <> 0 then c else 1
  | (Int _ | Real _), Str _ -> -1
  | Str _, (Int _ | Real _) -> 1

let equal a b =
  a == b
  ||
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> x == y || String.equal x y
  | Real x, Real y -> Float.equal x y
  | _, _ -> false

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Str s -> Hashtbl.hash (1, s)
  | Real f -> Hashtbl.hash (2, f)

let to_float = function
  | Int x -> Some (float_of_int x)
  | Real f -> Some f
  | Str _ -> None

let is_numeric = function Int _ | Real _ -> true | Str _ -> false

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Str s -> Format.fprintf ppf "%S" s
  | Real f -> Format.fprintf ppf "%g" f

let to_string v = Format.asprintf "%a" pp v

let of_string s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then str (String.sub s 1 (n - 2))
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with Some f -> Real f | None -> str s)
