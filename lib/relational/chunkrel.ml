type t = {
  nrows : int;
  cols : int array array;
  mutable rows_cache : Tuple.t array option;
}

let of_tuples ~arity tuples =
  let n = Array.length tuples in
  let cols = Array.init arity (fun _ -> Array.make n 0) in
  Dict.with_encoder (fun encode ->
      for i = 0 to n - 1 do
        let tup = tuples.(i) in
        for c = 0 to arity - 1 do
          Array.unsafe_set (Array.unsafe_get cols c) i (encode (Tuple.get tup c))
        done
      done);
  { nrows = n; cols; rows_cache = Some tuples }

let tuple_at t i =
  let arity = Array.length t.cols in
  Tuple.of_array (Array.init arity (fun c -> Dict.decode t.cols.(c).(i)))

let rows t =
  match t.rows_cache with
  | Some r -> r
  | None ->
    let r = Array.init t.nrows (fun i -> tuple_at t i) in
    t.rows_cache <- Some r;
    r

(* {1 Hashing} — multiply/xor-shift combine over the key codes.

   Dictionary codes are small, dense integers, and every hash consumer
   masks down to the low bits of a power-of-two table, so the combine
   must avalanche into the low bits: fold the code in additively, spread
   it through the word with an odd multiplier, then fold the high half
   back down.  (A boost-style [h ^ (c + phi + shifts)] combine left the
   masked low bits so clustered that open-addressing grouping degenerated
   to thousands of probes per row on real workloads.) *)

let mix h c =
  let h = (h + c) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let hash_key key_cols i =
  let h = ref 17 in
  for k = 0 to Array.length key_cols - 1 do
    h := mix !h (Array.unsafe_get (Array.unsafe_get key_cols k) i)
  done;
  !h

let hash_codes codes =
  let h = ref 17 in
  for k = 0 to Array.length codes - 1 do
    h := mix !h (Array.unsafe_get codes k)
  done;
  !h

let hash_capacity n =
  let rec up c = if c >= n then c else up (c * 2) in
  up 16

(* {1 Row selection} *)

let gather_cols cols idxs =
  Array.map
    (fun col ->
      Array.init (Array.length idxs) (fun i ->
          Array.unsafe_get col (Array.unsafe_get idxs i)))
    cols

let gather t idxs =
  let rows_cache =
    match t.rows_cache with
    | Some r -> Some (Array.map (fun i -> r.(i)) idxs)
    | None -> None
  in
  { nrows = Array.length idxs; cols = gather_cols t.cols idxs; rows_cache }

let rows_equal cols i j =
  let rec loop c =
    c >= Array.length cols
    || Array.unsafe_get (Array.unsafe_get cols c) i
       = Array.unsafe_get (Array.unsafe_get cols c) j
       && loop (c + 1)
  in
  loop 0

(* Open-addressing dedup over code rows: slots hold a previously kept row
   index (or -1); linear probing. *)
let distinct_rows cols nrows =
  let cap = hash_capacity (2 * nrows) in
  let mask = cap - 1 in
  let slots = Array.make cap (-1) in
  let kept = Array.make nrows 0 in
  let k = ref 0 in
  for i = 0 to nrows - 1 do
    let h = ref (hash_key cols i land mask) in
    let stop = ref false in
    while not !stop do
      let j = Array.unsafe_get slots !h in
      if j = -1 then begin
        Array.unsafe_set slots !h i;
        kept.(!k) <- i;
        incr k;
        stop := true
      end
      else if rows_equal cols i j then stop := true
      else h := (!h + 1) land mask
    done
  done;
  Array.sub kept 0 !k

let concat ~arity chunks =
  {
    nrows = List.fold_left (fun a t -> a + t.nrows) 0 chunks;
    cols =
      Array.init arity (fun c ->
          Array.concat (List.map (fun t -> t.cols.(c)) chunks));
    rows_cache = None;
  }

(* {1 Growable int buffers} *)

module Buf = struct
  type buf = { mutable data : int array; mutable len : int }

  let create n = { data = Array.make (max 8 n) 0; len = 0 }

  let grow b needed =
    let cap = max needed (2 * Array.length b.data) in
    let data = Array.make cap 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data

  let push b x =
    if b.len = Array.length b.data then grow b (b.len + 1);
    Array.unsafe_set b.data b.len x;
    b.len <- b.len + 1

  let push2 b x y =
    if b.len + 2 > Array.length b.data then grow b (b.len + 2);
    Array.unsafe_set b.data b.len x;
    Array.unsafe_set b.data (b.len + 1) y;
    b.len <- b.len + 2

  let length b = b.len
  let get b i = b.data.(i)
  let to_array b = Array.sub b.data 0 b.len
end

(* {1 Partitioning} *)

(* [hash_key] folded from a salt-dependent seed: distinct keys that
   shared a partition get independent hashes under each new salt. *)
let salted_hash salt key_cols i =
  let h = ref (mix 17 salt) in
  for k = 0 to Array.length key_cols - 1 do
    h := mix !h (Array.unsafe_get (Array.unsafe_get key_cols k) i)
  done;
  !h

(* A partition is chosen by the hash's high half: each partition is then
   grouped, deduplicated or indexed in a power-of-two table slotted by the
   low bits of the same hash, and partitioning on those bits would leave
   every row of a partition (of an even count) competing for a fraction of
   the slots. *)
let scatter ?(salt = 0) key_cols ~parts ~lo ~hi =
  let bufs = Array.init parts (fun _ -> Buf.create (((hi - lo) / parts) + 8)) in
  for i = lo to hi - 1 do
    let h =
      if salt = 0 then hash_key key_cols i else salted_hash salt key_cols i
    in
    Buf.push (Array.unsafe_get bufs ((h lsr 32) mod parts)) i
  done;
  bufs
