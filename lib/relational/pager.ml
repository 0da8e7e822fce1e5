type entry = {
  frame : Bytes.t;
  mutable dirty : bool;
  mutable last_used : int;  (** logical clock for LRU *)
}

type t = {
  channel_in : in_channel;
  channel_out : out_channel;
  capacity : int;
  cache : (int, entry) Hashtbl.t;
  mutable pages : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let open_file ?(capacity = 64) path =
  if capacity < 1 then invalid_arg "Pager.open_file: capacity must be >= 1";
  (* Create the file if missing, then open separate read/write channels on
     it (OCaml's stdlib has no single read-write channel). *)
  if not (Sys.file_exists path) then begin
    let oc = open_out_bin path in
    close_out oc
  end;
  let channel_in = open_in_bin path in
  let channel_out = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  let file_len = in_channel_length channel_in in
  if file_len mod Page.size <> 0 then
    failwith (Printf.sprintf "Pager: %s is not page-aligned" path);
  {
    channel_in;
    channel_out;
    capacity;
    cache = Hashtbl.create capacity;
    pages = file_len / Page.size;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let page_count t = t.pages

let write_frame t id frame =
  (* Fault-injection site: a simulated device write error. *)
  Qf_governor.Fault.point "pager.write";
  seek_out t.channel_out (id * Page.size);
  output_bytes t.channel_out frame;
  (* Flush eagerly: the read channel is a separate descriptor on the same
     file, so buffered writes would be invisible to subsequent reads. *)
  Stdlib.flush t.channel_out

let evict_if_full t =
  if Hashtbl.length t.cache >= t.capacity then begin
    (* Evict the least recently used entry. *)
    let victim =
      Hashtbl.fold
        (fun id entry acc ->
          match acc with
          | Some (_, best) when best.last_used <= entry.last_used -> acc
          | _ -> Some (id, entry))
        t.cache None
    in
    match victim with
    | None -> ()
    | Some (id, entry) ->
      if entry.dirty then write_frame t id entry.frame;
      Hashtbl.remove t.cache id;
      t.evictions <- t.evictions + 1
  end

let touch t entry =
  t.clock <- t.clock + 1;
  entry.last_used <- t.clock

let read t id =
  if id < 0 || id >= t.pages then invalid_arg "Pager.read: page id out of range";
  match Hashtbl.find_opt t.cache id with
  | Some entry ->
    t.hits <- t.hits + 1;
    touch t entry;
    entry.frame
  | None ->
    (* Fault-injection site: a simulated device read error on a miss. *)
    Qf_governor.Fault.point "pager.read";
    t.misses <- t.misses + 1;
    evict_if_full t;
    seek_in t.channel_in (id * Page.size);
    let frame = Bytes.create Page.size in
    (try really_input t.channel_in frame 0 Page.size
     with End_of_file ->
       failwith (Printf.sprintf "Pager.read: page %d is past the end of file" id));
    let entry = { frame; dirty = false; last_used = 0 } in
    touch t entry;
    Hashtbl.replace t.cache id entry;
    entry.frame

let mark_dirty t id =
  match Hashtbl.find_opt t.cache id with
  | Some entry -> entry.dirty <- true
  | None -> invalid_arg "Pager.mark_dirty: page not cached"

let append t frame =
  if Bytes.length frame <> Page.size then
    invalid_arg "Pager.append: frame is not one page long";
  evict_if_full t;
  let id = t.pages in
  t.pages <- t.pages + 1;
  let entry = { frame; dirty = true; last_used = 0 } in
  touch t entry;
  Hashtbl.replace t.cache id entry;
  id

let stats t = t.hits, t.misses, t.evictions

let flush t =
  Hashtbl.iter
    (fun id entry ->
      if entry.dirty then begin
        write_frame t id entry.frame;
        entry.dirty <- false
      end)
    t.cache;
  Stdlib.flush t.channel_out

let evict_all t =
  flush t;
  t.evictions <- t.evictions + Hashtbl.length t.cache;
  Hashtbl.reset t.cache

let close t =
  flush t;
  close_in_noerr t.channel_in;
  close_out_noerr t.channel_out

let discard t =
  close_in_noerr t.channel_in;
  close_out_noerr t.channel_out
