(** A buffer pool over one page file.

    The pool caches raw {!Page.size}-byte frames with an LRU policy and
    knows nothing of their layout: heap files read them as slotted
    {!Page}s, spill runs as fixed-width code rows.  Writes mark the cached
    frame dirty and are flushed on eviction, {!flush}, or {!close}.  Page
    ids are 0-based file offsets in page units. *)

type t

(** Open (creating if absent) a page file.  [capacity] is the number of
    cached pages (default 64; at least 1). *)
val open_file : ?capacity:int -> string -> t

(** Number of pages currently in the file (including unflushed appended
    pages). *)
val page_count : t -> int

(** Fetch a page's frame (from cache or disk).  The frame is the cached
    buffer itself: mutate it, then {!mark_dirty}.  Raises
    [Invalid_argument] on an out-of-range id and [Failure] when the page
    lies past the end of a truncated file. *)
val read : t -> int -> Bytes.t

(** Mark a fetched page dirty so eviction/flush persists it.  The page must
    have come from {!read} or {!append}. *)
val mark_dirty : t -> int -> unit

(** [append t frame] adds a page holding [frame] (which becomes the cached
    buffer) and returns its id.  The page is dirty.  Raises
    [Invalid_argument] unless the frame is {!Page.size} bytes long. *)
val append : t -> Bytes.t -> int

(** Cache statistics: (hits, misses, evictions). *)
val stats : t -> int * int * int

val flush : t -> unit

(** Write every dirty page, then empty the cache: later reads come from
    disk. *)
val evict_all : t -> unit
val close : t -> unit

(** Close both channels {e without} flushing dirty pages — for files
    about to be deleted (spill runs), where flushing would only risk
    raising from a cleanup path. *)
val discard : t -> unit
