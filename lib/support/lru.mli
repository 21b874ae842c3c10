(** A small string-keyed LRU map.

    Recency is tracked with a monotonically increasing tick per access;
    eviction scans for the minimum tick, which is O(n) but fine for the
    few-hundred-entry object caches this backs. Not thread-safe; callers
    serialize access (the session guards it with a mutex). *)

type 'a t

(** [create capacity] — capacity is clamped to at least 1. *)
val create : int -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int

(** Look up [key]; a hit refreshes its recency. *)
val find : 'a t -> string -> 'a option

(** Look up [key] without refreshing its recency: a pure read, safe
    from several domains while nobody writes. *)
val peek : 'a t -> string -> 'a option

(** Insert or overwrite [key]; evicts the least-recently-used entry
    when over capacity. *)
val add : 'a t -> string -> 'a -> unit

(** Total number of evictions since [create]. *)
val evictions : 'a t -> int

val clear : 'a t -> unit
