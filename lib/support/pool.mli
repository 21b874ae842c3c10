(** A fixed-size domain pool for embarrassingly parallel compile jobs.

    The pool is deliberately dependency-free (no domainslib): a plain
    Mutex/Condition job queue drained by [size - 1] worker domains plus
    the calling domain itself. Pool size 1 spawns no domains at all and
    runs jobs inline — byte-for-byte the serial path. *)

type t

(** The inline, no-domain pool. [map serial f xs] == [List.map f xs]. *)
val serial : t

(** [create ?size ()] spawns a pool. [size] defaults to [default_size ()]
    and is clamped to at least 1. *)
val create : ?size:int -> unit -> t

(** Number of concurrent executors (workers + the calling domain). *)
val size : t -> int

(** Pool size implied by the environment: [ODIN_JOBS] if set to a
    positive integer, capped at 64; else (unset, non-positive or
    unparsable) [Domain.recommended_domain_count ()] capped at 8
    (fragment compiles are small; more domains just burn memory). *)
val default_size : unit -> int

(** A lazily created process-wide pool of [default_size ()] executors.
    Shared by every session that does not pass an explicit pool. *)
val default : unit -> t

(** [map t f xs] applies [f] to every element, possibly concurrently,
    and returns results in input order. If any job raises, the first
    exception in input order is re-raised in the caller (with its
    backtrace) after all jobs of the batch have finished. Calls from
    inside a pool worker degrade to serial [List.map] (no deadlock). *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Ask the workers to exit and join them. The pool must not be used
    afterwards. No-op on [serial] and on already-shut-down pools. *)
val shutdown : t -> unit
