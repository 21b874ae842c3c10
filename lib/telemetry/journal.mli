(** Campaign flight recorder: bounded crash-safe JSONL event journal.
    Recorded events live in a fixed-size window (oldest dropped, drop
    count preserved); {!flush} publishes the window atomically at sync
    barriers; {!load} recovers from truncated files by skipping and
    counting bad lines. *)

val format_version : int

type event = {
  e_seq : int;  (** global, monotonic — gaps reveal the dropped prefix *)
  e_ts : float;
  e_kind : string;
  e_fields : (string * Json.t) list;
}

type t

(** [limit] bounds retained events (default 8192, min 1). *)
val create : ?limit:int -> ?clock:Clock.t -> unit -> t

(** Append an event (thread-safe); oldest dropped beyond the limit. *)
val record : t -> kind:string -> (string * Json.t) list -> unit

val length : t -> int
val dropped : t -> int

(** Retained events, oldest first. *)
val events : t -> event list

(** The full JSONL document: header line + one line per event. *)
val render : t -> string

(** Atomically publish the window to [path]. Raises [Sys_error] on I/O
    failure. *)
val flush : t -> string -> unit

(** A campaign's journal: [journal] if given, else a fresh one on
    [clock] when [path] is set, else none — paired with the flush to
    [path] (a no-op without one) the campaign calls at each barrier. *)
val for_campaign :
  ?journal:t -> ?path:string -> clock:Clock.t -> unit -> t option * (unit -> unit)

type loaded = {
  l_events : event list;
  l_dropped : int;  (** from the header *)
  l_skipped : int;  (** unparseable lines — truncation recovery *)
}

(** Never fails on corrupt content, only on an unopenable file
    ([Sys_error]). *)
val load : string -> loaded

val field : event -> string -> Json.t option
val field_int : event -> string -> int option
val field_float : event -> string -> float option
val field_str : event -> string -> string option
