(** Reference interpreter for IR modules — the semantic oracle the test
    suite compares compiled machine code against. Not used for
    measurements (that is the cycle-accounting VM). *)

exception Trap of string

type state = {
  modul : Modul.t;
  mem : Bytes.t;
      (** backing store, zero-filled a page at a time on first access:
          read it through {!load} *)
  touched : Bytes.t;  (** one byte per 4 KiB page: zero-filled yet? *)
  sym_addr : (string, int64) Hashtbl.t;
  fn_addr : (int64, string) Hashtbl.t;
  host : (string, state -> int64 list -> int64) Hashtbl.t;
  mutable stack_top : int;
  mutable steps : int;
  max_steps : int;
}

(** Lay out globals and build an execution state. *)
val create : ?max_steps:int -> Modul.t -> state

(** Host functions receive the evaluated call arguments. *)
val register_host : state -> string -> (state -> int64 list -> int64) -> unit

val addr_of : state -> string -> int64

(** Typed little-endian memory access. @raise Trap out of bounds. *)
val load : state -> Types.ty -> int64 -> int64

val store : state -> Types.ty -> int64 -> int64 -> unit

(** Run a function with integer arguments. @raise Trap on faults. *)
val run : state -> string -> int64 list -> int64

(** Copy an input buffer into fresh memory; returns its address. *)
val alloc_input : state -> string -> int64
