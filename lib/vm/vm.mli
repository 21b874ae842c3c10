(** Execution engine: runs linked machine code with per-instruction cycle
    accounting. Every "execution duration" in the reproduced figures is a
    cycle count from this VM, so results are deterministic and
    hardware-independent while preserving relative costs.

    The block-entry hook is how the dynamic-binary-instrumentation
    baselines (DrCov, libInst) charge translation/dispatch/trampoline
    costs without modifying the code.

    A VM is meant to be reused: create one per worker and {!reset} it
    before each execution (AFL's persistent mode). Guest memory is
    zero-filled one 4 KiB page at a time, on first access, so an
    execution pays for the pages it touches and neither {!create} nor
    {!reset} pays for the whole address space. *)

exception Fault of string

(** One inline-counter site's attribution: executed increments at one
    data address and their cycle cost (see {!profile_inc_sites}). *)
type inc_site = {
  mutable is_hits : int;
  mutable is_cycles : int;
}

(** Optional execution profile: per-function cycle attribution plus
    block/probe/call hit counts. Pure observation — enabling it never
    changes [cycles], [steps] or results. *)
type profile = {
  mutable pr_block_hits : int;  (** basic-block entries *)
  mutable pr_probe_hits : int;  (** inline counter increments executed *)
  mutable pr_calls : int;  (** guest-to-guest calls dispatched *)
  mutable pr_host_calls : int;  (** host function calls *)
  pr_fn_cycles : (string, int ref) Hashtbl.t;
  pr_fn_blocks : (string, int ref) Hashtbl.t;
  pr_inc_sites : (int, inc_site) Hashtbl.t;
      (** per-counter-address attribution (address -> hits, cycles) *)
}

(** Stack map captured at an OSR point: the live execution state the
    migration carried across images. Registers and the stack transfer
    verbatim (both tiers share the machine's calling convention and the
    guest's memory layout); frames below the OSR point keep draining on
    their retained old code. *)
type stack_map = {
  sm_fn : string;  (** function dispatched first on the new image *)
  sm_depth : int;  (** live frames retained on the old code *)
  sm_sp : int64;  (** stack pointer, transferred verbatim *)
  sm_regs : int64 array;  (** register file at the OSR point *)
}

type t = {
  mutable exe : Link.Linker.exe;
      (** swapped in place by an OSR migration; frames already on the
          stack keep direct references to their old code *)
  mem : Bytes.t;
      (** backing store of guest memory: a page's bytes mean something
          only once it is [touched]. Access memory through {!load_mem},
          {!store_mem}, {!write_buffer} and {!memory} *)
  touched : Bytes.t;
      (** one byte per 4 KiB page: zero-filled since the last reset *)
  regs : Bytes.t;
      (** 16 unboxed 64-bit registers, native byte order; read them
          with {!reg}. r0 = return value *)
  mutable cycles : int;
  mutable steps : int;
  max_steps : int;
  mutable budget_hit : bool;
      (** the last {!Fault} was step-budget exhaustion (see
          {!budget_exhausted}) *)
  host : (string, t -> int64) Hashtbl.t;
  mutable host_cost : int;  (** cycles charged per host call *)
  mutable block_hook : (t -> string -> int -> unit) option;
  mutable stack_base : int;
  mutable prof : profile option;
  mutable pending_osr : (Link.Linker.exe * (int * int64) list) option;
      (** queued image swap: (new exe, patched-slot delta); applied at
          the next OSR point (fragment boundary = call dispatch) *)
  mutable osr_migrations : int;
  mutable last_stack_map : stack_map option;
}

val mem_size : int

(** Fresh VM with the executable's data image loaded: allocation, then
    the same initialisation as {!reset}.
    @raise Fault if the image does not fit. *)
val create : ?max_steps:int -> Link.Linker.exe -> t

(** [reset vm exe] makes [vm] indistinguishable from [create
    ~max_steps exe] (with [vm]'s own [max_steps]) plus its host
    functions: all of memory equals [exe]'s freshly loaded image,
    registers are zero, [cycles], [steps] and {!budget_exhausted} are
    cleared, the stack is empty, and the profile, the block hook,
    [host_cost], any queued OSR swap, the migration count and the stack
    map are back at their defaults. Registered host functions stay. It
    holds after any previous use, including a run that faulted or
    exhausted its budget midway, an OSR image swap, or a different
    [exe]. Cost: one flag per page plus the data image; the pages the
    next run touches are zero-filled as it touches them.
    @raise Fault if the image does not fit. *)
val reset : t -> Link.Linker.exe -> unit

(** Host functions read their arguments from registers 0..5 ({!reg})
    and return the value placed in r0. *)
val register_host : t -> string -> (t -> int64) -> unit

(** [reg vm i]: the current value of register [i]. *)
val reg : t -> int -> int64

(** Called on every basic-block entry with (function name, block index). *)
val set_block_hook : t -> (t -> string -> int -> unit) -> unit

(** Queue an on-stack-replacement image swap, applied at the next OSR
    point (the next call dispatch — a fragment boundary). [slots] is the
    byte-level data delta of the relink that produced [exe]
    ({!Link.Incremental.last_slots}), replayed into live memory so the
    data image matches a fresh load of [exe]. Code addresses are stable
    across an incremental relink, so patching the delta and switching
    the symbol tables is the whole migration: the about-to-dispatch
    callee resolves against the new image while in-flight frames drain
    on their retained old code. *)
val request_osr : t -> exe:Link.Linker.exe -> slots:(int * int64) list -> unit

(** Is a swap queued but not yet applied (no OSR point reached)? *)
val osr_pending : t -> bool

(** Migrations applied so far on this VM. *)
val osr_migrations : t -> int

(** Stack map captured by the most recent migration, if any. *)
val last_stack_map : t -> stack_map option

(** Charge extra cycles (instrumentation-engine overhead models). *)
val add_cycles : t -> int -> unit

(** Attach (or return the already-attached) execution profile. *)
val enable_profile : t -> profile

val profile : t -> profile option

(** Per-function cycle attribution, heaviest first (ties by name). *)
val profile_top : profile -> (string * int) list

(** Per-function block-entry counts, busiest first (ties by name). *)
val profile_blocks : profile -> (string * int) list

(** Per-site inline-counter attribution as (address, hits, cycles),
    ascending by address. The instrumentation layer maps addresses back
    to probe ids ({!Odin.Cov.probe_costs}). *)
val profile_inc_sites : profile -> (int * int * int) list

(** @raise Link.Linker.Link_error for unknown symbols. *)
val addr_of : t -> string -> int64

(** Typed little-endian memory access (loads sign-extend to the type's
    width). @raise Fault on out-of-bounds access. *)
val load_mem : t -> Ir.Types.ty -> int64 -> int64

val store_mem : t -> Ir.Types.ty -> int64 -> int64 -> unit

(** All of guest memory as the program sees it (a fresh copy; pages not
    touched since the last reset read as zero). *)
val memory : t -> Bytes.t

(** Copy an input buffer into fresh memory below the stack; returns its
    address.
    @raise Fault if the buffer would reach below the end of the data
      image ([exe.data_end]). *)
val write_buffer : t -> string -> int64

(** Call a function with up to 6 integer arguments; returns r0.
    @raise Fault on traps (undefined symbols, division by zero, memory
    faults, stack overflow, step-budget exhaustion). *)
val call : t -> string -> int64 list -> int64

(** Reset cycle/step counters (memory and globals keep their state). *)
val reset_counters : t -> unit

(** Did the last {!Fault} come from step-budget exhaustion? Lets callers
    classify "ran too long" (deterministic timeout — e.g. a mutation
    campaign's timeout verdict) apart from a genuine trap, without
    parsing the fault message. *)
val budget_exhausted : t -> bool
