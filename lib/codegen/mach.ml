(** The virtual target machine.

    A 16-register, 64-bit RISC-ish machine with typed (width-aware) ALU
    operations and loads/stores. Machine code is what the linker lays out
    and the VM executes with cycle accounting; its instruction costs are
    the measurement substrate for every figure in the evaluation.

    Register convention:
    - r0        : first argument / return value (not allocatable)
    - r1..r5    : arguments 2..6; caller-saved, allocatable
    - r6, r7, r14 : reserved scratch for spill code (never allocated)
    - r8..r13   : callee-saved, allocatable
    - r15      : stack pointer

    Registers >= 16 are virtual; they exist only before register
    allocation. *)

let num_phys = 16
let reg_ret = 0
let arg_regs = [ 0; 1; 2; 3; 4; 5 ]
let max_reg_args = List.length arg_regs
let scratch0 = 6
let scratch1 = 14
let scratch2 = 7
let reg_sp = 15
let caller_saved_pool = [ 1; 2; 3; 4; 5 ]
let callee_saved_pool = [ 8; 9; 10; 11; 12; 13 ]

let is_virtual r = r >= num_phys

type operand =
  | Oreg of int
  | Oimm of int64
  | Osym of string * int  (** symbol address + addend; resolved at link *)

type addr =
  | Abase of int * int  (** [reg + offset] *)
  | Aslot of int  (** frame slot: [sp + offset], offset patched after RA *)
  | Asym of string * int  (** absolute symbol address + offset *)

(** Branch targets are block ids before layout, instruction indices after. *)
type minst =
  | Mmov of int * operand
  | Mbin of Ir.Ins.binop * Ir.Types.ty * int * int * operand
      (** dst <- src1 op src2, result normalized at ty *)
  | Mcmp of Ir.Ins.icmp * Ir.Types.ty * int * int * operand  (** dst <- 0/1 *)
  | Mcmov of int * int * int  (** dst <- (cond != 0) ? src : dst *)
  | Mld of Ir.Types.ty * int * addr  (** sign-extending load *)
  | Mst of Ir.Types.ty * int * addr
  | Mincmem of Ir.Types.ty * addr
      (** memory increment (x86 [inc byte ptr]); coverage counters fuse
          into this, so an 8-bit-counter probe costs ~3 cycles as on
          real hardware *)
  | Mlea of int * addr  (** dst <- effective address *)
  | Mjmp of int
  | Mjnz of int * int  (** if reg != 0 jump, else fall through *)
  | Mjtab of int * (int64 * int) array * int  (** jump table: reg, cases, default *)
  | Mcall of string
  | Mcallr of int
  | Mret
  | Mpush of int
  | Mpop of int
  | Mspadj of int  (** sp <- sp + n *)

(** Cycle cost of one instruction; the model is calibrated so that
    memory traffic is ~3x ALU and calls are expensive relative to
    straight-line code, as on a small out-of-order core. *)
let cost = function
  | Mmov _ -> 1
  | Mbin ((Ir.Ins.Mul | Ir.Ins.Sdiv | Ir.Ins.Udiv | Ir.Ins.Srem | Ir.Ins.Urem), _, _, _, _)
    ->
    8
  | Mbin _ -> 1
  | Mcmp _ -> 1
  | Mcmov _ -> 1
  | Mld _ -> 3
  | Mst _ -> 3
  | Mincmem _ -> 3
  | Mlea _ -> 1
  | Mjmp _ -> 1
  | Mjnz _ -> 2
  | Mjtab _ -> 5
  | Mcall _ -> 4
  | Mcallr _ -> 6
  | Mret -> 2
  | Mpush _ | Mpop _ -> 2
  | Mspadj _ -> 1

let operand_to_string = function
  | Oreg r -> Printf.sprintf "r%d" r
  | Oimm v -> Printf.sprintf "$%Ld" v
  | Osym (s, 0) -> Printf.sprintf "@%s" s
  | Osym (s, a) -> Printf.sprintf "@%s+%d" s a

let addr_to_string = function
  | Abase (r, 0) -> Printf.sprintf "[r%d]" r
  | Abase (r, o) -> Printf.sprintf "[r%d%+d]" r o
  | Aslot i -> Printf.sprintf "[slot%d]" i
  | Asym (s, 0) -> Printf.sprintf "[@%s]" s
  | Asym (s, o) -> Printf.sprintf "[@%s+%d]" s o

let to_string = function
  | Mmov (d, o) -> Printf.sprintf "mov r%d, %s" d (operand_to_string o)
  | Mbin (op, ty, d, s, o) ->
    Printf.sprintf "%s.%s r%d, r%d, %s" (Ir.Ins.binop_to_string op)
      (Ir.Types.to_string ty) d s (operand_to_string o)
  | Mcmp (p, ty, d, s, o) ->
    Printf.sprintf "set%s.%s r%d, r%d, %s" (Ir.Ins.icmp_to_string p)
      (Ir.Types.to_string ty) d s (operand_to_string o)
  | Mcmov (d, c, s) -> Printf.sprintf "cmov r%d, r%d, r%d" d c s
  | Mld (ty, d, a) ->
    Printf.sprintf "ld.%s r%d, %s" (Ir.Types.to_string ty) d (addr_to_string a)
  | Mst (ty, s, a) ->
    Printf.sprintf "st.%s %s, r%d" (Ir.Types.to_string ty) (addr_to_string a) s
  | Mincmem (ty, a) ->
    Printf.sprintf "inc.%s %s" (Ir.Types.to_string ty) (addr_to_string a)
  | Mlea (d, a) -> Printf.sprintf "lea r%d, %s" d (addr_to_string a)
  | Mjmp t -> Printf.sprintf "jmp %d" t
  | Mjnz (r, t) -> Printf.sprintf "jnz r%d, %d" r t
  | Mjtab (r, cases, d) ->
    Printf.sprintf "jtab r%d, [%d cases], default %d" r (Array.length cases) d
  | Mcall s -> Printf.sprintf "call @%s" s
  | Mcallr r -> Printf.sprintf "callr r%d" r
  | Mret -> "ret"
  | Mpush r -> Printf.sprintf "push r%d" r
  | Mpop r -> Printf.sprintf "pop r%d" r
  | Mspadj n -> Printf.sprintf "spadj %d" n

(** Compiled function: code plus the block table used by the DBI
    baselines (block id -> first instruction index) and frame size. *)
type mfunc = {
  mf_name : string;
  mf_code : minst array;
  mf_blocks : (int * string) array;  (** (start index, IR block label) *)
  mf_block_at : int array;
      (** instruction index -> index of the first block starting there,
          or -1; one entry past the last instruction *)
  mf_frame : int;  (** bytes of frame (spills + allocas) *)
}

(** Build an [mfunc], indexing its block starts ([blocks] ascending by
    start). *)
let mfunc ~name ~code ~blocks ~frame =
  let block_at = Array.make (Array.length code + 1) (-1) in
  Array.iteri
    (fun i (start, _) ->
      if start >= 0 && start < Array.length block_at && block_at.(start) < 0
      then block_at.(start) <- i)
    blocks;
  {
    mf_name = name;
    mf_code = code;
    mf_blocks = blocks;
    mf_block_at = block_at;
    mf_frame = frame;
  }
