(** Execution engine: runs linked machine code with per-instruction cycle
    accounting. Every "execution duration" in the reproduced figures is a
    cycle count from this VM, so results are deterministic and
    hardware-independent while preserving relative costs.

    The engine exposes a block-entry hook, which is how the dynamic-
    binary-instrumentation baselines (DrCov, libInst) charge their
    translation/dispatch/trampoline costs without touching the code.

    One VM serves any number of executions: {!reset} returns it to the
    state {!create} would produce (AFL's persistent mode). Guest memory
    is zero-filled one 4 KiB page at a time, on the first access after a
    reset, so neither [create] nor [reset] pays for pages a run never
    touches, and untouched pages never become resident. The dispatch
    loop keeps registers unboxed in a byte array, so a step allocates
    nothing. *)

open Codegen.Mach

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

(** One inline-counter site's attribution: how many times the counter
    increment at a given data address executed, and the VM cycles it
    cost. The address identifies the site (the instrumentation layer
    maps it back to a probe id — e.g. {!Odin.Cov} counters live at
    [__odin_counters + pid]). *)
type inc_site = {
  mutable is_hits : int;
  mutable is_cycles : int;
}

(** Optional execution profile: cycle attribution per function plus
    block/probe/call hit counts. Pure observation — enabling a profile
    never changes [cycles], [steps] or execution results; the same
    cycle increments are simply mirrored into the per-function table. *)
type profile = {
  mutable pr_block_hits : int;  (** basic-block entries *)
  mutable pr_probe_hits : int;  (** inline counter increments executed *)
  mutable pr_calls : int;  (** guest-to-guest calls dispatched *)
  mutable pr_host_calls : int;  (** host function calls *)
  pr_fn_cycles : (string, int ref) Hashtbl.t;  (** cycles per function *)
  pr_fn_blocks : (string, int ref) Hashtbl.t;  (** block entries per function *)
  pr_inc_sites : (int, inc_site) Hashtbl.t;
      (** per-counter-address attribution, keyed by the increment's
          target data address *)
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
      (** backing store: a page's bytes mean something only once it is
          [touched]; every access below goes through {!touch} *)
  touched : Bytes.t;
      (** one byte per 4 KiB page of [mem]: non-zero once the page was
          zero-filled (and possibly written) since the last {!reset} *)
  regs : Bytes.t;  (** 16 native-endian 64-bit registers; r0 = return *)
  mutable cycles : int;
  mutable steps : int;
  max_steps : int;
  mutable budget_hit : bool;
      (** the last {!Fault} was step-budget exhaustion, not a genuine
          trap — lets callers classify "ran too long" (a timeout
          verdict) apart from "crashed" without parsing the message *)
  host : (string, t -> int64) Hashtbl.t;
      (** host functions read args from regs r0..r5, return the result *)
  mutable host_cost : int;  (** default cycles charged per host call *)
  mutable block_hook : (t -> string -> int -> unit) option;
      (** called on block entry with (function name, block index) *)
  mutable stack_base : int;
  mutable prof : profile option;
  mutable pending_osr : (Link.Linker.exe * (int * int64) list) option;
      (** queued image swap: (new exe, patched-slot delta); applied at
          the next OSR point (fragment boundary = call dispatch) *)
  mutable osr_migrations : int;
  mutable last_stack_map : stack_map option;
}

let mem_size = 1 lsl 20 (* 1 MiB; data starts at 256 KiB, stack at the top *)
let page_bits = 12
let page_size = 1 lsl page_bits
let default_host_cost = 10

(* Registers live unboxed in [regs]. Only the VM reads the bytes, so the
   host's byte order is fine. The accesses are bounds-checked. *)
external reg_get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external reg_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let reg vm r = reg_get vm.regs (r lsl 3)

let materialize vm p =
  Bytes.fill vm.mem (p lsl page_bits) page_size '\000';
  Bytes.unsafe_set vm.touched p '\001'

(* make the in-bounds bytes [a, a + w) meaningful, w > 0 *)
let[@inline] touch vm a w =
  let p = a lsr page_bits in
  if Bytes.unsafe_get vm.touched p = '\000' then materialize vm p;
  let q = (a + w - 1) lsr page_bits in
  if Bytes.unsafe_get vm.touched q = '\000' then materialize vm q

let touch_range vm lo hi =
  for p = lo lsr page_bits to (hi - 1) lsr page_bits do
    if Bytes.get vm.touched p = '\000' then materialize vm p
  done

let load_image vm =
  List.iter
    (fun (base, bytes) ->
      let len = Bytes.length bytes in
      if base < 0 || base + len > mem_size then fault "data image too large";
      if len > 0 then touch_range vm base (base + len);
      Bytes.blit bytes 0 vm.mem base len)
    vm.exe.Link.Linker.image

(** Guest memory as the program sees it: a copy, untouched pages zero. *)
let memory vm =
  let b = Bytes.make mem_size '\000' in
  for p = 0 to Bytes.length vm.touched - 1 do
    if Bytes.get vm.touched p <> '\000' then
      Bytes.blit vm.mem (p lsl page_bits) b (p lsl page_bits) page_size
  done;
  b

(** Return [vm] to the state [create exe] produces: forget the pages
    touched since the last reset (they read as zero again), reload
    [exe]'s data image, and clear registers, counters, the stack, the
    profile, the block hook and any OSR state. Registered host functions
    and [max_steps] stay. *)
let reset vm exe =
  Bytes.fill vm.touched 0 (Bytes.length vm.touched) '\000';
  Bytes.fill vm.regs 0 (Bytes.length vm.regs) '\000';
  vm.exe <- exe;
  vm.cycles <- 0;
  vm.steps <- 0;
  vm.budget_hit <- false;
  vm.host_cost <- default_host_cost;
  vm.block_hook <- None;
  vm.stack_base <- mem_size - 16;
  vm.prof <- None;
  vm.pending_osr <- None;
  vm.osr_migrations <- 0;
  vm.last_stack_map <- None;
  load_image vm

let create ?(max_steps = 200_000_000) exe =
  let vm =
    {
      exe;
      mem = Bytes.create mem_size;
      touched = Bytes.make (mem_size lsr page_bits) '\x00';
      regs = Bytes.make (num_phys * 8) '\x00';
      cycles = 0;
      steps = 0;
      max_steps;
      budget_hit = false;
      host = Hashtbl.create 8;
      host_cost = default_host_cost;
      block_hook = None;
      stack_base = mem_size - 16;
      prof = None;
      pending_osr = None;
      osr_migrations = 0;
      last_stack_map = None;
    }
  in
  reset vm exe;
  vm

let register_host vm name fn = Hashtbl.replace vm.host name fn

(* ------------------------------------------------------------------ *)
(* On-stack replacement                                                *)
(* ------------------------------------------------------------------ *)

(** Queue an image swap to happen at the next OSR point (the next call
    dispatch — a fragment boundary). [slots] is the byte-level delta of
    the relink that produced [exe] (see [Link.Incremental.last_slots]):
    the absolute (address, value) pairs replayed into the live memory so
    the data image matches what a fresh load of [exe] would contain.
    Code addresses are stable across an incremental relink (slab
    placement), so patching the data delta and switching the symbol
    tables is the whole migration. *)
let request_osr vm ~exe ~slots = vm.pending_osr <- Some (exe, slots)

let osr_pending vm = vm.pending_osr <> None
let osr_migrations vm = vm.osr_migrations
let last_stack_map vm = vm.last_stack_map

(* Apply a queued swap, if any. Called at OSR points only: the about-to-
   dispatch callee then resolves against the new image, while frames
   already on the stack drain on their retained old code. [fn] and
   [depth] describe the execution state for the captured stack map. *)
let osr_apply vm fn depth =
  match vm.pending_osr with
  | None -> ()
  | Some (exe, slots) ->
    vm.exe <- exe;
    List.iter
      (fun (addr, v) ->
        if addr < 0 || addr + 8 > mem_size then
          fault "OSR slot out of range at 0x%x" addr;
        touch vm addr 8;
        Bytes.set_int64_le vm.mem addr v)
      slots;
    vm.last_stack_map <-
      Some
        {
          sm_fn = fn;
          sm_depth = depth;
          sm_sp = reg vm reg_sp;
          sm_regs = Array.init num_phys (reg vm);
        };
    vm.osr_migrations <- vm.osr_migrations + 1;
    vm.pending_osr <- None
let set_block_hook vm hook = vm.block_hook <- Some hook
let add_cycles vm n = vm.cycles <- vm.cycles + n

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

let enable_profile vm =
  match vm.prof with
  | Some p -> p
  | None ->
    let p =
      {
        pr_block_hits = 0;
        pr_probe_hits = 0;
        pr_calls = 0;
        pr_host_calls = 0;
        pr_fn_cycles = Hashtbl.create 32;
        pr_fn_blocks = Hashtbl.create 32;
        pr_inc_sites = Hashtbl.create 64;
      }
    in
    vm.prof <- Some p;
    p

let profile vm = vm.prof

(* the counter cell of [key], created at 0 on first use *)
let cell table key =
  match Hashtbl.find_opt table key with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.replace table key c;
    c

(** Per-function cycle attribution, heaviest first (ties by name). *)
let profile_top p =
  Hashtbl.fold (fun fn c acc -> (fn, !c) :: acc) p.pr_fn_cycles []
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match compare c2 c1 with 0 -> compare n1 n2 | c -> c)

(** Per-function block-entry counts, busiest first (ties by name). *)
let profile_blocks p =
  Hashtbl.fold (fun fn c acc -> (fn, !c) :: acc) p.pr_fn_blocks []
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match compare c2 c1 with 0 -> compare n1 n2 | c -> c)

(** Per-site inline-counter attribution as (address, hits, cycles),
    ascending by address — deterministic for a deterministic run. *)
let profile_inc_sites p =
  Hashtbl.fold (fun addr s acc -> (addr, s.is_hits, s.is_cycles) :: acc)
    p.pr_inc_sites []
  |> List.sort compare

let addr_of vm name = Link.Linker.addr_of vm.exe name

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

(* The dispatch loop's arithmetic: Ir.Eval.binop / icmp and
   Ir.Types.normalize / zext_value transcribed onto unboxed values (a
   call into those boxes every operand). test_vm pins each (op, type)
   pair to Ir.Eval on edge values. *)

let[@inline] sext (ty : Ir.Types.ty) v =
  match ty with
  | I64 | Ptr -> v
  | I32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | I16 -> Int64.shift_right (Int64.shift_left v 48) 48
  | I8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | I1 -> Int64.logand v 1L
  | Void -> 0L

let[@inline] zext (ty : Ir.Types.ty) v =
  match ty with
  | I64 | Ptr -> v
  | I32 -> Int64.logand v 0xFFFF_FFFFL
  | I16 -> Int64.logand v 0xFFFFL
  | I8 -> Int64.logand v 0xFFL
  | I1 -> Int64.logand v 1L
  | Void -> 0L

(* [fn] names the function for the division-by-zero trap *)
let[@inline] arith fn (op : Ir.Ins.binop) ty a b =
  match op with
  | Add -> sext ty (Int64.add a b)
  | Sub -> sext ty (Int64.sub a b)
  | Mul -> sext ty (Int64.mul a b)
  | And -> sext ty (Int64.logand a b)
  | Or -> sext ty (Int64.logor a b)
  | Xor -> sext ty (Int64.logxor a b)
  | Sdiv ->
    let sb = sext ty b in
    if sb = 0L then fault "division by zero in @%s" fn;
    sext ty (Int64.div (sext ty a) sb)
  | Srem ->
    let sb = sext ty b in
    if sb = 0L then fault "division by zero in @%s" fn;
    sext ty (Int64.rem (sext ty a) sb)
  | Udiv ->
    let zb = zext ty b in
    if zb = 0L then fault "division by zero in @%s" fn;
    sext ty (Int64.unsigned_div (zext ty a) zb)
  | Urem ->
    let zb = zext ty b in
    if zb = 0L then fault "division by zero in @%s" fn;
    sext ty (Int64.unsigned_rem (zext ty a) zb)
  | Shl ->
    sext ty (Int64.shift_left a (Int64.to_int (Int64.logand (zext ty b) 63L)))
  | Lshr ->
    sext ty
      (Int64.shift_right_logical (zext ty a)
         (Int64.to_int (Int64.logand (zext ty b) 63L)))
  | Ashr ->
    sext ty
      (Int64.shift_right (sext ty a) (Int64.to_int (Int64.logand (zext ty b) 63L)))

(* Int64.unsigned_compare at the type's width *)
let[@inline] ucmp ty a b =
  Int64.compare
    (Int64.sub (zext ty a) Int64.min_int)
    (Int64.sub (zext ty b) Int64.min_int)

let[@inline] compare_at (pred : Ir.Ins.icmp) ty a b =
  match pred with
  | Eq -> sext ty a = sext ty b
  | Ne -> sext ty a <> sext ty b
  | Slt -> sext ty a < sext ty b
  | Sle -> sext ty a <= sext ty b
  | Sgt -> sext ty a > sext ty b
  | Sge -> sext ty a >= sext ty b
  | Ult -> ucmp ty a b < 0
  | Ule -> ucmp ty a b <= 0
  | Ugt -> ucmp ty a b > 0
  | Uge -> ucmp ty a b >= 0

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let[@inline] width (ty : Ir.Types.ty) =
  match ty with I1 | I8 -> 1 | I16 -> 2 | I32 -> 4 | I64 | Ptr -> 8 | Void -> 0

(* typed little-endian access at an in-bounds host address; loads
   sign-extend to the type's width *)
let[@inline] load vm (ty : Ir.Types.ty) a =
  if ty <> Void then touch vm a (width ty);
  match ty with
  | I1 -> Int64.of_int (Bytes.get_uint8 vm.mem a land 1)
  | I8 -> Int64.of_int (Bytes.get_int8 vm.mem a)
  | I16 -> Int64.of_int (Bytes.get_int16_le vm.mem a)
  | I32 -> Int64.of_int32 (Bytes.get_int32_le vm.mem a)
  | I64 | Ptr -> Bytes.get_int64_le vm.mem a
  | Void -> fault "load width 0"

let[@inline] store vm (ty : Ir.Types.ty) a v =
  if ty <> Void then touch vm a (width ty);
  match ty with
  | I1 | I8 -> Bytes.set_uint8 vm.mem a (Int64.to_int v land 0xFF)
  | I16 -> Bytes.set_uint16_le vm.mem a (Int64.to_int v land 0xFFFF)
  | I32 -> Bytes.set_int32_le vm.mem a (Int64.to_int32 v)
  | I64 | Ptr -> Bytes.set_int64_le vm.mem a v
  | Void -> fault "store width 0"

let[@inline] in_bounds a w = a >= 0 && a + w <= mem_size

let load_mem vm ty addr =
  let a = Int64.to_int addr in
  if not (in_bounds a (width ty)) then fault "memory fault at 0x%Lx" addr;
  load vm ty a

let store_mem vm ty addr v =
  let a = Int64.to_int addr in
  if not (in_bounds a (width ty)) then fault "memory fault at 0x%Lx" addr;
  store vm ty a v

(** Reserve a region below the stack and copy [bytes] into it; returns its
    address. Used to hand fuzzing inputs to the program. *)
let write_buffer vm bytes =
  let len = String.length bytes in
  let size = (max 1 len + 15) / 16 * 16 in
  let base = vm.stack_base - size in
  if base < vm.exe.Link.Linker.data_end then
    fault "input of %d bytes does not fit between the data image and the stack"
      len;
  vm.stack_base <- base;
  touch_range vm base (base + size);
  Bytes.blit_string bytes 0 vm.mem base len;
  Int64.of_int base

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let[@inline] operand vm = function
  | Oreg r -> reg_get vm.regs (r lsl 3)
  | Oimm v -> v
  | Osym (s, add) -> Int64.add (addr_of vm s) (Int64.of_int add)

let[@inline] eaddr vm = function
  | Abase (r, off) -> Int64.add (reg_get vm.regs (r lsl 3)) (Int64.of_int off)
  | Asym (s, off) -> Int64.add (addr_of vm s) (Int64.of_int off)
  | Aslot _ -> fault "unresolved frame slot at execution"

(* the checked host address of a [ty] access at [am] *)
let[@inline] host_addr vm ty am =
  let addr = eaddr vm am in
  let a = Int64.to_int addr in
  if not (in_bounds a (width ty)) then fault "memory fault at 0x%Lx" addr;
  a

let enter_block vm (mf : mfunc) pc =
  (* fault site for killing a guest execution mid-flight (farm
     robustness tests); free when no plan targets it *)
  Support.Fault.hit "vm.step";
  if vm.prof != None || vm.block_hook != None then begin
    let idx = if pc < Array.length mf.mf_block_at then mf.mf_block_at.(pc) else -1 in
    if idx >= 0 then begin
      (match vm.prof with
      | Some p ->
        p.pr_block_hits <- p.pr_block_hits + 1;
        incr (cell p.pr_fn_blocks mf.mf_name)
      | None -> ());
      match vm.block_hook with Some hook -> hook vm mf.mf_name idx | None -> ()
    end
  end

let indirect_callee vm r =
  let addr = reg vm r in
  match Hashtbl.find_opt vm.exe.Link.Linker.fn_at_addr addr with
  | Some name -> name
  | None -> (
    match Hashtbl.find_opt vm.exe.Link.Linker.host_at_addr addr with
    | Some name -> name
    | None -> fault "indirect call to 0x%Lx (not a function)" addr)

type frame = { fr_fn : mfunc; fr_pc : int }

(* placeholder for "current function's profile cell not looked up yet";
   never stored in a table, never written *)
let no_cell = ref 0

(** Call [fname] with up to 6 integer arguments; returns r0. *)
let call vm fname args =
  let entry =
    match Link.Linker.find_func vm.exe fname with
    | Some mf -> mf
    | None -> fault "call to unknown function @%s" fname
  in
  if List.length args > max_reg_args then fault "too many arguments";
  let regs = vm.regs in
  List.iteri (fun i v -> reg_set regs (i lsl 3) v) args;
  reg_set regs (reg_sp lsl 3) (Int64.of_int vm.stack_base);
  let stack = ref [] in
  let depth = ref 0 in
  let cur = ref entry in
  let pc = ref 0 in
  let running = ref true in
  (* the profile's cycle cell of [!cur], looked up once per function
     switch rather than hashed on every step *)
  let fn_cycles = ref no_cell in
  enter_block vm entry 0;
  while !running do
    let mf = !cur in
    let code = mf.mf_code in
    let i = !pc in
    if i < 0 || i >= Array.length code then
      fault "pc out of range in @%s" mf.mf_name;
    let inst = Array.unsafe_get code i in
    vm.steps <- vm.steps + 1;
    if vm.steps > vm.max_steps then begin
      vm.budget_hit <- true;
      fault "cycle budget exhausted"
    end;
    let c = cost inst in
    vm.cycles <- vm.cycles + c;
    (match vm.prof with
    | Some p ->
      if !fn_cycles == no_cell then fn_cycles := cell p.pr_fn_cycles mf.mf_name;
      let fc = !fn_cycles in
      fc := !fc + c;
      (* inline counter increments are the compiled form of probes *)
      (match inst with
      | Mincmem _ -> p.pr_probe_hits <- p.pr_probe_hits + 1
      | _ -> ())
    | None -> ());
    match inst with
    (* operands are let-bound before an [@inline] call: a typed let
       keeps them unboxed, an inlined parameter binding would box *)
    | Mmov (d, o) ->
      let v = operand vm o in
      reg_set regs (d lsl 3) v;
      pc := i + 1
    | Mbin (op, ty, d, s, o) ->
      let a = reg_get regs (s lsl 3) in
      let b = operand vm o in
      reg_set regs (d lsl 3) (arith mf.mf_name op ty a b);
      pc := i + 1
    | Mcmp (p, ty, d, s, o) ->
      let a = reg_get regs (s lsl 3) in
      let b = operand vm o in
      reg_set regs (d lsl 3) (if compare_at p ty a b then 1L else 0L);
      pc := i + 1
    | Mcmov (d, c, s) ->
      if reg_get regs (c lsl 3) <> 0L then
        reg_set regs (d lsl 3) (reg_get regs (s lsl 3));
      pc := i + 1
    | Mld (ty, d, am) ->
      reg_set regs (d lsl 3) (load vm ty (host_addr vm ty am));
      pc := i + 1
    | Mst (ty, s, am) ->
      let a = host_addr vm ty am in
      let v = reg_get regs (s lsl 3) in
      store vm ty a v;
      pc := i + 1
    | Mincmem (ty, am) ->
      (match vm.prof with
      | Some p ->
        (* per-site attribution: charge this increment's cycles to its
           counter address, so instrumentation cost can be broken down
           per probe *)
        let key = Int64.to_int (eaddr vm am) in
        let site =
          match Hashtbl.find_opt p.pr_inc_sites key with
          | Some s -> s
          | None ->
            let s = { is_hits = 0; is_cycles = 0 } in
            Hashtbl.replace p.pr_inc_sites key s;
            s
        in
        site.is_hits <- site.is_hits + 1;
        site.is_cycles <- site.is_cycles + c
      | None -> ());
      let a = host_addr vm ty am in
      let v = Int64.add (load vm ty a) 1L in
      store vm ty a v;
      pc := i + 1
    | Mlea (d, am) ->
      reg_set regs (d lsl 3) (eaddr vm am);
      pc := i + 1
    | Mjmp t ->
      pc := t;
      enter_block vm mf t
    | Mjnz (r, t) ->
      let t = if reg_get regs (r lsl 3) <> 0L then t else i + 1 in
      pc := t;
      enter_block vm mf t
    | Mjtab (r, cases, d) ->
      let key = reg_get regs (r lsl 3) in
      let n = Array.length cases in
      let k = ref 0 in
      while !k < n && fst cases.(!k) <> key do
        incr k
      done;
      let t = if !k < n then snd cases.(!k) else d in
      pc := t;
      enter_block vm mf t
    | Mcall _ | Mcallr _ -> (
      let name =
        match inst with
        | Mcall name -> name
        | Mcallr r -> indirect_callee vm r
        | _ -> assert false
      in
      (* OSR point: a queued tier swap lands here, before the callee is
         resolved, so the callee runs on the new image *)
      osr_apply vm name !depth;
      match Link.Linker.find_func vm.exe name with
      | Some callee ->
        stack := { fr_fn = mf; fr_pc = i + 1 } :: !stack;
        incr depth;
        if !depth > 4096 then fault "call stack overflow";
        (match vm.prof with Some p -> p.pr_calls <- p.pr_calls + 1 | None -> ());
        cur := callee;
        fn_cycles := no_cell;
        pc := 0;
        enter_block vm callee 0
      | None -> (
        match Hashtbl.find_opt vm.host name with
        | Some h ->
          vm.cycles <- vm.cycles + vm.host_cost;
          (match vm.prof with
          | Some p ->
            p.pr_host_calls <- p.pr_host_calls + 1;
            (* the host call's cycles are charged to the calling function *)
            let fc = !fn_cycles in
            fc := !fc + vm.host_cost
          | None -> ());
          reg_set regs (reg_ret lsl 3) (h vm);
          pc := i + 1
        | None -> fault "call to undefined symbol @%s" name))
    | Mret -> (
      match !stack with
      | [] -> running := false
      | fr :: rest ->
        stack := rest;
        decr depth;
        cur := fr.fr_fn;
        fn_cycles := no_cell;
        pc := fr.fr_pc)
    | Mpush r ->
      let sp = Int64.sub (reg_get regs (reg_sp lsl 3)) 8L in
      reg_set regs (reg_sp lsl 3) sp;
      let a = Int64.to_int sp in
      if not (in_bounds a 8) then fault "memory fault at 0x%Lx" sp;
      let v = reg_get regs (r lsl 3) in
      store vm Ir.Types.I64 a v;
      pc := i + 1
    | Mpop r ->
      let sp = reg_get regs (reg_sp lsl 3) in
      let a = Int64.to_int sp in
      if not (in_bounds a 8) then fault "memory fault at 0x%Lx" sp;
      reg_set regs (r lsl 3) (load vm Ir.Types.I64 a);
      (* re-read: [pop sp] adjusts the value it just loaded *)
      reg_set regs (reg_sp lsl 3)
        (Int64.add (reg_get regs (reg_sp lsl 3)) 8L);
      pc := i + 1
    | Mspadj n ->
      reg_set regs (reg_sp lsl 3)
        (Int64.add (reg_get regs (reg_sp lsl 3)) (Int64.of_int n));
      pc := i + 1
  done;
  reg vm reg_ret

(** Reset the per-run counters (memory and globals keep their state). *)
let reset_counters vm =
  vm.cycles <- 0;
  vm.steps <- 0;
  vm.budget_hit <- false

(** Did the last {!Fault} come from step-budget exhaustion? Distinguishes
    a mutant (or program) that ran too long — a deterministic timeout
    verdict — from one that genuinely trapped. *)
let budget_exhausted vm = vm.budget_hit
