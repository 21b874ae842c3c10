(** Instruction selection: IR function -> virtual-register machine code.

    Blocks keep symbolic ids until final layout; phi nodes become parallel
    copies at the end of each predecessor (phi destinations are unique
    vregs, so a copy on a not-taken edge only clobbers a dead register);
    calls marshal arguments into the physical argument registers. *)

open Ir

type vblock = {
  vb_id : int;
  vb_label : string;
  mutable vb_insts : Mach.minst list;  (** reversed during construction *)
}

type vcode = {
  vc_name : string;
  vc_blocks : vblock array;
  vc_nvreg : int;  (** first unused vreg id *)
  vc_slots : (int * int) list;  (** (slot id, size in bytes) for allocas *)
}

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type ctx = {
  fn : Func.t;
  phi_arms : (string, (string, (Ins.ins * Ins.value) list) Hashtbl.t) Hashtbl.t;
      (** block label -> {!arms_by_pred} of its phis (blocks with phis only) *)
  mutable next_vreg : int;
  vregs : (string, int) Hashtbl.t;  (** SSA name -> vreg *)
  block_ids : (string, int) Hashtbl.t;
  mutable slots : (int * int) list;
  mutable next_slot : int;
  alloca_slot : (string, int) Hashtbl.t;  (** alloca result name -> slot *)
  mutable cur : vblock;
}

let fresh ctx =
  let v = ctx.next_vreg in
  ctx.next_vreg <- v + 1;
  v

let vreg_of ctx name =
  match Hashtbl.find_opt ctx.vregs name with
  | Some v -> v
  | None ->
    let v = fresh ctx in
    Hashtbl.replace ctx.vregs name v;
    v

let emit ctx i = ctx.cur.vb_insts <- i :: ctx.cur.vb_insts

let rec log2_exact n =
  if n <= 0 then None
  else if n = 1 then Some 0
  else if n mod 2 <> 0 then None
  else Option.map (fun k -> k + 1) (log2_exact (n / 2))

let block_id ctx label =
  match Hashtbl.find_opt ctx.block_ids label with
  | Some id -> id
  | None -> unsupported "branch to unknown block %%%s" label

(* Blockaddress constants lower to the function's symbol with a small,
   deterministic offset — an opaque token sufficient for the innate-
   constraint experiments (no machine-level indirect branch consumes it). *)
let blockaddr_sym f l = Mach.Osym (f, 1 + (Hashtbl.hash l mod 7))

let operand_of ctx = function
  | Ins.Const (ty, v) -> Mach.Oimm (Types.normalize ty v)
  | Ins.Reg (_, n) -> Mach.Oreg (vreg_of ctx n)
  | Ins.Global g -> Mach.Osym (g, 0)
  | Ins.Blockaddr (f, l) -> blockaddr_sym f l
  | Ins.Undef _ -> Mach.Oimm 0L

(* Force a value into a register. *)
let reg_of ctx v =
  match operand_of ctx v with
  | Mach.Oreg r -> r
  | op ->
    let r = fresh ctx in
    emit ctx (Mach.Mmov (r, op));
    r

let addr_of ctx = function
  | Ins.Global g -> Mach.Asym (g, 0)
  | v -> Mach.Abase (reg_of ctx v, 0)

let lower_ins ctx (i : Ins.ins) =
  match i.Ins.kind with
  | Ins.Phi _ -> () (* handled as copies in predecessors *)
  | Ins.Binop (op, a, b) ->
    let dst = vreg_of ctx i.Ins.id in
    let s1 = reg_of ctx a in
    let s2 = operand_of ctx b in
    emit ctx (Mach.Mbin (op, i.Ins.ty, dst, s1, s2))
  | Ins.Icmp (p, a, b) ->
    let dst = vreg_of ctx i.Ins.id in
    let ty = Ins.value_ty a in
    let s1 = reg_of ctx a in
    let s2 = operand_of ctx b in
    emit ctx (Mach.Mcmp (p, ty, dst, s1, s2))
  | Ins.Select (c, a, b) ->
    let dst = vreg_of ctx i.Ins.id in
    emit ctx (Mach.Mmov (dst, operand_of ctx b));
    let cr = reg_of ctx c in
    let ar = reg_of ctx a in
    emit ctx (Mach.Mcmov (dst, cr, ar))
  | Ins.Cast (c, a) -> (
    let dst = vreg_of ctx i.Ins.id in
    let from = Ins.value_ty a in
    match c with
    | Ins.Zext ->
      let src = reg_of ctx a in
      let mask =
        match Types.bits from with
        | 64 -> -1L
        | b -> Int64.sub (Int64.shift_left 1L b) 1L
      in
      emit ctx (Mach.Mbin (Ins.And, Types.I64, dst, src, Mach.Oimm mask))
    | Ins.Trunc ->
      let src = reg_of ctx a in
      (* re-normalize at the destination width *)
      emit ctx (Mach.Mbin (Ins.Add, i.Ins.ty, dst, src, Mach.Oimm 0L))
    | Ins.Sext | Ins.Bitcast | Ins.Ptrtoint | Ins.Inttoptr ->
      (* register values are kept sign-normalized at their width, so
         these are plain moves *)
      emit ctx (Mach.Mmov (dst, operand_of ctx a)))
  | Ins.Load ptr ->
    let dst = vreg_of ctx i.Ins.id in
    emit ctx (Mach.Mld (i.Ins.ty, dst, addr_of ctx ptr))
  | Ins.Store (v, ptr) ->
    let ty = Ins.value_ty v in
    let src = reg_of ctx v in
    emit ctx (Mach.Mst (ty, src, addr_of ctx ptr))
  | Ins.Gep (base, idx, size) -> (
    let dst = vreg_of ctx i.Ins.id in
    match (base, idx) with
    | Ins.Global g, Ins.Const (_, k) ->
      emit ctx (Mach.Mmov (dst, Mach.Osym (g, Int64.to_int k * size)))
    | _, Ins.Const (_, k) ->
      let b = reg_of ctx base in
      emit ctx (Mach.Mbin (Ins.Add, Types.I64, dst, b, Mach.Oimm (Int64.mul k (Int64.of_int size))))
    | _ ->
      let idx_reg = reg_of ctx idx in
      let scaled =
        if size = 1 then idx_reg
        else begin
          let t = fresh ctx in
          (match log2_exact size with
          | Some k ->
            emit ctx (Mach.Mbin (Ins.Shl, Types.I64, t, idx_reg, Mach.Oimm (Int64.of_int k)))
          | None ->
            emit ctx (Mach.Mbin (Ins.Mul, Types.I64, t, idx_reg, Mach.Oimm (Int64.of_int size))));
          t
        end
      in
      let b = reg_of ctx base in
      emit ctx (Mach.Mbin (Ins.Add, Types.I64, dst, b, Mach.Oreg scaled)))
  | Ins.Call (callee, args) ->
    if List.length args > Mach.max_reg_args then
      unsupported "call with more than %d arguments in @%s" Mach.max_reg_args
        ctx.fn.Func.name;
    (* evaluate the callee address before clobbering argument registers *)
    let callee_reg =
      match callee with
      | Ins.Direct _ -> None
      | Ins.Indirect v -> Some (reg_of ctx v)
    in
    List.iteri
      (fun k arg ->
        emit ctx (Mach.Mmov (List.nth Mach.arg_regs k, operand_of ctx arg)))
      args;
    (match (callee, callee_reg) with
    | Ins.Direct name, _ -> emit ctx (Mach.Mcall name)
    | Ins.Indirect _, Some r -> emit ctx (Mach.Mcallr r)
    | Ins.Indirect _, None -> assert false);
    if i.Ins.id <> "" then
      emit ctx (Mach.Mmov (vreg_of ctx i.Ins.id, Mach.Oreg Mach.reg_ret))
  | Ins.Alloca (ty, count) ->
    let slot =
      match Hashtbl.find_opt ctx.alloca_slot i.Ins.id with
      | Some s -> s
      | None ->
        let s = ctx.next_slot in
        ctx.next_slot <- s + 1;
        let size = (max 8 (Types.size_of ty * count) + 7) / 8 * 8 in
        ctx.slots <- (s, size) :: ctx.slots;
        Hashtbl.replace ctx.alloca_slot i.Ins.id s;
        s
    in
    emit ctx (Mach.Mlea (vreg_of ctx i.Ins.id, Mach.Aslot slot))

(* ------------------------------------------------------------------ *)
(* Counter-increment fusion                                             *)
(*                                                                      *)
(* Coverage instrumentation emits [%p = gep @counters, K; %v = load %p; *)
(* %v' = add %v, 1; store %v', %p]. Real ISAs execute this as a single  *)
(* read-modify-write ([inc byte ptr [...]]); recognizing the idiom here *)
(* keeps probe cost realistic (~3 cycles) instead of charging the full  *)
(* load/store pair.                                                     *)
(* ------------------------------------------------------------------ *)

let same_ptr a b =
  match (a, b) with
  | Ins.Reg (_, x), Ins.Reg (_, y) -> String.equal x y
  | Ins.Global x, Ins.Global y -> String.equal x y
  | _ -> false

(* [ld; add; st] over the same pointer where the loaded/added values have
   no other uses *)
let is_inc_triple uses (ld : Ins.ins) (add : Ins.ins) (st : Ins.ins) =
  match (ld.Ins.kind, add.Ins.kind, st.Ins.kind) with
  | ( Ins.Load p1,
      Ins.Binop (Ins.Add, Ins.Reg (_, old), Ins.Const (_, 1L)),
      Ins.Store (Ins.Reg (_, incd), p2) )
    when String.equal old ld.Ins.id
         && String.equal incd add.Ins.id
         && same_ptr p1 p2
         && uses ld.Ins.id = 1
         && uses add.Ins.id = 1 ->
    true
  | _ -> false

(* Lower a block's instructions with the fusion peephole. [uses] counts
   SSA uses. *)
let lower_block_insns ctx uses insns =
  let rec walk = function
    | (gep : Ins.ins) :: ld :: add :: st :: rest
      when (match gep.Ins.kind with
           | Ins.Gep (Ins.Global _, Ins.Const _, _) -> true
           | _ -> false)
           && uses gep.Ins.id = 2
           && (match ld.Ins.kind with
              | Ins.Load (Ins.Reg (_, p)) -> String.equal p gep.Ins.id
              | _ -> false)
           && is_inc_triple uses ld add st -> (
      match gep.Ins.kind with
      | Ins.Gep (Ins.Global g, Ins.Const (_, k), sz) ->
        emit ctx (Mach.Mincmem (ld.Ins.ty, Mach.Asym (g, Int64.to_int k * sz)));
        walk rest
      | _ -> assert false)
    | ld :: add :: st :: rest when is_inc_triple uses ld add st -> (
      match ld.Ins.kind with
      | Ins.Load p ->
        emit ctx (Mach.Mincmem (ld.Ins.ty, addr_of ctx p));
        walk rest
      | _ -> assert false)
    | i :: rest ->
      lower_ins ctx i;
      walk rest
    | [] -> ()
  in
  walk insns

(* Parallel copies for the phis of [succ] along the edge from [pred_label].
   Classic sequentialization: emit copies whose destination is not a
   pending source; break cycles with a temporary. *)
(* The phis of one block by incoming edge: predecessor label -> the
   (phi, value) pairs for that edge, in phi order (a phi's first arm
   for a label wins). One pass over the arms instead of a search of
   every phi's arms per edge. *)
let arms_by_pred phis =
  let by_pred = Hashtbl.create 16 in
  List.iter
    (fun (i : Ins.ins) ->
      match i.Ins.kind with
      | Ins.Phi incoming ->
        List.iter
          (fun (l, v) ->
            match Hashtbl.find_opt by_pred l with
            | Some ((j, _) :: _) when j == i -> ()
            | Some arms -> Hashtbl.replace by_pred l ((i, v) :: arms)
            | None -> Hashtbl.add by_pred l [ (i, v) ])
          incoming
      | _ -> ())
    phis;
  Hashtbl.filter_map_inplace (fun _ arms -> Some (List.rev arms)) by_pred;
  by_pred

(* Parallel copies for the phis of a successor along the edge from
   [pred_label] ([arms]: that edge's (phi, value) pairs, in phi order).
   Classic sequentialization: emit copies whose destination is not a
   pending source; break cycles with a temporary. *)
let phi_copies ctx arms =
  let pending =
    List.map
      (fun ((i : Ins.ins), v) ->
        let src = operand_of ctx v in
        (vreg_of ctx i.Ins.id, src))
      arms
  in
  let pending = ref pending in
  let reads_reg r (_, src) = match src with Mach.Oreg s -> s = r | _ -> false in
  (* how many pending copies read each register *)
  let readers = Hashtbl.create 16 in
  while !pending <> [] do
    Hashtbl.reset readers;
    List.iter
      (fun (_, src) ->
        match src with
        | Mach.Oreg s ->
          Hashtbl.replace readers s (1 + Option.value ~default:0 (Hashtbl.find_opt readers s))
        | _ -> ())
      !pending;
    match List.partition (fun (dst, _) -> not (Hashtbl.mem readers dst)) !pending with
    | [], (dst, src) :: rest ->
      (* cycle: save dst's old value in a temp, redirect its readers to
         the temp, then the copy into dst is safe to emit *)
      let t = fresh ctx in
      emit ctx (Mach.Mmov (t, Mach.Oreg dst));
      emit ctx (Mach.Mmov (dst, src));
      pending :=
        List.map
          (fun (d, s) -> if reads_reg dst (d, s) then (d, Mach.Oreg t) else (d, s))
          rest
    | ready, rest ->
      List.iter (fun (d, s) -> emit ctx (Mach.Mmov (d, s))) ready;
      pending := rest
  done

let lower_term ctx (b : Func.block) =
  (* phi copies first, for every successor *)
  List.iter
    (fun succ_label ->
      match Hashtbl.find_opt ctx.phi_arms succ_label with
      | Some by_pred -> (
        match Hashtbl.find_opt by_pred b.Func.label with
        | Some arms -> phi_copies ctx arms
        | None -> ())
      | None -> ())
    (Ins.successors b.Func.term);
  match b.Func.term with
  | Ins.Ret v ->
    (match v with
    | Some v -> emit ctx (Mach.Mmov (Mach.reg_ret, operand_of ctx v))
    | None -> emit ctx (Mach.Mmov (Mach.reg_ret, Mach.Oimm 0L)));
    emit ctx Mach.Mret
  | Ins.Br l -> emit ctx (Mach.Mjmp (block_id ctx l))
  | Ins.Cbr (c, t, f) ->
    let cr = reg_of ctx c in
    emit ctx (Mach.Mjnz (cr, block_id ctx t));
    emit ctx (Mach.Mjmp (block_id ctx f))
  | Ins.Switch (v, d, cases) ->
    let r = reg_of ctx v in
    let table =
      Array.of_list (List.map (fun (k, l) -> (k, block_id ctx l)) cases)
    in
    emit ctx (Mach.Mjtab (r, table, block_id ctx d))
  | Ins.Unreachable ->
    (* executing this is a bug in the input program; return 0 *)
    emit ctx (Mach.Mmov (Mach.reg_ret, Mach.Oimm 0L));
    emit ctx Mach.Mret

(** Select instructions for one function. *)
let select (fn : Func.t) =
  if Func.is_declaration fn then invalid_arg ("Isel.select: declaration " ^ fn.Func.name);
  let blocks = Cfg.rpo fn in
  let phi_arms = Hashtbl.create 16 in
  (* the first block of a label wins, as a front-to-back search finds it *)
  let no_phis = Hashtbl.create 1 in
  List.iter
    (fun (b : Func.block) ->
      if not (Hashtbl.mem phi_arms b.Func.label) then
        Hashtbl.add phi_arms b.Func.label
          (if List.exists
                (fun (i : Ins.ins) -> match i.Ins.kind with Ins.Phi _ -> true | _ -> false)
                b.Func.insns
           then arms_by_pred b.Func.insns
           else no_phis))
    fn.Func.blocks;
  let ctx =
    {
      fn;
      phi_arms;
      next_vreg = Mach.num_phys;
      vregs = Hashtbl.create 64;
      block_ids = Hashtbl.create 16;
      slots = [];
      next_slot = 0;
      alloca_slot = Hashtbl.create 8;
      cur = { vb_id = 0; vb_label = ""; vb_insts = [] };
    }
  in
  List.iteri (fun i b -> Hashtbl.replace ctx.block_ids b.Func.label i) blocks;
  let uses = Func.use_counts fn in
  let vblocks =
    List.mapi
      (fun i (b : Func.block) ->
        let vb = { vb_id = i; vb_label = b.Func.label; vb_insts = [] } in
        ctx.cur <- vb;
        (* entry block: receive parameters from the argument registers *)
        if i = 0 then
          List.iteri
            (fun k (_, p) ->
              if k >= Mach.max_reg_args then
                unsupported "function @%s has too many parameters" fn.Func.name;
              emit ctx (Mach.Mmov (vreg_of ctx p, Mach.Oreg (List.nth Mach.arg_regs k))))
            fn.Func.params;
        lower_block_insns ctx uses b.Func.insns;
        lower_term ctx b;
        vb.vb_insts <- List.rev vb.vb_insts;
        vb)
      blocks
  in
  {
    vc_name = fn.Func.name;
    vc_blocks = Array.of_list vblocks;
    vc_nvreg = ctx.next_vreg;
    vc_slots = List.rev ctx.slots;
  }
