(** Instruction combining: the classic peephole pass, including the two
    case studies the paper builds its correctness argument on:

    - the [islower]-style range-check fold (Figure 2): two comparisons and
      a branch diamond collapse into one [add]+[icmp ult], destroying both
      coverage feedback and CmpLog operands;
    - the [printf -> puts] library-call rewrite (Figure 4), which needs
      read access to the referenced string constant — in a trial run this
      logs a Copy-on-use requirement for the constant.

    Plus the usual algebraic identities, strength reduction, and constant
    loads from immutable globals (another Copy-on-use source). *)

open Ir

let is_const = function Ins.Const _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Algebraic simplifications on a single instruction.                  *)
(* Returns [Some v] to replace the result with v, or [None].           *)
(* ------------------------------------------------------------------ *)

let rec log2_opt v =
  if v <= 0L then None
  else if Int64.equal v 1L then Some 0
  else if Int64.rem v 2L <> 0L then None
  else Option.map (fun k -> k + 1) (log2_opt (Int64.div v 2L))

let simplify_value (i : Ins.ins) =
  match i.Ins.kind with
  | Ins.Binop (Ins.Add, x, Ins.Const (_, 0L)) -> Some x
  | Ins.Binop (Ins.Add, Ins.Const (_, 0L), x) -> Some x
  | Ins.Binop (Ins.Sub, x, Ins.Const (_, 0L)) -> Some x
  | Ins.Binop (Ins.Sub, Ins.Reg (_, a), Ins.Reg (_, b)) when String.equal a b ->
    Some (Ins.Const (i.Ins.ty, 0L))
  | Ins.Binop (Ins.Mul, x, Ins.Const (_, 1L)) -> Some x
  | Ins.Binop (Ins.Mul, Ins.Const (_, 1L), x) -> Some x
  | Ins.Binop (Ins.Mul, _, (Ins.Const (_, 0L) as z)) -> Some z
  | Ins.Binop (Ins.Mul, (Ins.Const (_, 0L) as z), _) -> Some z
  | Ins.Binop ((Ins.Sdiv | Ins.Udiv), x, Ins.Const (_, 1L)) -> Some x
  | Ins.Binop (Ins.And, Ins.Reg (t, a), Ins.Reg (_, b)) when String.equal a b ->
    Some (Ins.Reg (t, a))
  | Ins.Binop (Ins.And, _, (Ins.Const (_, 0L) as z)) -> Some z
  | Ins.Binop (Ins.And, x, Ins.Const (ty, v))
    when Int64.equal (Types.zext_value ty v) (Types.zext_value ty (-1L)) ->
    Some x
  | Ins.Binop (Ins.Or, Ins.Reg (t, a), Ins.Reg (_, b)) when String.equal a b ->
    Some (Ins.Reg (t, a))
  | Ins.Binop (Ins.Or, x, Ins.Const (_, 0L)) -> Some x
  | Ins.Binop (Ins.Or, Ins.Const (_, 0L), x) -> Some x
  | Ins.Binop (Ins.Xor, Ins.Reg (_, a), Ins.Reg (_, b)) when String.equal a b ->
    Some (Ins.Const (i.Ins.ty, 0L))
  | Ins.Binop (Ins.Xor, x, Ins.Const (_, 0L)) -> Some x
  | Ins.Binop ((Ins.Shl | Ins.Lshr | Ins.Ashr), x, Ins.Const (_, 0L)) -> Some x
  | Ins.Select (_, a, b)
    when (match (a, b) with
         | Ins.Const (t1, v1), Ins.Const (t2, v2) -> t1 = t2 && Int64.equal v1 v2
         | _ -> false) ->
    Some a
  | Ins.Select (Ins.Reg (Types.I1, c), Ins.Const (Types.I1, 1L), Ins.Const (Types.I1, 0L))
    ->
    Some (Ins.Reg (Types.I1, c))
  | _ -> None

(* Rewrite the instruction in place (strength reduction). *)
let strength_reduce (i : Ins.ins) =
  match i.Ins.kind with
  | Ins.Binop (Ins.Mul, x, Ins.Const (ty, v)) when not (is_const x) -> (
    match log2_opt v with
    | Some k when k > 0 ->
      i.Ins.kind <- Ins.Binop (Ins.Shl, x, Ins.Const (ty, Int64.of_int k));
      true
    | _ -> false)
  | Ins.Binop (Ins.Udiv, x, Ins.Const (ty, v)) -> (
    match log2_opt v with
    | Some k when k > 0 ->
      i.Ins.kind <- Ins.Binop (Ins.Lshr, x, Ins.Const (ty, Int64.of_int k));
      true
    | _ -> false)
  | Ins.Binop (Ins.Urem, x, Ins.Const (ty, v)) -> (
    match log2_opt v with
    | Some k when k > 0 ->
      i.Ins.kind <- Ins.Binop (Ins.And, x, Ins.Const (ty, Int64.sub v 1L));
      true
    | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Constant loads from immutable globals (needs module context).       *)
(* ------------------------------------------------------------------ *)

let const_global_byte (m : Modul.t) g offset =
  match Modul.find_var m g with
  | Some v when v.Modul.gconst -> (
    match v.Modul.ginit with
    | Modul.Bytes s when offset >= 0 && offset < String.length s ->
      Some (Int64.of_int (Char.code s.[offset]))
    | _ -> None)
  | _ -> None

let const_global_word (m : Modul.t) g ty index =
  match Modul.find_var m g with
  | Some v when v.Modul.gconst -> (
    match v.Modul.ginit with
    | Modul.Words (wty, ws) when wty = ty && index >= 0 && index < List.length ws ->
      Some (List.nth ws index)
    | _ -> None)
  | _ -> None

(* Boolean-test simplification: the frontend materializes i1 comparisons
   through zext-to-i32 and re-tests them with [icmp ne x, 0]; folding the
   test back to the original i1 re-exposes the two-comparison diamond the
   range fold (Figure 2) looks for. *)
let fold_bool_test defs subst (i : Ins.ins) =
  if i.Ins.volatile then None
  else
    match i.Ins.kind with
    | Ins.Icmp (pred, Ins.Reg (_, y), Ins.Const (_, 0L)) -> (
      match Hashtbl.find_opt defs y with
      | Some ({ Ins.kind = Ins.Cast (Ins.Zext, src); volatile = false; _ } : Ins.ins)
        when Ins.value_ty src = Types.I1 -> (
        let src = Func.resolve subst src in
        match pred with
        | Ins.Ne -> Some (`Value src)
        | Ins.Eq -> Some (`Negate src)
        | _ -> None)
      | _ -> None)
    | _ -> None

(* Fold [load (gep @g, K)] when @g is a constant global. Needs a def map to
   see through the gep (whose operands are read through [subst]). Logs
   Copy-on-use on success. *)
let fold_const_load ctx (fn : Func.t) defs subst (i : Ins.ins) =
  if i.Ins.volatile then None
  else
    match i.Ins.kind with
    | Ins.Load (Ins.Global g) -> (
      match i.Ins.ty with
      | Types.I8 ->
        Option.map (fun b -> Ins.Const (Types.I8, Types.normalize Types.I8 b))
          (const_global_byte ctx.Pass.modul g 0)
      | ty -> (
        match const_global_word ctx.Pass.modul g ty 0 with
        | Some w ->
          Pass.log_copy ctx fn.Func.name g "const-load";
          Some (Ins.Const (ty, Types.normalize ty w))
        | None -> None))
    | Ins.Load (Ins.Reg (_, p)) -> (
      let resolve = Func.resolve subst in
      match Hashtbl.find_opt defs p with
      | Some ({ Ins.kind = Ins.Gep (base, index, sz); _ } : Ins.ins) -> (
        match (resolve base, resolve index) with
        | Ins.Global g, Ins.Const (_, idx) -> (
          let fold =
            match i.Ins.ty with
            | Types.I8 when sz = 1 ->
              const_global_byte ctx.Pass.modul g (Int64.to_int idx)
            | ty when Types.size_of ty = sz ->
              const_global_word ctx.Pass.modul g ty (Int64.to_int idx)
            | _ -> None
          in
          match fold with
          | Some w ->
            Pass.log_copy ctx fn.Func.name g "const-load";
            Some (Ins.Const (i.Ins.ty, Types.normalize i.Ins.ty w))
          | None -> None)
        | _ -> None)
      | _ -> None)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* printf -> puts (Figure 4).                                          *)
(* ------------------------------------------------------------------ *)

let printf_to_puts ctx (fn : Func.t) =
  let m = ctx.Pass.modul in
  let changed = ref false in
  Func.iter_insns
    (fun (i : Ins.ins) ->
      match i.Ins.kind with
      | Ins.Call (Ins.Direct "printf", [ Ins.Global str ]) when not i.Ins.volatile -> (
        match Modul.find_var m str with
        | Some v when v.Modul.gconst -> (
          match v.Modul.ginit with
          | Modul.Bytes s
            when String.length s >= 2
                 && s.[String.length s - 1] = '\x00'
                 && s.[String.length s - 2] = '\n'
                 && not (String.contains s '%') ->
            (* "text\n\0" -> puts("text\0"); puts appends the newline *)
            let trimmed = String.sub s 0 (String.length s - 2) ^ "\x00" in
            let new_name =
              let rec pick n =
                let candidate = Printf.sprintf "%s.str%d" str n in
                if Modul.mem m candidate then pick (n + 1) else candidate
              in
              pick 0
            in
            ignore
              (Modul.add_var m ~linkage:Func.Internal ~const:true ~name:new_name
                 (Modul.Bytes trimmed));
            ignore
              (Modul.declare_function m ~name:"puts"
                 ~params:[ (Types.Ptr, "s") ]
                 ~ret:Types.I32);
            i.Ins.kind <- Ins.Call (Ins.Direct "puts", [ Ins.Global new_name ]);
            Pass.log_copy ctx fn.Func.name str "printf-to-puts";
            Pass.log_copy ctx fn.Func.name new_name "printf-to-puts";
            changed := true
          | _ -> ())
        | _ -> ())
      | _ -> ())
    fn;
  !changed

(* ------------------------------------------------------------------ *)
(* Range-check fold (Figure 2).                                        *)
(*                                                                     *)
(*   bb1:  %c1 = icmp sge T %x, L        bb1:  %off = add T %x, -L     *)
(*         br %c1, bb2, end        ==>         %r = icmp ult T %off, N *)
(*   bb2:  %c2 = icmp sle T %x, U              br end                  *)
(*         br end                                                      *)
(*   end:  %r = phi i1 [false,bb1],[%c2,bb2]                           *)
(* ------------------------------------------------------------------ *)

(* The function facts both range folds read, built with one scan each;
   rebuilt only when a fold changed the function. *)
type facts = {
  preds : (string, string list) Hashtbl.t;
  uses : (string -> int) Lazy.t;  (** asked last: only a fold about to fire needs it *)
  block_of : (string, Func.block) Hashtbl.t;
}

(* Forced before a fold changes the function: the first forcing happens
   at the first block that passes the tests, before its rewrite. *)
let facts fn =
  lazy
    {
      preds = Cfg.predecessors fn;
      uses = lazy (Func.use_counts fn);
      block_of = Func.block_index fn;
    }

let single_use uses name = Lazy.force uses name = 1

(* The last instruction of a block, if it is the comparison [%c1 = icmp
   sge/sgt x, L] a range fold starts from (not volatile). *)
let lower_bound_test c1 insns =
  let rec last = function
    | [] -> None
    | [ (i : Ins.ins) ] -> (
      match i with
      | { Ins.id; kind = Ins.Icmp ((Ins.Sge | Ins.Sgt), _, Ins.Const _); volatile = false; _ }
        when String.equal id c1 ->
        Some i
      | _ -> None)
    | _ :: rest -> last rest
  in
  last insns

let range_fold (fn : Func.t) facts =
  let changed = ref false in
  let find_block l = Hashtbl.find_opt (Lazy.force facts).block_of l in
  let names = lazy (Func.name_supply fn) in
  (* folded phi -> the new range test; applied once at the end *)
  let subst = Hashtbl.create 8 in
  List.iter
    (fun (bb1 : Func.block) ->
      match bb1.Func.term with
      | Ins.Cbr (Ins.Reg (Types.I1, c1), mid_l, end_l)
        when lower_bound_test c1 bb1.Func.insns <> None -> (
        let { preds; uses; _ } = Lazy.force facts in
        match (find_block mid_l, find_block end_l) with
        | Some mid, Some end_b
          when (not (String.equal mid_l end_l))
               && Cfg.preds_of preds mid_l = [ bb1.Func.label ]
          -> (
          (* bb1 ends with %c1 = icmp sge/sgt x, L as its last insn *)
          let last_is_c1 =
            match lower_bound_test c1 bb1.Func.insns with
            | Some { Ins.kind = Ins.Icmp (lowp, x, Ins.Const (ty, l)); _ } ->
              Some (x, ty, l, lowp)
            | _ -> None
          in
          match last_is_c1 with
          | None -> ()
          | Some (x, ty, lo_c, lowp) -> (
            let lo = match lowp with Ins.Sgt -> Int64.add lo_c 1L | _ -> lo_c in
            (* mid contains exactly one insn: %c2 = icmp sle/slt x, U; br end *)
            match (mid.Func.insns, mid.Func.term) with
            | ( [ ({ Ins.id = c2; kind = Ins.Icmp ((Ins.Sle | Ins.Slt) as up, x2, Ins.Const (_, hi_c)); volatile = false; _ } : Ins.ins) ],
                Ins.Br end_l2 )
              when String.equal end_l2 end_l
                   && (match (x, x2) with
                      | Ins.Reg (_, a), Ins.Reg (_, b) -> String.equal a b
                      | _ -> false) -> (
              let hi = match up with Ins.Slt -> Int64.sub hi_c 1L | _ -> hi_c in
              (* end has the diamond phi *)
              let phi_ins =
                List.filter
                  (fun (i : Ins.ins) ->
                    match i.Ins.kind with Ins.Phi _ -> true | _ -> false)
                  end_b.Func.insns
              in
              match phi_ins with
              | [ ({ Ins.kind = Ins.Phi incoming; ty = Types.I1; _ } as phi) ]
                when List.length incoming = 2 -> (
                let arm l = List.assoc_opt l incoming in
                match (arm bb1.Func.label, arm mid_l) with
                | Some (Ins.Const (Types.I1, 0L)), Some (Ins.Reg (Types.I1, c2'))
                  when String.equal c2' c2 && Int64.compare hi lo >= 0
                       && single_use uses c1 && single_use uses c2 ->
                  (* Perform the rewrite inside bb1. *)
                  let off_name = Func.fresh (Lazy.force names) "offset" in
                  let res_name = Func.fresh (Lazy.force names) "inrange" in
                  let add_ins =
                    Ins.mk ~id:off_name ~ty
                      (Ins.Binop (Ins.Add, x, Ins.Const (ty, Types.normalize ty (Int64.neg lo))))
                  in
                  let width = Int64.add (Int64.sub hi lo) 1L in
                  let cmp_ins =
                    Ins.mk ~id:res_name ~ty:Types.I1
                      (Ins.Icmp (Ins.Ult, Ins.Reg (ty, off_name), Ins.Const (ty, Types.normalize ty width)))
                  in
                  (* drop %c1 from bb1, append the new pair *)
                  bb1.Func.insns <-
                    List.filter (fun (i : Ins.ins) -> not (String.equal i.Ins.id c1)) bb1.Func.insns
                    @ [ add_ins; cmp_ins ];
                  bb1.Func.term <- Ins.Br end_l;
                  (* mid becomes dead; phi is replaced by the new icmp *)
                  Func.record subst phi.Ins.id (Ins.Reg (Types.I1, res_name));
                  end_b.Func.insns <-
                    List.filter (fun (i : Ins.ins) -> i != phi) end_b.Func.insns;
                  changed := true
                | _ -> ())
              | _ -> ())
            | _ -> ()))
        | _ -> ())
      | _ -> ())
    fn.Func.blocks;
  Func.substitute fn subst;
  if !changed then ignore (Cfg.remove_unreachable fn);
  !changed

(* The branch form of the same fold (what SimplifyCFG + InstCombine do to
   an [if (x >= L && x <= U)] after the boolean diamond is threaded):

     bb1:  %c1 = icmp sge T %x, L      bb1:  %off = add T %x, -L
           br %c1, mid, F        ==>         %r = icmp ult T %off, N
     mid:  %c2 = icmp sle T %x, U            br %r, T, F
           br %c2, T, F

   Requires: mid's only predecessor is bb1, the same false target, single
   uses of both comparisons, and no phis that would need merging in the
   targets (T gains the edge from bb1 instead of mid; F loses one of its
   two edges). *)
let range_fold_branches (fn : Func.t) facts =
  let changed = ref false in
  let names = lazy (Func.name_supply fn) in
  let has_phis label =
    match Hashtbl.find_opt (Lazy.force facts).block_of label with
    | Some b ->
      List.exists
        (fun (i : Ins.ins) ->
          match i.Ins.kind with Ins.Phi _ -> true | _ -> false)
        b.Func.insns
    | None -> true
  in
  List.iter
    (fun (bb1 : Func.block) ->
      match bb1.Func.term with
      | Ins.Cbr (Ins.Reg (Types.I1, c1), mid_l, f_l)
        when lower_bound_test c1 bb1.Func.insns <> None -> (
        let { preds; uses; block_of } = Lazy.force facts in
        match Hashtbl.find_opt block_of mid_l with
        | Some mid
          when (not (String.equal mid_l f_l))
               && Cfg.preds_of preds mid_l = [ bb1.Func.label ] -> (
          let lower =
            match lower_bound_test c1 bb1.Func.insns with
            | Some { Ins.kind = Ins.Icmp (p, x, Ins.Const (ty, l)); _ } ->
              Some (x, ty, (match p with Ins.Sgt -> Int64.add l 1L | _ -> l))
            | _ -> None
          in
          match (lower, mid.Func.insns, mid.Func.term) with
          | ( Some (x, ty, lo),
              [ ({ Ins.id = c2;
                   kind = Ins.Icmp ((Ins.Sle | Ins.Slt) as up, x2, Ins.Const (_, hi_c));
                   volatile = false;
                   _
                 } : Ins.ins) ],
              Ins.Cbr (Ins.Reg (Types.I1, c2'), t_l, f2_l) )
            when String.equal c2 c2' && String.equal f2_l f_l
                 && (match (x, x2) with
                    | Ins.Reg (_, a), Ins.Reg (_, b) -> String.equal a b
                    | _ -> false)
                 && (not (has_phis t_l))
                 && (not (has_phis f_l))
                 && (not (String.equal t_l mid_l))
                 && single_use uses c1 && single_use uses c2 ->
            let hi = match up with Ins.Slt -> Int64.sub hi_c 1L | _ -> hi_c in
            if Int64.compare hi lo >= 0 then begin
              let off_name = Func.fresh (Lazy.force names) "offset" in
              let res_name = Func.fresh (Lazy.force names) "inrange" in
              let add_ins =
                Ins.mk ~id:off_name ~ty
                  (Ins.Binop
                     (Ins.Add, x, Ins.Const (ty, Types.normalize ty (Int64.neg lo))))
              in
              let width = Int64.add (Int64.sub hi lo) 1L in
              let cmp_ins =
                Ins.mk ~id:res_name ~ty:Types.I1
                  (Ins.Icmp
                     ( Ins.Ult,
                       Ins.Reg (ty, off_name),
                       Ins.Const (ty, Types.normalize ty width) ))
              in
              bb1.Func.insns <-
                List.filter
                  (fun (i : Ins.ins) -> not (String.equal i.Ins.id c1))
                  bb1.Func.insns
                @ [ add_ins; cmp_ins ];
              bb1.Func.term <- Ins.Cbr (Ins.Reg (Types.I1, res_name), t_l, f_l);
              changed := true
            end
          | _ -> ())
        | _ -> ())
      | _ -> ())
    fn.Func.blocks;
  if !changed then ignore (Cfg.remove_unreachable fn);
  !changed

let run_function ctx (fn : Func.t) =
  let changed = ref false in
  (* the only definitions the folds look through: geps (constant loads)
     and zexts (boolean tests) *)
  let defs = Hashtbl.create 16 in
  Func.iter_insns
    (fun (i : Ins.ins) ->
      match i.Ins.kind with
      | Ins.Gep _ | Ins.Cast (Ins.Zext, _) -> Hashtbl.replace defs i.Ins.id i
      | _ -> ())
    fn;
  (* simplified result -> its value; applied before the CFG folds *)
  let subst = Hashtbl.create 16 in
  List.iter
    (fun (b : Func.block) ->
      b.Func.insns <-
        Func.filter_shared
          (fun (i : Ins.ins) ->
            Func.resolve_operands subst i;
            match if i.Ins.volatile then None else simplify_value i with
            | Some v ->
              Func.record subst i.Ins.id v;
              changed := true;
              false
            | None -> (
              match fold_bool_test defs subst i with
              | Some (`Value v) ->
                Func.record subst i.Ins.id v;
                changed := true;
                false
              | Some (`Negate v) ->
                (* (zext x) == 0  ~~>  x xor 1 *)
                i.Ins.kind <- Ins.Binop (Ins.Xor, v, Ins.Const (Types.I1, 1L));
                i.Ins.ty <- Types.I1;
                changed := true;
                true
              | None -> (
                match fold_const_load ctx fn defs subst i with
                | Some v ->
                  Func.record subst i.Ins.id v;
                  changed := true;
                  false
                | None ->
                  if strength_reduce i then changed := true;
                  true)))
          b.Func.insns)
    fn.Func.blocks;
  Func.substitute fn subst;
  if printf_to_puts ctx fn then changed := true;
  let before = facts fn in
  let folded = range_fold fn before in
  if folded then changed := true;
  if range_fold_branches fn (if folded then facts fn else before) then changed := true;
  !changed

let pass = Pass.function_pass "instcombine" run_function
