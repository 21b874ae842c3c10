(** Constant folding and propagation (a light SCCP): folds instructions
    with constant operands, propagates the results, and folds conditional
    branches/switches on constants into unconditional ones. *)

open Ir

let const_of = function Ins.Const (ty, v) -> Some (ty, v) | _ -> None

(* Try to fold one instruction to a constant value. *)
let fold_ins (i : Ins.ins) =
  if i.Ins.volatile then None
  else
    match i.Ins.kind with
    | Ins.Binop (op, a, b) -> (
      match (const_of a, const_of b) with
      | Some (_, va), Some (_, vb) ->
        Option.map (fun r -> Ins.Const (i.Ins.ty, r)) (Eval.binop i.Ins.ty op va vb)
      | _ -> None)
    | Ins.Icmp (p, a, b) -> (
      match (const_of a, const_of b) with
      | Some (ta, va), Some (_, vb) ->
        Some (Ins.Const (Types.I1, Eval.icmp ta p va vb))
      | _ -> None)
    | Ins.Select (Ins.Const (_, c), a, b) -> Some (if c <> 0L then a else b)
    | Ins.Cast (c, a) -> (
      match const_of a with
      | Some (from, v) -> Some (Ins.Const (i.Ins.ty, Eval.cast c ~from ~into:i.Ins.ty v))
      | None -> None)
    | Ins.Phi [] -> None
    | Ins.Phi ((_, first) :: rest) ->
      (* all arms identical (and not self-referential) *)
      let same v =
        match (v, first) with
        | Ins.Const (t1, v1), Ins.Const (t2, v2) -> t1 = t2 && Int64.equal v1 v2
        | Ins.Reg (_, n1), Ins.Reg (_, n2) -> String.equal n1 n2
        | Ins.Global g1, Ins.Global g2 -> String.equal g1 g2
        | _ -> false
      in
      let not_self v =
        match v with Ins.Reg (_, n) -> not (String.equal n i.Ins.id) | _ -> true
      in
      if rest <> [] && List.for_all (fun (_, v) -> same v) rest && not_self first then
        Some first
      else None
    | _ -> None

(* When a fold deletes the CFG edge pred->succ, the phis in succ must drop
   the corresponding arm, otherwise codegen would insert a copy on a
   nonexistent edge. *)
let remove_phi_edge block_of ~pred ~succ =
  match Hashtbl.find_opt block_of succ with
  | None -> ()
  | Some (b : Func.block) ->
    List.iter
      (fun (i : Ins.ins) ->
        match i.Ins.kind with
        | Ins.Phi incoming ->
          i.Ins.kind <-
            Ins.Phi (List.filter (fun (l, _) -> not (String.equal l pred)) incoming)
        | _ -> ())
      b.Func.insns

let run_function _ctx (fn : Func.t) =
  let changed = ref false in
  let continue_ = ref true in
  (* folded result -> its constant; applied after each sweep *)
  let subst = Hashtbl.create 16 in
  while !continue_ do
    continue_ := false;
    let block_of = Func.block_index fn in
    List.iter
      (fun (b : Func.block) ->
        let kept = ref [] in
        List.iter
          (fun (i : Ins.ins) ->
            Func.resolve_operands subst i;
            match fold_ins i with
            | Some v ->
              Func.record subst i.Ins.id v;
              changed := true;
              continue_ := true
            | None -> kept := i :: !kept)
          b.Func.insns;
        b.Func.insns <- List.rev !kept;
        (* Fold constant terminators. *)
        b.Func.term <- Func.resolve_term subst b.Func.term;
        (match b.Func.term with
        | Ins.Cbr (Ins.Const (_, c), t, f) ->
          let taken, dropped = if c <> 0L then (t, f) else (f, t) in
          b.Func.term <- Ins.Br taken;
          if not (String.equal taken dropped) then
            remove_phi_edge block_of ~pred:b.Func.label ~succ:dropped;
          changed := true;
          continue_ := true
        | Ins.Cbr (_, t, f) when String.equal t f ->
          b.Func.term <- Ins.Br t;
          changed := true
        | Ins.Switch (Ins.Const (_, v), d, cases) ->
          let target =
            match List.assoc_opt v cases with Some l -> l | None -> d
          in
          let all_targets =
            List.sort_uniq String.compare (d :: List.map snd cases)
          in
          List.iter
            (fun l ->
              if not (String.equal l target) then
                remove_phi_edge block_of ~pred:b.Func.label ~succ:l)
            all_targets;
          b.Func.term <- Ins.Br target;
          changed := true;
          continue_ := true
        | _ -> ()))
      fn.Func.blocks;
    Func.substitute fn subst;
    if !continue_ then begin
      (* branch folding may strand blocks; drop them so phis stay sane *)
      ignore (Cfg.remove_unreachable fn)
    end
  done;
  !changed

let pass = Pass.function_pass "constfold" run_function
