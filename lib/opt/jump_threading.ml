(** Jump threading — the paper's example of a pass that *clones* basic
    blocks (Section 2.2, item 4): when a block branches on a phi whose
    value is a constant along some incoming edge, that predecessor can
    jump straight through a specialized clone of the block, duplicating
    its code (and any coverage probes in it).

    Implementation: for a block B ending in [br (cond), T, F] where the
    branch condition reduces to a constant when entered from predecessor
    P (because it is, or is computed from, a phi with a constant arm for
    P), create a clone B_P with the phi arms resolved to P's values,
    retarget P to B_P, and let constant folding collapse the clone's
    branch. Successor phis gain an arm for the clone.

    Safety guard: the clone's successor-phi arm values must be constants,
    globals, or values defined inside B itself — anything else might not
    dominate the new edge. *)

open Ir

let max_clones_per_run = 16

(* Does the branch condition of [blk] become constant when the phis take
   their arms for predecessor [pred]? Returns the chosen successor. *)
let constant_target (blk : Func.block) pred =
  match blk.Func.term with
  | Ins.Cbr (cond, t, f) -> (
    let phi_value name =
      List.find_map
        (fun (i : Ins.ins) ->
          match i.Ins.kind with
          | Ins.Phi incoming when String.equal i.Ins.id name ->
            List.assoc_opt pred incoming
          | _ -> None)
        blk.Func.insns
    in
    let resolve = function
      | Ins.Const (ty, v) -> Some (ty, v)
      | Ins.Reg (_, n) -> (
        match phi_value n with
        | Some (Ins.Const (ty, v)) -> Some (ty, v)
        | _ ->
          (* one level of computation: icmp/binop over a phi + consts *)
          List.find_map
            (fun (i : Ins.ins) ->
              if not (String.equal i.Ins.id n) || i.Ins.volatile then None
              else
                match i.Ins.kind with
                | Ins.Icmp (p, Ins.Reg (_, a), Ins.Const (tb, vb)) -> (
                  match phi_value a with
                  | Some (Ins.Const (_, va)) -> Some (Types.I1, Eval.icmp tb p va vb)
                  | _ -> None)
                | Ins.Binop (op, Ins.Reg (_, a), Ins.Const (_, vb)) -> (
                  match phi_value a with
                  | Some (Ins.Const (_, va)) ->
                    Option.map (fun r -> (i.Ins.ty, r)) (Eval.binop i.Ins.ty op va vb)
                  | _ -> None)
                | _ -> None)
            blk.Func.insns)
      | _ -> None
    in
    match resolve cond with
    | Some (_, v) -> Some (if v <> 0L then t else f)
    | None -> None)
  | _ -> None

(* Labels of the blocks whose definitions escape: a definition used
   directly in another block, anywhere but in a successor-phi arm for
   the defining block's own edge (where a clone contributes its own
   arm). Such a use would be unreachable from a clone. One scan answers
   the question for every block. *)
let escaping_blocks (fn : Func.t) def_block =
  let escaping = Hashtbl.create 16 in
  let defined_elsewhere user = function
    | Ins.Reg (_, n) -> (
      match Hashtbl.find_opt def_block n with
      | Some d when not (String.equal d user) -> Some d
      | _ -> None)
    | _ -> None
  in
  let note user v =
    Option.iter (fun d -> Hashtbl.replace escaping d ()) (defined_elsewhere user v)
  in
  List.iter
    (fun (b : Func.block) ->
      let user = b.Func.label in
      List.iter
        (fun (i : Ins.ins) ->
          match i.Ins.kind with
          | Ins.Phi incoming ->
            List.iter
              (fun (l, v) ->
                match defined_elsewhere user v with
                | Some d when not (String.equal d l) -> Hashtbl.replace escaping d ()
                | _ -> ())
              incoming
          | _ -> List.iter (note user) (Ins.operands i))
        b.Func.insns;
      List.iter (note user) (Ins.term_operands b.Func.term))
    fn.Func.blocks;
  escaping

(* The function's indices for one threading step, built with one scan
   and dropped after the step. *)
type index = {
  block_of : (string, Func.block) Hashtbl.t;
  def_block : (string, string) Hashtbl.t;  (** name -> defining block *)
  escaping : (string, unit) Hashtbl.t;
}

let index (fn : Func.t) =
  let def_block = Hashtbl.create 64 in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun (i : Ins.ins) ->
          if i.Ins.id <> "" then Hashtbl.replace def_block i.Ins.id b.Func.label)
        b.Func.insns)
    fn.Func.blocks;
  { block_of = Func.block_index fn; def_block; escaping = escaping_blocks fn def_block }

(* Can we safely clone [blk] for one predecessor? Its definitions must not
   escape, and all successor-phi arm values for blk must be substitutable
   (constants/globals/blk-defined). *)
let clone_safe ix (blk : Func.block) =
  let defined_in_blk n =
    Option.equal String.equal (Hashtbl.find_opt ix.def_block n) (Some blk.Func.label)
  in
  (not (Hashtbl.mem ix.escaping blk.Func.label))
  && List.for_all
    (fun succ_l ->
      match Hashtbl.find_opt ix.block_of succ_l with
      | None -> false
      | Some (succ : Func.block) ->
        List.for_all
          (fun (i : Ins.ins) ->
            match i.Ins.kind with
            | Ins.Phi incoming -> (
              match List.assoc_opt blk.Func.label incoming with
              | None -> true
              | Some (Ins.Reg (_, n)) -> defined_in_blk n
              | Some (Ins.Const _ | Ins.Global _ | Ins.Undef _ | Ins.Blockaddr _) ->
                true)
            | _ -> true)
          succ.Func.insns)
    (Ins.successors blk.Func.term)

(* Clone [blk] specialized for predecessor [pred]. *)
let specialize (fn : Func.t) ix (blk : Func.block) pred =
  let clone_label = Func.fresh_label fn (blk.Func.label ^ ".thread") in
  let names = Func.name_supply fn in
  (* phi names resolve to the pred's arm value; other blk-defined names
     get fresh clones *)
  let subst : (string, Ins.value) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (i : Ins.ins) ->
      match i.Ins.kind with
      | Ins.Phi incoming ->
        let v =
          Option.value ~default:(Ins.Undef i.Ins.ty) (List.assoc_opt pred incoming)
        in
        Hashtbl.replace subst i.Ins.id v
      | _ -> ())
    blk.Func.insns;
  let map_value v =
    match v with
    | Ins.Reg (_, n) -> (
      match Hashtbl.find_opt subst n with Some v' -> v' | None -> v)
    | v -> v
  in
  let cloned =
    List.filter_map
      (fun (i : Ins.ins) ->
        match i.Ins.kind with
        | Ins.Phi _ -> None
        | _ ->
          let new_id =
            if i.Ins.id = "" then ""
            else begin
              let n = Func.fresh names (i.Ins.id ^ ".th") in
              Hashtbl.replace subst i.Ins.id (Ins.Reg (i.Ins.ty, n));
              n
            end
          in
          let copy = { i with Ins.id = new_id } in
          Ins.map_operands map_value copy;
          Some copy)
      blk.Func.insns
  in
  let term = Ins.map_term_operands map_value blk.Func.term in
  let clone = { Func.label = clone_label; insns = cloned; term } in
  fn.Func.blocks <- fn.Func.blocks @ [ clone ];
  (* successors gain an arm for the clone (the blk arm, substituted) *)
  List.iter
    (fun succ_l ->
      match Hashtbl.find_opt ix.block_of succ_l with
      | None -> ()
      | Some (succ : Func.block) ->
        List.iter
          (fun (i : Ins.ins) ->
            match i.Ins.kind with
            | Ins.Phi incoming -> (
              match List.assoc_opt blk.Func.label incoming with
              | None -> ()
              | Some v ->
                i.Ins.kind <- Ins.Phi (incoming @ [ (clone_label, map_value v) ]))
            | _ -> ())
          succ.Func.insns)
    (Ins.successors blk.Func.term);
  (* retarget the predecessor and drop its arm from blk's phis *)
  (match Hashtbl.find_opt ix.block_of pred with
  | None -> ()
  | Some pb ->
    let fix l = if String.equal l blk.Func.label then clone_label else l in
    pb.Func.term <-
      (match pb.Func.term with
      | Ins.Br l -> Ins.Br (fix l)
      | Ins.Cbr (c, a, b) -> Ins.Cbr (c, fix a, fix b)
      | Ins.Switch (v, d, cases) ->
        Ins.Switch (v, fix d, List.map (fun (k, l) -> (k, fix l)) cases)
      | t -> t));
  List.iter
    (fun (i : Ins.ins) ->
      match i.Ins.kind with
      | Ins.Phi incoming ->
        i.Ins.kind <-
          Ins.Phi (List.filter (fun (l, _) -> not (String.equal l pred)) incoming)
      | _ -> ())
    blk.Func.insns;
  clone

(* Cheap necessary condition for [constant_target] to find anything:
   the branch condition is a constant, or the block has a phi for it to
   reduce through. *)
let may_thread (blk : Func.block) =
  match blk.Func.term with
  | Ins.Cbr (Ins.Const _, _, _) -> true
  | Ins.Cbr (Ins.Reg _, _, _) ->
    List.exists
      (fun (i : Ins.ins) -> match i.Ins.kind with Ins.Phi _ -> true | _ -> false)
      blk.Func.insns
  | _ -> false

let run_function _ctx (fn : Func.t) =
  let changed = ref false in
  let budget = ref max_clones_per_run in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && List.exists may_thread fn.Func.blocks do
    continue_ := false;
    let preds = Cfg.predecessors fn in
    (* the index is only needed for a block that passes every cheaper
       test (all the tests are pure, so their order is free) *)
    let ix = lazy (index fn) in
    let entry_label =
      match fn.Func.blocks with [] -> "" | e :: _ -> e.Func.label
    in
    let candidate =
      List.find_map
        (fun (blk : Func.block) ->
          if not (may_thread blk) then None
          else if String.equal blk.Func.label entry_label then None
          else if List.mem blk.Func.label (Ins.successors blk.Func.term) then None
          else
            let ps = Cfg.preds_of preds blk.Func.label in
            if List.length ps < 2 then None
            else
              match List.find_opt (fun p -> constant_target blk p <> None) ps with
              | Some p when clone_safe (Lazy.force ix) blk -> Some (blk, p)
              | _ -> None)
        fn.Func.blocks
    in
    match candidate with
    | Some (blk, pred) ->
      ignore (specialize fn (Lazy.force ix) blk pred);
      decr budget;
      changed := true;
      continue_ := true;
      ignore (Cfg.remove_unreachable fn)
    | None -> ()
  done;
  !changed

let pass = Pass.function_pass "jump-threading" run_function
