(** Promote memory to registers: allocas whose address never escapes and
    which are only read/written by direct loads and stores become SSA
    values, with phi nodes placed on iterated dominance frontiers. The
    frontend lowers every local variable through an alloca, so this pass
    is what actually puts the program into SSA form. *)

open Ir

(* An alloca is promotable when its only uses are Load (ptr) and
   Store (_, ptr) where ptr is the alloca result directly. *)
let promotable_allocas (fn : Func.t) =
  let allocas = Hashtbl.create 16 in
  Func.iter_insns
    (fun i ->
      match i.Ins.kind with
      | Ins.Alloca (ty, 1) -> Hashtbl.replace allocas i.Ins.id ty
      | _ -> ())
    fn;
  let disqualify = function
    | Ins.Reg (_, n) when Hashtbl.mem allocas n -> Hashtbl.remove allocas n
    | _ -> ()
  in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ins.ins) ->
          match i.Ins.kind with
          | Ins.Load (Ins.Reg (_, _)) -> ()
          | Ins.Store (v, Ins.Reg (_, _)) ->
            (* storing the alloca's own address escapes it *)
            disqualify v
          | _ -> Ins.iter_operands disqualify i)
        b.Func.insns;
      Ins.iter_term_operands disqualify b.Func.term)
    fn;
  allocas

(* A value no alloca binding can be: marks "no store seen yet". *)
let unbound = Ins.Undef Types.Void

let run_function _ctx (fn : Func.t) =
  if fn.Func.blocks = [] then false
  else begin
    let allocas = promotable_allocas fn in
    if Hashtbl.length allocas = 0 then false
    else begin
      let dom = Dom.compute fn in
      let order = dom.Dom.order in
      let n = Array.length order in
      let frontiers = Dom.frontiers dom in
      (* Blocks that store to each alloca. *)
      let store_blocks = Hashtbl.create 16 in
      Func.iter_blocks
        (fun b ->
          List.iter
            (fun (i : Ins.ins) ->
              match i.Ins.kind with
              | Ins.Store (_, Ins.Reg (_, a)) when Hashtbl.mem allocas a ->
                let old = Option.value ~default:[] (Hashtbl.find_opt store_blocks a) in
                Hashtbl.replace store_blocks a (b.Func.label :: old)
              | _ -> ())
            b.Func.insns)
        fn;
      (* Phi placement on iterated dominance frontiers: by block position,
         alloca -> phi. *)
      let phis : (string, Ins.ins) Hashtbl.t option array = Array.make n None in
      (* every phi name is "<alloca>.phi.<label>" or a numbered variant *)
      let names = Func.name_supply ~containing:".phi." fn in
      let phi_for pos alloca ty =
        let per_block =
          match phis.(pos) with
          | Some h -> h
          | None ->
            let h = Hashtbl.create 4 in
            phis.(pos) <- Some h;
            h
        in
        match Hashtbl.find_opt per_block alloca with
        | Some p -> (p, false)
        | None ->
          (* include the block label: phis for the same alloca in
             different blocks get distinct names *)
          let p =
            Ins.mk
              ~id:
                (Func.fresh names
                   (Printf.sprintf "%s.phi.%s" alloca order.(pos).Func.label))
              ~ty (Ins.Phi [])
          in
          Hashtbl.replace per_block alloca p;
          (p, true)
      in
      (* [placed.(pos) = k]: alloca number k already has a phi at pos *)
      let placed = Array.make n (-1) in
      let k = ref 0 in
      Hashtbl.iter
        (fun alloca ty ->
          let stamp = !k in
          incr k;
          let work =
            ref
              (List.sort_uniq String.compare
                 (Option.value ~default:[] (Hashtbl.find_opt store_blocks alloca)))
          in
          while !work <> [] do
            match !work with
            | [] -> ()
            | label :: rest ->
              work := rest;
              Option.iter
                (fun pos ->
                  List.iter
                    (fun f ->
                      if placed.(f) <> stamp then begin
                        placed.(f) <- stamp;
                        let _, fresh = phi_for f alloca ty in
                        if fresh then work := order.(f).Func.label :: !work
                      end)
                    frontiers.(pos))
                (Dom.position dom label)
          done)
        allocas;
      (* Renaming walk over the dominator tree. The current value of each
         alloca lives in [env] (by alloca number); a block's bindings are
         undone when its subtree is done. Phi arms are consed as the walk
         reaches each edge and put in order when the phis are
         materialized. *)
      let slot = Hashtbl.create (Hashtbl.length allocas) in
      Hashtbl.iter (fun a _ -> Hashtbl.replace slot a (Hashtbl.length slot)) allocas;
      let env = Array.make (Hashtbl.length slot) unbound in
      let undo = ref [] in
      let bind s v =
        undo := (s, env.(s)) :: !undo;
        env.(s) <- v
      in
      let children = Dom.children dom in
      (* promoted load -> the value it read; applied once at the end *)
      let subst = Hashtbl.create 64 in
      let current s ty =
        let v = env.(s) in
        if v == unbound then Ins.Undef ty else Func.resolve subst v
      in
      let rec rename pos =
        let b = order.(pos) in
        let mark = !undo in
        (* incoming phis define new values *)
        Option.iter
          (Hashtbl.iter (fun alloca (p : Ins.ins) ->
               bind (Hashtbl.find slot alloca) (Ins.Reg (p.Ins.ty, p.Ins.id))))
          phis.(pos);
        let slot_of name = match Hashtbl.find_opt slot name with Some s -> s | None -> -1 in
        b.Func.insns <-
          Func.filter_shared
            (fun (i : Ins.ins) ->
              match i.Ins.kind with
              | Ins.Alloca _ -> slot_of i.Ins.id < 0
              | Ins.Store (v, Ins.Reg (_, a)) -> (
                match slot_of a with
                | -1 -> true
                | s ->
                  bind s v;
                  false)
              | Ins.Load (Ins.Reg (_, a)) -> (
                match slot_of a with
                | -1 -> true
                | s ->
                  Func.record subst i.Ins.id (current s i.Ins.ty);
                  false)
              | _ -> true)
            b.Func.insns;
        (* Fill successor phis with the value live at this edge. *)
        List.iter
          (fun succ ->
            match Option.bind (Dom.position dom succ) (Array.get phis) with
            | None -> ()
            | Some per_block ->
              Hashtbl.iter
                (fun alloca (p : Ins.ins) ->
                  match p.Ins.kind with
                  | Ins.Phi arms ->
                    let v = current (Hashtbl.find slot alloca) p.Ins.ty in
                    p.Ins.kind <- Ins.Phi ((b.Func.label, v) :: arms)
                  | _ -> ())
                per_block)
          (Cfg.successors b);
        List.iter rename children.(pos);
        while !undo != mark do
          match !undo with
          | (s, old) :: rest ->
            env.(s) <- old;
            undo := rest
          | [] -> ()
        done
      in
      if n > 0 then rename 0;
      (* Materialize the placed phis at block heads. *)
      let preds = Cfg.predecessors fn in
      Array.iteri
        (fun pos per_block ->
          match per_block with
          | None -> ()
          | Some per_block ->
            let b = order.(pos) in
            let new_phis =
              Hashtbl.fold (fun _ p acc -> p :: acc) per_block []
              |> List.sort (fun (a : Ins.ins) b -> String.compare a.Ins.id b.Ins.id)
            in
            (* Guarantee every predecessor has an arm (undef if the walk
               never reached that edge, e.g. from unreachable code). The
               walk gives every phi of a block an arm on the same edges,
               so the missing predecessors are found once per block. *)
            let missing =
              match new_phis with
              | { Ins.kind = Ins.Phi arms; _ } :: _ ->
                let reached = Hashtbl.create 8 in
                List.iter (fun (l, _) -> Hashtbl.replace reached l ()) arms;
                List.filter
                  (fun l -> not (Hashtbl.mem reached l))
                  (Cfg.preds_of preds b.Func.label)
              | _ -> []
            in
            List.iter
              (fun (p : Ins.ins) ->
                match p.Ins.kind with
                | Ins.Phi arms ->
                  let undefs = List.map (fun l -> (l, Ins.Undef p.Ins.ty)) missing in
                  p.Ins.kind <- Ins.Phi (List.rev_append arms undefs)
                | _ -> ())
              new_phis;
            b.Func.insns <- new_phis @ b.Func.insns)
        phis;
      Func.substitute fn subst;
      true
    end
  end

let pass = Pass.function_pass "mem2reg" run_function
