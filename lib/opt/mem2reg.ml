(** Promote memory to registers: allocas whose address never escapes and
    which are only read/written by direct loads and stores become SSA
    values, with phi nodes placed on iterated dominance frontiers. The
    frontend lowers every local variable through an alloca, so this pass
    is what actually puts the program into SSA form. *)

open Ir

module SSet = Set.Make (String)
module SMap = Map.Make (String)

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
  let disqualify name = Hashtbl.remove allocas name in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ins.ins) ->
          match i.Ins.kind with
          | Ins.Load (Ins.Reg (_, _)) -> ()
          | Ins.Store (v, Ins.Reg (_, _)) -> (
            (* storing the alloca's own address escapes it *)
            match v with
            | Ins.Reg (_, n) when Hashtbl.mem allocas n -> disqualify n
            | _ -> ())
          | _ ->
            List.iter
              (function
                | Ins.Reg (_, n) when Hashtbl.mem allocas n -> disqualify n
                | _ -> ())
              (Ins.operands i))
        b.Func.insns;
      List.iter
        (function
          | Ins.Reg (_, n) when Hashtbl.mem allocas n -> disqualify n
          | _ -> ())
        (Ins.term_operands b.Func.term))
    fn;
  allocas

let run_function _ctx (fn : Func.t) =
  if fn.Func.blocks = [] then false
  else begin
    let allocas = promotable_allocas fn in
    if Hashtbl.length allocas = 0 then false
    else begin
      let dom = Dom.compute fn in
      let frontiers = Dom.frontiers dom in
      (* Blocks that store to each alloca. *)
      let store_blocks = Hashtbl.create 16 in
      Func.iter_blocks
        (fun b ->
          List.iter
            (fun (i : Ins.ins) ->
              match i.Ins.kind with
              | Ins.Store (_, Ins.Reg (_, a)) when Hashtbl.mem allocas a ->
                let old =
                  Option.value ~default:SSet.empty (Hashtbl.find_opt store_blocks a)
                in
                Hashtbl.replace store_blocks a (SSet.add b.Func.label old)
              | _ -> ())
            b.Func.insns)
        fn;
      (* Phi placement on iterated dominance frontiers. *)
      let phis : (string, (string, Ins.ins) Hashtbl.t) Hashtbl.t =
        Hashtbl.create 16 (* block label -> (alloca -> phi ins) *)
      in
      let names = Func.name_supply fn in
      let phi_for label alloca ty =
        let per_block =
          match Hashtbl.find_opt phis label with
          | Some h -> h
          | None ->
            let h = Hashtbl.create 4 in
            Hashtbl.replace phis label h;
            h
        in
        match Hashtbl.find_opt per_block alloca with
        | Some p -> (p, false)
        | None ->
          (* include the block label: phis for the same alloca in
             different blocks get distinct names *)
          let p =
            Ins.mk
              ~id:(Func.fresh names (Printf.sprintf "%s.phi.%s" alloca label))
              ~ty (Ins.Phi [])
          in
          Hashtbl.replace per_block alloca p;
          (p, true)
      in
      Hashtbl.iter
        (fun alloca ty ->
          let work = ref (SSet.elements
            (Option.value ~default:SSet.empty (Hashtbl.find_opt store_blocks alloca)))
          in
          let placed = ref SSet.empty in
          while !work <> [] do
            match !work with
            | [] -> ()
            | label :: rest ->
              work := rest;
              let fr = Option.value ~default:[] (SMap.find_opt label frontiers) in
              List.iter
                (fun f ->
                  if not (SSet.mem f !placed) then begin
                    placed := SSet.add f !placed;
                    let _, fresh = phi_for f alloca ty in
                    if fresh then work := f :: !work
                  end)
                fr
          done)
        allocas;
      (* Renaming walk over the dominator tree. Phi arms are consed as
         the walk reaches each edge and put in order when the phis are
         materialized. *)
      let preds = Cfg.predecessors fn in
      let children = Dom.children dom in
      let block_of = Func.block_index fn in
      (* promoted load -> the value it read; applied once at the end *)
      let subst = Hashtbl.create 64 in
      let rec rename label (env : Ins.value SMap.t) =
        let b = Hashtbl.find block_of label in
        let env = ref env in
        let current alloca ty =
          match SMap.find_opt alloca !env with
          | Some v -> Func.resolve subst v
          | None -> Ins.Undef ty
        in
        (* incoming phis define new values *)
        (match Hashtbl.find_opt phis label with
        | None -> ()
        | Some per_block ->
          Hashtbl.iter
            (fun alloca (p : Ins.ins) -> env := SMap.add alloca (Ins.Reg (p.Ins.ty, p.Ins.id)) !env)
            per_block);
        let kept = ref [] in
        List.iter
          (fun (i : Ins.ins) ->
            match i.Ins.kind with
            | Ins.Alloca _ when Hashtbl.mem allocas i.Ins.id -> ()
            | Ins.Store (v, Ins.Reg (_, a)) when Hashtbl.mem allocas a ->
              env := SMap.add a v !env
            | Ins.Load (Ins.Reg (_, a)) when Hashtbl.mem allocas a ->
              Func.record subst i.Ins.id (current a i.Ins.ty)
            | _ -> kept := i :: !kept)
          b.Func.insns;
        b.Func.insns <- List.rev !kept;
        (* Fill successor phis with the value live at this edge. *)
        List.iter
          (fun succ ->
            match Hashtbl.find_opt phis succ with
            | None -> ()
            | Some per_block ->
              Hashtbl.iter
                (fun alloca (p : Ins.ins) ->
                  match p.Ins.kind with
                  | Ins.Phi arms ->
                    p.Ins.kind <- Ins.Phi ((label, current alloca p.Ins.ty) :: arms)
                  | _ -> ())
                per_block)
          (Cfg.successors b);
        List.iter
          (fun child -> rename child !env)
          (Option.value ~default:[] (Hashtbl.find_opt children label))
      in
      (match fn.Func.blocks with
      | [] -> ()
      | entry :: _ -> rename entry.Func.label SMap.empty);
      (* Materialize the placed phis at block heads. *)
      Hashtbl.iter
        (fun label per_block ->
          match Hashtbl.find_opt block_of label with
          | None -> ()
          | Some b ->
            let new_phis =
              Hashtbl.fold (fun _ p acc -> p :: acc) per_block []
              |> List.sort (fun (a : Ins.ins) b -> String.compare a.Ins.id b.Ins.id)
            in
            (* Guarantee every predecessor has an arm (undef if the walk
               never reached that edge, e.g. from unreachable code). *)
            let pred_labels = Option.value ~default:[] (SMap.find_opt label preds) in
            List.iter
              (fun (p : Ins.ins) ->
                match p.Ins.kind with
                | Ins.Phi arms ->
                  let reached = Hashtbl.create 8 in
                  List.iter (fun (l, _) -> Hashtbl.replace reached l ()) arms;
                  let missing =
                    List.filter_map
                      (fun l ->
                        if Hashtbl.mem reached l then None
                        else Some (l, Ins.Undef p.Ins.ty))
                      pred_labels
                  in
                  p.Ins.kind <- Ins.Phi (List.rev_append arms missing)
                | _ -> ())
              new_phis;
            b.Func.insns <- new_phis @ b.Func.insns)
        phis;
      Func.substitute fn subst;
      true
    end
  end

let pass = Pass.function_pass "mem2reg" run_function
