(** CFG simplification: remove unreachable blocks, skip empty forwarding
    blocks, and merge straight-line block pairs (the "missing basic
    blocks" distortion of paper Section 2.2 — coverage probes placed per
    source block disappear when blocks are merged after optimization). *)

open Ir

(* Merge b's unique successor s into b when b is s's unique predecessor.
   Phis in s are resolved to their single arm.

   One walk in block order: a block absorbs successors while it can,
   then the walk moves on. A merge only renames s to b in the
   predecessor lists of s's successors (their lengths stay the same), so
   no block the walk has passed becomes mergeable again, and the merges
   happen in the order a restart-from-the-top search would find them.
   The predecessor map and the label table are kept in step with the
   merges instead of being rebuilt after each one. *)
let merge_pairs (fn : Func.t) protected =
  let entry_label = match fn.Func.blocks with [] -> "" | e :: _ -> e.Func.label in
  let preds = Cfg.predecessors fn in
  let block_of = Func.block_index fn in
  let merged = Hashtbl.create 16 in
  (* resolved phi -> its single arm; applied once at the end *)
  let subst = Hashtbl.create 16 in
  let mergeable (b : Func.block) =
    match b.Func.term with
    | Ins.Br succ_l when not (String.equal succ_l b.Func.label) -> (
      match Hashtbl.find_opt preds succ_l with
      | Some [ only_pred ]
        when String.equal only_pred b.Func.label
             && (not (String.equal succ_l entry_label))
             && not (Cfg.SSet.mem succ_l protected) ->
        Hashtbl.find_opt block_of succ_l
      | _ -> None)
    | _ -> None
  in
  let absorb (b : Func.block) (s : Func.block) =
    (* Resolve phis in s: single predecessor, take that arm. *)
    List.iter
      (fun (i : Ins.ins) ->
        match i.Ins.kind with
        | Ins.Phi incoming -> (
          match List.assoc_opt b.Func.label incoming with
          | Some v -> Func.record subst i.Ins.id v
          | None -> ())
        | _ -> ())
      s.Func.insns;
    b.Func.term <- s.Func.term;
    (* successors of s now flow from b: rename phi arms and preds *)
    let rename l = if String.equal l s.Func.label then b.Func.label else l in
    List.iter
      (fun succ2 ->
        (match Hashtbl.find_opt preds succ2 with
        | Some ps -> Hashtbl.replace preds succ2 (List.map rename ps)
        | None -> ());
        match Hashtbl.find_opt block_of succ2 with
        | None -> ()
        | Some blk ->
          List.iter
            (fun (i : Ins.ins) ->
              match i.Ins.kind with
              | Ins.Phi incoming ->
                i.Ins.kind <- Ins.Phi (List.map (fun (l, v) -> (rename l, v)) incoming)
              | _ -> ())
            blk.Func.insns)
      (Ins.successors s.Func.term);
    Hashtbl.replace merged s.Func.label ();
    List.filter
      (fun (i : Ins.ins) -> match i.Ins.kind with Ins.Phi _ -> false | _ -> true)
      s.Func.insns
  in
  List.iter
    (fun (b : Func.block) ->
      if not (Hashtbl.mem merged b.Func.label) then begin
        (* the absorbed bodies, last first: appended once *)
        let rec chain tails =
          match mergeable b with
          | Some s -> chain (absorb b s :: tails)
          | None -> tails
        in
        match chain [] with
        | [] -> ()
        | tails -> b.Func.insns <- List.concat (b.Func.insns :: List.rev tails)
      end)
    fn.Func.blocks;
  let changed = Hashtbl.length merged > 0 in
  if changed then
    fn.Func.blocks <-
      List.filter (fun (b : Func.block) -> not (Hashtbl.mem merged b.Func.label)) fn.Func.blocks;
  Func.substitute fn subst;
  changed

(* Forward jumps through empty blocks that only contain "br %next" and no
   phis; predecessors retarget, phi arms in the target are re-labelled. *)
let skip_empty (fn : Func.t) protected =
  let changed = ref false in
  let entry_label = match fn.Func.blocks with [] -> "" | e :: _ -> e.Func.label in
  let empties =
    List.filter_map
      (fun (b : Func.block) ->
        match (b.Func.insns, b.Func.term) with
        | [], Ins.Br target
          when (not (String.equal b.Func.label target))
               && (not (String.equal b.Func.label entry_label))
               && not (Cfg.SSet.mem b.Func.label protected) ->
          Some (b.Func.label, target)
        | _ -> None)
      fn.Func.blocks
  in
  if empties = [] then false
  else
  let preds = Cfg.predecessors fn in
  let block_of = Func.block_index fn in
  List.iter
    (fun (empty_l, target_l) ->
      match Hashtbl.find_opt block_of target_l with
      | None -> ()
      | Some target ->
        (* Retargeting is only safe w.r.t. phis when target's phi arms can
           be re-attributed uniquely: require that no predecessor of the
           empty block is already a predecessor of the target. *)
        let empty_preds = Cfg.preds_of preds empty_l in
        let target_preds = Cfg.preds_of preds target_l in
        let has_phi =
          List.exists
            (fun (i : Ins.ins) ->
              match i.Ins.kind with Ins.Phi _ -> true | _ -> false)
            target.Func.insns
        in
        let conflict =
          List.exists (fun p -> List.mem p target_preds) empty_preds
        in
        if (not conflict) && empty_preds <> [] then begin
          let retarget = function
            | Ins.Br l when String.equal l empty_l -> Ins.Br target_l
            | Ins.Cbr (c, a, b) ->
              let fix l = if String.equal l empty_l then target_l else l in
              Ins.Cbr (c, fix a, fix b)
            | Ins.Switch (v, d, cases) ->
              let fix l = if String.equal l empty_l then target_l else l in
              Ins.Switch (v, fix d, List.map (fun (k, l) -> (k, fix l)) cases)
            | t -> t
          in
          List.iter
            (fun p ->
              match Hashtbl.find_opt block_of p with
              | None -> ()
              | Some pb -> pb.Func.term <- retarget pb.Func.term)
            empty_preds;
          if has_phi then
            List.iter
              (fun (i : Ins.ins) ->
                match i.Ins.kind with
                | Ins.Phi incoming ->
                  let expanded =
                    List.concat_map
                      (fun (l, v) ->
                        if String.equal l empty_l then
                          List.map (fun p -> (p, v)) empty_preds
                        else [ (l, v) ])
                      incoming
                  in
                  i.Ins.kind <- Ins.Phi expanded
                | _ -> ())
              target.Func.insns;
          changed := true
        end)
    empties;
  if !changed then ignore (Cfg.remove_unreachable fn);
  !changed

let run_function protected (fn : Func.t) =
  let c1 = Cfg.remove_unreachable fn in
  let c2 = skip_empty fn protected in
  let c3 = merge_pairs fn protected in
  c1 || c2 || c3

(* A module pass rather than [Pass.function_pass]: the address-taken
   labels come from ONE whole-module scan shared by every function
   (asking per function rescans the module and turns the pass
   quadratic in program size). *)
let pass =
  Pass.mk "simplifycfg" (fun ctx ->
      let taken = Cfg.address_taken_map ctx.Pass.modul in
      List.fold_left
        (fun changed (fn : Func.t) ->
          let protected =
            Option.value ~default:Cfg.SSet.empty
              (Hashtbl.find_opt taken fn.Func.name)
          in
          run_function protected fn || changed)
        false
        (Modul.defined_functions ctx.Pass.modul))
