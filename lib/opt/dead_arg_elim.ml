(** Dead Argument Elimination — the paper's example interprocedural pass
    (Figure 4 and Figure 6). For an internal function whose parameter is
    never used, the parameter is removed *and every call site is updated
    in the same transaction*: performing only one half changes the ABI
    and crashes (Section 2.3). In trial mode this logs a Bond requirement
    between the function and each of its callers. *)

open Ir

let used_params (f : Func.t) =
  let used = Hashtbl.create 8 in
  let mark = function
    | Ins.Reg (_, n) -> Hashtbl.replace used n ()
    | _ -> ()
  in
  Func.iter_blocks
    (fun b ->
      List.iter (fun i -> List.iter mark (Ins.operands i)) b.Func.insns;
      List.iter mark (Ins.term_operands b.Func.term))
    f;
  used

let run (ctx : Pass.ctx) =
  let m = ctx.Pass.modul in
  let changed = ref false in
  (* module scans shared by every candidate; neither answer changes
     while the pass rewrites call arguments *)
  let address_taken = lazy (Uses.address_taken m) in
  let call_sites = lazy (Uses.call_sites m) in
  let candidates =
    List.filter
      (fun (f : Func.t) ->
        f.Func.linkage = Func.Internal
        && (not (Func.is_declaration f))
        && f.Func.params <> []
        && not (Uses.SSet.mem f.Func.name (Lazy.force address_taken)))
      (Modul.defined_functions m)
  in
  List.iter
    (fun (f : Func.t) ->
      let used = used_params f in
      let dead_idx =
        List.filteri (fun _ (_, p) -> not (Hashtbl.mem used p)) f.Func.params
        |> List.map (fun (_, p) -> p)
      in
      if dead_idx <> [] then begin
        let keep_positions =
          List.mapi (fun i (_, p) -> (i, Hashtbl.mem used p)) f.Func.params
        in
        let sites =
          Option.value ~default:[] (Hashtbl.find_opt (Lazy.force call_sites) f.Func.name)
        in
        (* All callers must be in the module (internal linkage guarantees
           it) — rewrite function signature and every call site. *)
        f.Func.params <- List.filter (fun (_, p) -> Hashtbl.mem used p) f.Func.params;
        List.iter
          (fun ((caller : Func.t), (call : Ins.ins)) ->
            (match call.Ins.kind with
            | Ins.Call (Ins.Direct name, args) when String.equal name f.Func.name ->
              let kept_args =
                List.filteri
                  (fun i _ ->
                    match List.assoc_opt i keep_positions with
                    | Some keep -> keep
                    | None -> true)
                  args
              in
              call.Ins.kind <- Ins.Call (Ins.Direct name, kept_args)
            | _ -> ());
            Pass.log_bond ctx f.Func.name caller.Func.name "dead-arg-elim")
          sites;
        changed := true
      end)
    candidates;
  !changed

let pass = Pass.mk "dead-arg-elim" run
