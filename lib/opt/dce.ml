(** Dead code elimination: removes side-effect-free instructions whose
    results are unused (volatile probes are never touched), and dead
    internal globals that nothing references. *)

open Ir

(* Worklist DCE: count uses once, then delete count-zero instructions,
   decrementing their operands' counts and deleting any definition whose
   count drops to zero. Reaches the same fixpoint as re-counting after
   every deletion sweep, in one pass. *)
let run_function _ctx (fn : Func.t) =
  let all = Array.of_list (List.concat_map (fun (b : Func.block) -> b.Func.insns) fn.Func.blocks) in
  let def = Hashtbl.create 64 and uses = Hashtbl.create 64 in
  Array.iteri (fun k (i : Ins.ins) -> if i.Ins.id <> "" then Hashtbl.replace def i.Ins.id k) all;
  let bump = function
    | Ins.Reg (_, n) -> (
      match Hashtbl.find_opt uses n with
      | Some c -> incr c
      | None -> Hashtbl.add uses n (ref 1))
    | _ -> ()
  in
  Array.iter (fun i -> List.iter bump (Ins.operands i)) all;
  List.iter (fun (b : Func.block) -> List.iter bump (Ins.term_operands b.Func.term)) fn.Func.blocks;
  let unused n = match Hashtbl.find_opt uses n with Some c -> !c = 0 | None -> true in
  let dead = Array.make (Array.length all) false in
  let work = Stack.create () in
  Array.iteri
    (fun k (i : Ins.ins) ->
      if (not (Ins.has_side_effect i)) && (i.Ins.id = "" || unused i.Ins.id) then
        Stack.push k work)
    all;
  while not (Stack.is_empty work) do
    let k = Stack.pop work in
    if not dead.(k) then begin
      dead.(k) <- true;
      List.iter
        (function
          | Ins.Reg (_, n) -> (
            match Hashtbl.find_opt uses n with
            | Some c ->
              decr c;
              if !c = 0 then (
                match Hashtbl.find_opt def n with
                | Some d when not (Ins.has_side_effect all.(d)) -> Stack.push d work
                | _ -> ())
            | None -> ())
          | _ -> ())
        (Ins.operands all.(k))
    end
  done;
  let changed = Array.exists Fun.id dead in
  if changed then begin
    let k = ref 0 in
    List.iter
      (fun (b : Func.block) ->
        b.Func.insns <-
          List.filter
            (fun _ ->
              let keep = not dead.(!k) in
              incr k;
              keep)
            b.Func.insns)
      fn.Func.blocks
  end;
  changed

let function_pass = Pass.function_pass "dce" run_function

(** Remove internal globals that are completely unreferenced (dead
    functions after inlining, dead constants after folding). *)
let global_dce (ctx : Pass.ctx) =
  let m = ctx.Pass.modul in
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let refs = Uses.referencers m in
    let dead =
      List.filter
        (fun gv ->
          Modul.gvalue_linkage gv = Func.Internal
          && Uses.SSet.is_empty (Uses.referencers_of refs (Modul.gvalue_name gv)))
        (Modul.globals m)
    in
    List.iter
      (fun gv ->
        Modul.remove m (Modul.gvalue_name gv);
        changed := true;
        continue_ := true)
      dead
  done;
  !changed

let pass =
  Pass.mk "dce" (fun ctx ->
      let c1 = function_pass.Pass.run ctx in
      let c2 = global_dce ctx in
      c1 || c2)
