(** Dead code elimination: removes side-effect-free instructions whose
    results are unused (volatile probes are never touched), and dead
    internal globals that nothing references. *)

open Ir

(* A removable definition: its remaining uses, and whether it is dead. *)
type def = { ins : Ins.ins; mutable uses : int; mutable dead : bool }

(* Worklist DCE: count uses once, then delete count-zero instructions,
   decrementing their operands' counts and deleting any definition whose
   count drops to zero. Reaches the same fixpoint as re-counting after
   every deletion sweep, in one pass. Only removable definitions (no
   side effect) are indexed: an operand naming anything else (a
   parameter, a call, a probe) can never free its definition. *)
let run_function _ctx (fn : Func.t) =
  let defs = Hashtbl.create 64 in
  let work = ref [] in
  Func.iter_insns
    (fun (i : Ins.ins) ->
      if not (Ins.has_side_effect i) then
        if i.Ins.id = "" then work := { ins = i; uses = 0; dead = false } :: !work
        else Hashtbl.replace defs i.Ins.id { ins = i; uses = 0; dead = false })
    fn;
  let bump = function
    | Ins.Reg (_, name) -> (
      match Hashtbl.find_opt defs name with Some d -> d.uses <- d.uses + 1 | None -> ())
    | _ -> ()
  in
  Func.iter_blocks
    (fun b ->
      List.iter (Ins.iter_operands bump) b.Func.insns;
      Ins.iter_term_operands bump b.Func.term)
    fn;
  Hashtbl.iter (fun _ d -> if d.uses = 0 then work := d :: !work) defs;
  let release = function
    | Ins.Reg (_, name) -> (
      match Hashtbl.find_opt defs name with
      | Some d ->
        d.uses <- d.uses - 1;
        if d.uses = 0 then work := d :: !work
      | None -> ())
    | _ -> ()
  in
  let changed = !work <> [] in
  while !work <> [] do
    match !work with
    | [] -> ()
    | d :: rest ->
      work := rest;
      if not d.dead then begin
        d.dead <- true;
        Ins.iter_operands release d.ins
      end
  done;
  if changed then begin
    let dead (i : Ins.ins) =
      (not (Ins.has_side_effect i))
      && (i.Ins.id = ""
         || match Hashtbl.find_opt defs i.Ins.id with Some d -> d.dead | None -> false)
    in
    List.iter
      (fun (b : Func.block) ->
        b.Func.insns <- Func.filter_shared (fun i -> not (dead i)) b.Func.insns)
      fn.Func.blocks
  end;
  changed

let function_pass = Pass.function_pass "dce" run_function

(** Remove internal globals that are completely unreferenced (dead
    functions after inlining, dead constants after folding). A global
    that only references itself is still referenced. *)
let global_dce (ctx : Pass.ctx) =
  let m = ctx.Pass.modul in
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let globals = Modul.globals m in
    let internal =
      List.filter (fun gv -> Modul.gvalue_linkage gv = Func.Internal) globals
    in
    if internal <> [] then begin
      let referenced = Hashtbl.create 64 in
      List.iter (Uses.iter_refs (fun s -> Hashtbl.replace referenced s ())) globals;
      List.iter
        (fun gv ->
          let name = Modul.gvalue_name gv in
          if not (Hashtbl.mem referenced name) then begin
            Modul.remove m name;
            changed := true;
            continue_ := true
          end)
        internal
    end
  done;
  !changed

let pass =
  Pass.mk "dce" (fun ctx ->
      let c1 = function_pass.Pass.run ctx in
      let c2 = global_dce ctx in
      c1 || c2)
