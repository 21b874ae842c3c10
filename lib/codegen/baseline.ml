(** Tier-0 baseline code generation: a single-pass backend with no
    liveness analysis and no linear-scan intervals.

    The optimizing path ({!Emit.compile_func}) runs instruction
    selection, an iterative liveness dataflow, interval construction,
    linear-scan allocation and a rewrite — roughly seven scans of the
    selected code, after the whole {!Opt.Pipeline} has already run.
    The baseline tier instead makes one irrevocable decision per
    virtual register at first sight: the first [window] distinct vregs
    each receive a *dedicated* callee-saved register, and every later
    vreg lives in a frame slot. Correctness does not depend on
    liveness because no two windowed vregs ever share a register,
    callee-saved registers survive calls by convention, and isel never
    materializes callee-saved registers itself (only argument/return
    registers and the reserved scratch set appear pre-allocation).
    Spilled traffic reuses the same scratch-register rewrite the
    optimizing tier uses ({!Regalloc.rewrite}), so the two tiers share
    every line of frame layout and branch resolution ({!Emit.finish}).

    The modelled compile cost is 2 passes over the selected code
    (assignment sweep + fused rewrite/layout) versus ~7 for the
    optimizing backend — before counting the [Opt.Pipeline] work the
    baseline tier skips entirely. *)

open Mach

(** Fixed allocation window: one dedicated register per early vreg. *)
let window = List.length callee_saved_pool

(** Compile one defined IR function through the baseline (tier-0)
    backend. Hits the same ["codegen.emit"] fault site as the
    optimizing path: fault plans target "a function compile", not a
    tier. *)
let compile_func ?cost (fn : Ir.Func.t) =
  Support.Fault.hit "codegen.emit";
  let vc = Isel.select fn in
  (match cost with Some c -> c := !c + (2 * Emit.vcode_size vc) | None -> ());
  let assignment = Array.make vc.Isel.vc_nvreg Regalloc.Unassigned in
  let pool = ref callee_saved_pool in
  let used = ref Regalloc.ISet.empty in
  let next_spill = ref (List.length vc.Isel.vc_slots) in
  let spill_slots = ref [] in
  let assign r =
    if is_virtual r && assignment.(r) = Regalloc.Unassigned then
      match !pool with
      | p :: rest ->
        pool := rest;
        used := Regalloc.ISet.add p !used;
        assignment.(r) <- Regalloc.Phys p
      | [] ->
        let slot = !next_spill in
        incr next_spill;
        spill_slots := (slot, 8) :: !spill_slots;
        assignment.(r) <- Regalloc.Spill slot
  in
  Array.iter
    (fun vb ->
      List.iter
        (fun inst ->
          Regalloc.iter_reads assign inst;
          Regalloc.iter_writes assign inst)
        vb.Isel.vb_insts)
    vc.Isel.vc_blocks;
  Regalloc.rewrite vc assignment;
  Emit.finish ~name:fn.Ir.Func.name vc (List.rev !spill_slots) !used
