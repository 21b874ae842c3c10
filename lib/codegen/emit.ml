(** Frame lowering and final code layout: prologue/epilogue insertion,
    frame-slot resolution, and branch-target resolution from block ids to
    instruction indices.

    [finish] is the tier-independent tail of code generation: both the
    optimizing path below and the tier-0 baseline path ({!Baseline})
    feed it a rewritten vcode plus the spill/callee-saved bookkeeping
    their allocator produced. *)

open Mach

(** Number of selected (virtual) instructions — the unit of the modelled
    compile-cost accounting threaded through [?cost] below. *)
let vcode_size (vc : Isel.vcode) =
  Array.fold_left
    (fun acc vb -> acc + List.length vb.Isel.vb_insts)
    0 vc.Isel.vc_blocks

(** Finish compilation of a rewritten (physical-register) vcode: frame
    layout, prologue/epilogue, linear block layout and branch-target
    resolution. *)
let finish ~name (vc : Isel.vcode) spill_slots used_callee =
  (* frame layout: alloca slots then spill slots, 8-byte aligned *)
  let all_slots = vc.Isel.vc_slots @ spill_slots in
  let offsets = Hashtbl.create 16 in
  let frame =
    List.fold_left
      (fun off (slot, size) ->
        Hashtbl.replace offsets slot off;
        off + ((size + 7) / 8 * 8))
      0 all_slots
  in
  let frame = (frame + 15) / 16 * 16 in
  let resolve_slot = function
    | Aslot s -> (
      match Hashtbl.find_opt offsets s with
      | Some off -> Abase (reg_sp, off)
      | None -> failwith "emit: unknown frame slot")
    | a -> a
  in
  let resolve_inst = function
    | Mld (ty, d, a) -> Mld (ty, d, resolve_slot a)
    | Mst (ty, s, a) -> Mst (ty, s, resolve_slot a)
    | Mincmem (ty, a) -> Mincmem (ty, resolve_slot a)
    | Mlea (d, a) -> Mlea (d, resolve_slot a)
    | i -> i
  in
  let saved = Regalloc.ISet.elements used_callee in
  let prologue =
    List.map (fun r -> Mpush r) saved @ (if frame > 0 then [ Mspadj (-frame) ] else [])
  in
  let epilogue =
    (if frame > 0 then [ Mspadj frame ] else [])
    @ List.rev_map (fun r -> Mpop r) saved
  in
  (* expand rets with the epilogue, resolve slots *)
  let expanded_blocks =
    Array.map
      (fun vb ->
        let insts =
          List.concat_map
            (fun inst ->
              match inst with
              | Mret -> epilogue @ [ Mret ]
              | i -> [ resolve_inst i ])
            vb.Isel.vb_insts
        in
        (vb.Isel.vb_id, vb.Isel.vb_label, insts))
      vc.Isel.vc_blocks
  in
  (* layout: prologue, then blocks in order; record start indices *)
  let nblocks = Array.length expanded_blocks in
  let block_start = Array.make nblocks 0 in
  let total =
    let pos = ref (List.length prologue) in
    Array.iteri
      (fun i (_, _, insts) ->
        block_start.(i) <- !pos;
        pos := !pos + List.length insts)
      expanded_blocks;
    !pos
  in
  let code = Array.make (max total 1) Mret in
  List.iteri (fun i inst -> code.(i) <- inst) prologue;
  Array.iteri
    (fun i (_, _, insts) ->
      List.iteri (fun j inst -> code.(block_start.(i) + j) <- inst) insts)
    expanded_blocks;
  (* resolve branch targets from block ids to instruction indices *)
  Array.iteri
    (fun i inst ->
      code.(i) <-
        (match inst with
        | Mjmp t -> Mjmp block_start.(t)
        | Mjnz (r, t) -> Mjnz (r, block_start.(t))
        | Mjtab (r, tbl, d) ->
          Mjtab (r, Array.map (fun (k, t) -> (k, block_start.(t))) tbl, block_start.(d))
        | i -> i))
    code;
  let blocks =
    Array.mapi (fun i (_, label, _) -> (block_start.(i), label)) expanded_blocks
  in
  Mach.mfunc ~name ~code ~blocks ~frame

(** Compile one defined IR function to machine code through the
    optimizing (tier-1) backend. Declares the ["codegen.emit"] fault
    site (one hit per function compiled).

    When [cost] is given, the modelled backend work is accumulated into
    it: one pass of instruction selection, ~4 passes of liveness /
    interval construction / allocation, one rewrite pass and one layout
    pass — 7 scans of the selected code. The tier-0 baseline
    ({!Baseline.compile_func}) charges 2. *)
let compile_func ?cost (fn : Ir.Func.t) =
  Support.Fault.hit "codegen.emit";
  let vc = Isel.select fn in
  (match cost with Some c -> c := !c + (7 * vcode_size vc) | None -> ());
  let assignment, spill_slots, used_callee = Regalloc.allocate vc in
  Regalloc.rewrite vc assignment;
  finish ~name:fn.Ir.Func.name vc spill_slots used_callee

let func_to_string (mf : mfunc) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s: (frame %d)\n" mf.mf_name mf.mf_frame);
  Array.iteri
    (fun i inst ->
      Array.iter
        (fun (start, label) ->
          if start = i then Buffer.add_string buf (Printf.sprintf ".%s:\n" label))
        mf.mf_blocks;
      Buffer.add_string buf (Printf.sprintf "  %3d  %s\n" i (Mach.to_string inst)))
    mf.mf_code;
  Buffer.contents buf
