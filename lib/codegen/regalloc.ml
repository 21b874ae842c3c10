(** Linear-scan register allocation over the linearized vcode.

    Liveness is computed per block (iterative dataflow), then each vreg
    gets one conservative interval over the linear layout. Intervals that
    cross a clobber point (a call, or the argument-marshalling moves that
    precede it) are restricted to callee-saved registers; everything else
    draws from the caller-saved pool first. Intervals that fit nowhere are
    spilled to frame slots; spill code uses the two reserved scratch
    registers, so allocation never iterates. *)

open Mach

module ISet = Set.Make (Int)

(* [f] on each register read / written by an instruction (virtual or
   physical), in operand order. *)
let iter_reads f = function
  | Mmov (_, Oreg s) -> f s
  | Mmov (_, _) -> ()
  | Mbin (_, _, _, s1, o) | Mcmp (_, _, _, s1, o) -> (
    f s1;
    match o with Oreg s2 -> f s2 | _ -> ())
  | Mcmov (d, c, s) ->
    f d;
    f c;
    f s
  | Mld (_, _, Abase (b, _)) -> f b
  | Mld (_, _, (Aslot _ | Asym _)) -> ()
  | Mst (_, s, Abase (b, _)) ->
    f s;
    f b
  | Mst (_, s, (Aslot _ | Asym _)) -> f s
  | Mincmem (_, Abase (b, _)) -> f b
  | Mincmem (_, (Aslot _ | Asym _)) -> ()
  | Mlea (_, Abase (b, _)) -> f b
  | Mlea (_, (Aslot _ | Asym _)) -> ()
  | Mjnz (r, _) -> f r
  | Mjtab (r, _, _) -> f r
  | Mcallr r -> f r
  | Mcall _ -> ()
  | Mret -> f reg_ret
  | Mpush r -> f r
  | Mjmp _ | Mpop _ | Mspadj _ -> ()

let iter_writes f = function
  | Mmov (d, _) | Mbin (_, _, d, _, _) | Mcmp (_, _, d, _, _) | Mld (_, d, _)
  | Mlea (d, _) | Mpop d | Mcmov (d, _, _) ->
    f d
  | Mcall _ | Mcallr _ -> f reg_ret
  | Mst _ | Mincmem _ | Mjmp _ | Mjnz _ | Mjtab _ | Mret | Mpush _ | Mspadj _ -> ()

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let block_successors (vb : Isel.vblock) =
  List.concat_map
    (function
      | Mjmp t -> [ t ]
      | Mjnz (_, t) -> [ t ]
      | Mjtab (_, tbl, d) -> d :: (Array.to_list tbl |> List.map snd)
      | _ -> [])
    vb.Isel.vb_insts
  |> List.sort_uniq compare

(* Sets of virtual registers as bit vectors: one row of [width] ints per
   block in a flat array, vreg [num_phys + k] at bit [k]. *)
let bits = Sys.int_size

let mem_bit set row width r =
  let k = r - num_phys in
  set.((row * width) + (k / bits)) land (1 lsl (k mod bits)) <> 0

let add_bit set row width r =
  let k = r - num_phys in
  let w = (row * width) + (k / bits) in
  set.(w) <- set.(w) lor (1 lsl (k mod bits))

(* [f] on each vreg of a row, ascending. *)
let iter_bits f set row width =
  for w = 0 to width - 1 do
    let x = ref set.((row * width) + w) in
    let k = ref (w * bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then f (num_phys + !k);
      x := !x lsr 1;
      incr k
    done
  done

(* live-in/out of virtual registers per block (iterative dataflow to
   the least fixpoint); rows of [width] ints *)
let liveness (vc : Isel.vcode) =
  let n = Array.length vc.Isel.vc_blocks in
  let width = max 1 ((vc.Isel.vc_nvreg - num_phys + bits - 1) / bits) in
  let use = Array.make (n * width) 0 in
  let def = Array.make (n * width) 0 in
  Array.iteri
    (fun i vb ->
      let read r =
        if is_virtual r && not (mem_bit def i width r) then add_bit use i width r
      in
      let write r = if is_virtual r then add_bit def i width r in
      List.iter
        (fun inst ->
          iter_reads read inst;
          iter_writes write inst)
        vb.Isel.vb_insts)
    vc.Isel.vc_blocks;
  let succs = Array.map block_successors vc.Isel.vc_blocks in
  let live_in = Array.make (n * width) 0 in
  let live_out = Array.make (n * width) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      for w = 0 to width - 1 do
        let out =
          List.fold_left (fun acc s -> acc lor live_in.((s * width) + w)) 0 succs.(i)
        in
        let at = (i * width) + w in
        let inn = use.(at) lor (out land lnot def.(at)) in
        if out <> live_out.(at) || inn <> live_in.(at) then begin
          live_out.(at) <- out;
          live_in.(at) <- inn;
          changed := true
        end
      done
    done
  done;
  (live_in, live_out, width)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

type interval = { vreg : int; start : int; stop : int }

(* Intervals for virtual registers, plus *busy ranges* for physical
   registers: precolored lifetimes around entry-parameter reads, argument
   marshalling, call clobbers of the caller-saved set, and return-value
   hand-offs. A vreg may only be assigned a physical register whose busy
   ranges do not overlap the vreg's interval. *)
let intervals (vc : Isel.vcode) =
  let live_in, live_out, width = liveness vc in
  let nv = vc.Isel.vc_nvreg in
  (* first and last position of each vreg; -1 when never touched *)
  let starts = Array.make nv (-1) and stops = Array.make nv (-1) in
  let touch pos r =
    if is_virtual r then begin
      if starts.(r) < 0 || starts.(r) > pos then starts.(r) <- pos;
      if stops.(r) < pos then stops.(r) <- pos
    end
  in
  let pos = ref 0 in
  let block_start = Array.make (Array.length vc.Isel.vc_blocks) 0 in
  let block_end = Array.make (Array.length vc.Isel.vc_blocks) 0 in
  let busy = Array.make num_phys [] in
  let add_busy r s e = busy.(r) <- (s, e) :: busy.(r) in
  (* a "barrier" (re)defines the physical argument/return registers:
     function entry, and every call *)
  let last_barrier = ref 0 in
  Array.iteri
    (fun i vb ->
      block_start.(i) <- !pos;
      List.iter
        (fun inst ->
          iter_reads (touch !pos) inst;
          iter_writes (touch !pos) inst;
          (match inst with
          | Mcall _ | Mcallr _ ->
            (* calls clobber every caller-saved register *)
            add_busy reg_ret !pos !pos;
            List.iter (fun r -> add_busy r !pos !pos) caller_saved_pool;
            last_barrier := !pos
          | Mmov (d, _) when not (is_virtual d) && d <> reg_sp ->
            (* marshalling into a phys reg: busy until the consuming
               call/ret executes; conservatively to the next barrier *)
            add_busy d !pos (!pos + 8)
          | Mmov (_, Oreg s) when not (is_virtual s) ->
            (* reading a phys reg (entry params, call results): the value
               has been live since the last barrier *)
            add_busy s !last_barrier !pos
          | _ -> ());
          incr pos)
        vb.Isel.vb_insts;
      block_end.(i) <- !pos - 1)
    vc.Isel.vc_blocks;
  (* extend intervals over blocks where the vreg is live-in/out *)
  Array.iteri
    (fun i _ ->
      iter_bits (touch block_start.(i)) live_in i width;
      iter_bits (touch block_end.(i)) live_out i width)
    vc.Isel.vc_blocks;
  let ivals = ref [] in
  for r = nv - 1 downto num_phys do
    if starts.(r) >= 0 then
      ivals := { vreg = r; start = starts.(r); stop = stops.(r) } :: !ivals
  done;
  let ivals =
    List.stable_sort (fun a b -> Int.compare a.start b.start) !ivals
  in
  (ivals, busy)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

type assignment =
  | Unassigned
  | Phys of int
  | Spill of int  (** spill slot id *)

(* allocation order: caller-saved first *)
let pool = Array.of_list (caller_saved_pool @ callee_saved_pool)

let allocate (vc : Isel.vcode) =
  let ivals, busy = intervals vc in
  let assignment = Array.make vc.Isel.vc_nvreg Unassigned in
  (* end of the interval currently holding each physical register *)
  let held_until = Array.make num_phys (-1) in
  let next_spill = ref (List.length vc.Isel.vc_slots) in
  let spill_slots = ref [] in
  let used_callee_saved = ref ISet.empty in
  let conflicts_busy r iv =
    List.exists (fun (bs, be) -> bs <= iv.stop && iv.start <= be) busy.(r)
  in
  List.iter
    (fun iv ->
      (* a register is free once its holder's interval ended before
         this one starts (starts only grow) *)
      let rec find k =
        if k >= Array.length pool then -1
        else
          let r = pool.(k) in
          if held_until.(r) < iv.start && not (conflicts_busy r iv) then r
          else find (k + 1)
      in
      match find 0 with
      | -1 ->
        let slot = !next_spill in
        incr next_spill;
        spill_slots := (slot, 8) :: !spill_slots;
        assignment.(iv.vreg) <- Spill slot
      | r ->
        assignment.(iv.vreg) <- Phys r;
        if List.mem r callee_saved_pool then
          used_callee_saved := ISet.add r !used_callee_saved;
        held_until.(r) <- iv.stop)
    ivals;
  (assignment, List.rev !spill_slots, !used_callee_saved)

(* ------------------------------------------------------------------ *)
(* Rewrite: apply the assignment, inserting spill code                 *)
(* ------------------------------------------------------------------ *)

let rewrite (vc : Isel.vcode) (assignment : assignment array) =
  (* per-instruction spill state: scratch registers handed out so far,
     the spilled vregs already reloaded (and into which scratch), and the
     reload / store-back code around the instruction *)
  let scratches = [| scratch0; scratch1; scratch2 |] in
  let next_scratch = ref 0 in
  let reloaded = Array.make 3 (-1) and reloaded_into = Array.make 3 0 in
  let pre = ref [] and post = ref [] in
  let reload_of r =
    let rec go k =
      if k >= !next_scratch then -1
      else if reloaded.(k) = r then reloaded_into.(k)
      else go (k + 1)
    in
    go 0
  in
  let take_scratch r =
    let s = scratches.(!next_scratch) in
    reloaded.(!next_scratch) <- r;
    reloaded_into.(!next_scratch) <- s;
    incr next_scratch;
    s
  in
  (* map register operands: allocated ones directly; spilled reads
     reload into scratch, spilled writes store from scratch *)
  let read_reg r =
    if not (is_virtual r) then r
    else
      match assignment.(r) with
      | Phys p -> p
      | Spill slot -> (
        match reload_of r with
        | -1 ->
          if !next_scratch >= Array.length scratches then
            failwith "regalloc: out of scratch registers";
          let s = take_scratch r in
          pre := Mld (Ir.Types.I64, s, Aslot slot) :: !pre;
          s
        | s -> s)
      | Unassigned ->
        (* never defined: reading garbage is the program's business;
           give it scratch0 *)
        scratch0
  in
  let write_reg r =
    if not (is_virtual r) then r
    else
      match assignment.(r) with
      | Phys p -> p
      | Spill slot ->
        (* reuse the reload scratch when this instruction also read r
           (e.g. cmov); otherwise take a free scratch *)
        let s =
          match reload_of r with
          | -1 ->
            if !next_scratch < Array.length scratches then take_scratch (-1) else scratch0
          | s -> s
        in
        post := Mst (Ir.Types.I64, s, Aslot slot) :: !post;
        s
      | Unassigned -> scratch0
  in
  let read_addr = function Abase (b, o) -> Abase (read_reg b, o) | a -> a in
  let read_operand = function Oreg r -> Oreg (read_reg r) | o -> o in
  Array.iter
    (fun vb ->
      let out = ref [] in
      List.iter
        (fun inst ->
          next_scratch := 0;
          pre := [];
          post := [];
          let mapped =
            match inst with
            | Mmov (d, Oreg s) ->
              let s' = read_reg s in
              Mmov (write_reg d, Oreg s')
            | Mmov (d, o) -> Mmov (write_reg d, o)
            | Mbin (op, ty, d, s, o) ->
              let s' = read_reg s in
              let o' = read_operand o in
              Mbin (op, ty, write_reg d, s', o')
            | Mcmp (p, ty, d, s, o) ->
              let s' = read_reg s in
              let o' = read_operand o in
              Mcmp (p, ty, write_reg d, s', o')
            | Mcmov (d, c, s) ->
              (* cmov reads and writes d *)
              let c' = read_reg c in
              let s' = read_reg s in
              let d_read = read_reg d in
              let d' = write_reg d in
              if d' <> d_read then begin
                (* spilled dst: bring current value into scratch first *)
                pre := Mmov (d', Oreg d_read) :: !pre
              end;
              Mcmov (d', c', s')
            | Mld (ty, d, a) ->
              let a' = read_addr a in
              Mld (ty, write_reg d, a')
            | Mst (ty, s, a) ->
              let s' = read_reg s in
              let a' = read_addr a in
              Mst (ty, s', a')
            | Mincmem (ty, a) -> Mincmem (ty, read_addr a)
            | Mlea (d, a) ->
              let a' = read_addr a in
              Mlea (write_reg d, a')
            | Mjnz (r, t) -> Mjnz (read_reg r, t)
            | Mjtab (r, tbl, d) -> Mjtab (read_reg r, tbl, d)
            | Mcallr r -> Mcallr (read_reg r)
            | (Mjmp _ | Mcall _ | Mret | Mpush _ | Mpop _ | Mspadj _) as i -> i
          in
          out := List.rev_append (List.rev !pre) !out;
          out := mapped :: !out;
          out := List.rev_append (List.rev !post) !out)
        vb.Isel.vb_insts;
      vb.Isel.vb_insts <- List.rev !out)
    vc.Isel.vc_blocks
