(** CmpLog: comparison-operand logging (the paper's running example, used
    with RedQueen-style input-to-state correspondence).

    One probe per comparison instruction. An enabled probe compiles to a
    call to the runtime function [__odin_on_cmp(pid, lhs, rhs)] inserted
    *before* the comparison — and because Odin instruments before
    optimization, the logged operands are the program's original values,
    not post-optimization residues (the Figure 2 problem). Once the
    fuzzer has seen both outcomes of a comparison it is no longer a
    roadblock and the probe is removed. *)

let runtime_fn = "__odin_on_cmp"

type record = { rec_pid : int; rec_lhs : int64; rec_rhs : int64 }

(* Fresh names must be unique even before the new instructions are
   spliced into the function, so [Ir.Func.fresh_name] alone is not
   enough — it cannot see names that are not inserted yet. Deriving the
   name from the probe id (callers use distinct hints per operand)
   keeps it unique AND a pure function of the probe, never of campaign
   history: the printed fragment IR is the object-cache key and must be
   identical whenever the same probe set is applied, and fragment
   compiles run concurrently, so a shared counter is off the table. *)
let gensym fn ~pid hint = Ir.Func.fresh_name fn (Printf.sprintf "%s.p%d" hint pid)

type t = {
  session : Session.t;
  log : record Queue.t;  (** filled by the runtime hook during execution *)
  outcomes : (int, bool * bool) Hashtbl.t;  (** pid -> (seen true, seen false) *)
}

(* Insert the logging call before the (cloned) comparison. Operands are
   widened to i64 for the runtime call. *)
let insert_log (fn : Ir.Func.t) (cloned : Ir.Ins.ins) pid =
  match cloned.Ir.Ins.kind with
  | Ir.Ins.Icmp (_, lhs, rhs) ->
    let host =
      List.find_opt
        (fun (b : Ir.Func.block) -> List.memq cloned b.Ir.Func.insns)
        fn.Ir.Func.blocks
    in
    (match host with
    | None -> ()
    | Some blk ->
      let widen hint v tail =
        match Ir.Ins.value_ty v with
        | Ir.Types.I64 | Ir.Types.Ptr -> (v, tail)
        | _ ->
          let name = gensym fn ~pid hint in
          let cast =
            Ir.Ins.mk ~volatile:true ~id:name ~ty:Ir.Types.I64 (Ir.Ins.Cast (Ir.Ins.Sext, v))
          in
          (Ir.Ins.Reg (Ir.Types.I64, name), cast :: tail)
      in
      let lhs64, pre = widen "cmpargl" lhs [] in
      let rhs64, pre = widen "cmpargr" rhs pre in
      let call =
        Ir.Ins.mk ~volatile:true ~id:"" ~ty:Ir.Types.Void
          (Ir.Ins.Call
             (Ir.Ins.Direct runtime_fn, [ Ir.Builder.i64 pid; lhs64; rhs64 ]))
      in
      let rec insert_before = function
        | [] -> List.rev pre @ [ call ]
        | i :: rest when i == cloned -> List.rev pre @ (call :: i :: rest)
        | i :: rest -> i :: insert_before rest
      in
      blk.Ir.Func.insns <- insert_before blk.Ir.Func.insns)
  | _ -> ()

let patch (sched : Session.sched) =
  List.iter
    (fun (p : Instr.Probe.t) ->
      match p.Instr.Probe.payload with
      | Instr.Probe.Cmp c -> (
        match
          ( Session.map_func sched p.Instr.Probe.target,
            Session.map_ins sched c.Instr.Probe.cmp_ins )
        with
        | Some fn, Some cloned -> insert_log fn cloned p.Instr.Probe.pid
        | _ -> ())
      | _ -> ())
    sched.Session.active

(** One probe per comparison instruction in every defined function. *)
let setup (session : Session.t) =
  let t = { session; log = Queue.create (); outcomes = Hashtbl.create 64 } in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_insns
        (fun (i : Ir.Ins.ins) ->
          match i.Ir.Ins.kind with
          | Ir.Ins.Icmp _ when not i.Ir.Ins.volatile ->
            ignore
              (Instr.Manager.add session.Session.manager ~target:f.Ir.Func.name
                 (Instr.Probe.Cmp
                    { cmp_ins = i; cmp_solved = false; cmp_last = (0L, 0L) }))
          | _ -> ())
        f)
    (Ir.Modul.defined_functions session.Session.base);
  (* declare the runtime function in the base IR so fragments can call it *)
  ignore
    (Ir.Modul.declare_function session.Session.base ~name:runtime_fn
       ~params:[ (Ir.Types.I64, "pid"); (Ir.Types.I64, "lhs"); (Ir.Types.I64, "rhs") ]
       ~ret:Ir.Types.Void);
  Session.add_host_symbol session runtime_fn;
  Session.add_patcher session patch;
  t

(** The host function to register with the VM. *)
let host_hook t vm =
  let pid = Int64.to_int (Vm.reg vm 0) in
  let lhs = Vm.reg vm 1 in
  let rhs = Vm.reg vm 2 in
  Queue.add { rec_pid = pid; rec_lhs = lhs; rec_rhs = rhs } t.log;
  (match Instr.Manager.get t.session.Session.manager pid with
  | Some { Instr.Probe.payload = Instr.Probe.Cmp c; _ } ->
    c.Instr.Probe.cmp_last <- (lhs, rhs)
  | _ -> ());
  let seen_t, seen_f =
    Option.value ~default:(false, false) (Hashtbl.find_opt t.outcomes pid)
  in
  (* we do not know the predicate here; approximate outcome by equality,
     the dominant roadblock class for input-to-state solving *)
  let outcome = Int64.equal lhs rhs in
  Hashtbl.replace t.outcomes pid
    ((seen_t || outcome), (seen_f || not outcome));
  0L

(** Drain the operand log collected during the last execution(s). *)
let drain t =
  let out = ref [] in
  Queue.iter (fun r -> out := r :: !out) t.log;
  Queue.clear t.log;
  List.rev !out

(** Remove probes whose comparison has been solved (both outcomes seen) —
    the AFL++ policy the paper describes in Section 2.1. Returns the
    number removed. *)
let prune_solved t =
  let solved =
    List.filter
      (fun (p : Instr.Probe.t) ->
        match p.Instr.Probe.payload with
        | Instr.Probe.Cmp _ -> (
          match Hashtbl.find_opt t.outcomes p.Instr.Probe.pid with
          | Some (true, true) -> true
          | _ -> false)
        | _ -> false)
      (Instr.Manager.to_list t.session.Session.manager)
  in
  List.iter
    (fun (p : Instr.Probe.t) ->
      (match p.Instr.Probe.payload with
      | Instr.Probe.Cmp c -> c.Instr.Probe.cmp_solved <- true
      | _ -> ());
      Instr.Manager.remove t.session.Session.manager p)
    solved;
  List.length solved
