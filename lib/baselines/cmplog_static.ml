(** AFL++-style CmpLog binary: comparison-operand logging instrumented
    *after* optimization (the industry pipeline of paper Figure 1). The
    logged operands are whatever the optimizer left behind — after the
    Figure 2 range fold, that is [x - L] rather than [x], which breaks the
    input-to-state correspondence the logging exists for. The contrast
    with Odin's instrument-first CmpLog is the paper's central
    correctness claim; `bench/main.exe fig2` quantifies it. *)

let runtime_fn = "__cmplog_static"

type record = { sr_pid : int; sr_lhs : int64; sr_rhs : int64 }

type t = {
  exe : Link.Linker.exe;
  n_probes : int;
  log : record Queue.t;
}

(* Names derive from the probe id, not a mutable counter, mirroring
   Odin.Cmplog: deterministic output for identical input. *)
let gensym fn ~pid hint = Ir.Func.fresh_name fn (Printf.sprintf "%s.p%d" hint pid)

(* Insert a logging call before [cmp] (mirrors Odin's CmpLog insertion,
   but on the post-optimization IR). *)
let insert_log (fn : Ir.Func.t) (blk : Ir.Func.block) (cmp : Ir.Ins.ins) pid =
  match cmp.Ir.Ins.kind with
  | Ir.Ins.Icmp (_, lhs, rhs) ->
    let widen hint v tail =
      match Ir.Ins.value_ty v with
      | Ir.Types.I64 | Ir.Types.Ptr -> (v, tail)
      | _ ->
        let name = gensym fn ~pid hint in
        let cast =
          Ir.Ins.mk ~volatile:true ~id:name ~ty:Ir.Types.I64
            (Ir.Ins.Cast (Ir.Ins.Sext, v))
        in
        (Ir.Ins.Reg (Ir.Types.I64, name), cast :: tail)
    in
    let lhs64, pre = widen "scmpargl" lhs [] in
    let rhs64, pre = widen "scmpargr" rhs pre in
    let call =
      Ir.Ins.mk ~volatile:true ~id:"" ~ty:Ir.Types.Void
        (Ir.Ins.Call
           (Ir.Ins.Direct runtime_fn, [ Ir.Builder.i64 pid; lhs64; rhs64 ]))
    in
    let rec insert_before = function
      | [] -> List.rev pre @ [ call ]
      | i :: rest when i == cmp -> List.rev pre @ (call :: i :: rest)
      | i :: rest -> i :: insert_before rest
    in
    blk.Ir.Func.insns <- insert_before blk.Ir.Func.insns
  | _ -> ()

(** Optimize a clone of [m], then instrument every remaining comparison. *)
let build ?(keep = [ "target_main" ]) ?(host = []) (m : Ir.Modul.t) =
  let copy = Ir.Clone.clone_module m in
  ignore (Opt.Pipeline.run ~keep copy);
  let pid = ref 0 in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_blocks
        (fun blk ->
          (* snapshot: insertion mutates the list *)
          let cmps =
            List.filter
              (fun (i : Ir.Ins.ins) ->
                match i.Ir.Ins.kind with
                | Ir.Ins.Icmp _ -> not i.Ir.Ins.volatile
                | _ -> false)
              blk.Ir.Func.insns
          in
          List.iter
            (fun cmp ->
              insert_log f blk cmp !pid;
              incr pid)
            cmps)
        f)
    (Ir.Modul.defined_functions copy);
  ignore
    (Ir.Modul.declare_function copy ~name:runtime_fn
       ~params:[ (Ir.Types.I64, "pid"); (Ir.Types.I64, "lhs"); (Ir.Types.I64, "rhs") ]
       ~ret:Ir.Types.Void);
  Ir.Verify.run_exn copy;
  let obj = Link.Objfile.of_module copy in
  let exe = Link.Linker.link ~host:(runtime_fn :: host) [ obj ] in
  { exe; n_probes = !pid; log = Queue.create () }

(** The host hook to register with the VM under {!runtime_fn}. *)
let host_hook t (vm : Vm.t) =
  Queue.add
    {
      sr_pid = Int64.to_int (Vm.reg vm 0);
      sr_lhs = Vm.reg vm 1;
      sr_rhs = Vm.reg vm 2;
    }
    t.log;
  0L

(** Drain the records collected since the last call, converted to the
    common CmpLog record type so the same solver consumes both. *)
let drain t =
  let out = ref [] in
  Queue.iter
    (fun r ->
      out :=
        {
          Odin.Cmplog.rec_pid = r.sr_pid;
          rec_lhs = r.sr_lhs;
          rec_rhs = r.sr_rhs;
        }
        :: !out)
    t.log;
  Queue.clear t.log;
  List.rev !out
