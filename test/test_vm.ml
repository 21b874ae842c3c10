(* The VM's reuse contract and its allocation-free dispatch loop.

   - reset = create: one VM, reset between runs, is indistinguishable
     from a fresh VM per run. Compared after every run: return value,
     cycles, steps, the budget flag, the profile tables and all 1 MiB of
     guest memory. The run sequences are random and include
     budget-exhausted runs, mid-run faults, profiled and hooked runs,
     inputs spanning several pages, and an OSR migration.
   - The dispatch loop's arithmetic equals Ir.Eval on every (op, type).
   - A step allocates nothing.
   - The block-start index agrees with a scan of the block table.
   - write_buffer refuses an input that would reach the data image. *)

open Codegen.Mach

let entry = Fuzzer.Campaign.entry
let hosts = Workloads.Generate.host_functions

let with_hosts vm =
  List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) hosts;
  vm

(* a coverage-instrumented build, so profiled runs see counter sites *)
let session_exe profile =
  let m = Workloads.Generate.compile profile in
  let s =
    Odin.Session.create ~keep:[ entry ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~host:hosts ~pool:Support.Pool.serial m
  in
  ignore (Odin.Cov.setup s);
  ignore (Odin.Session.build s);
  Odin.Session.executable s

(* ---------------- reset = create ---------------- *)

type action =
  | Run of string
  | Fault_after of string * int
      (** the block hook faults at the k-th block entry: a mid-run trap *)
  | Profiled of string  (** profile on, plus a hook that charges cycles *)

let action_input = function Run i | Fault_after (i, _) | Profiled i -> i

let show_action = function
  | Run i -> Printf.sprintf "run(%d bytes)" (String.length i)
  | Fault_after (i, k) -> Printf.sprintf "fault@%d(%d bytes)" k (String.length i)
  | Profiled i -> Printf.sprintf "profiled(%d bytes)" (String.length i)

(* run [action] on [vm]; returns the outcome and the hook's call count *)
let perform vm action =
  let hook_calls = ref 0 in
  (match action with
  | Run _ -> ()
  | Fault_after (_, k) ->
    Vm.set_block_hook vm (fun _ _ _ ->
        incr hook_calls;
        if !hook_calls = k then raise (Vm.Fault "injected"))
  | Profiled _ ->
    ignore (Vm.enable_profile vm);
    Vm.set_block_hook vm (fun vm _ idx ->
        incr hook_calls;
        Vm.add_cycles vm (idx land 3)));
  let input = action_input action in
  let outcome =
    match
      let addr = Vm.write_buffer vm input in
      Vm.call vm entry [ addr; Int64.of_int (String.length input) ]
    with
    | v -> Printf.sprintf "ok %Ld" v
    | exception Vm.Fault _ ->
      if Vm.budget_exhausted vm then "hang" else "fault"
  in
  (outcome, !hook_calls)

let profile_view vm =
  match Vm.profile vm with
  | None -> None
  | Some p ->
    Some
      ( Vm.profile_top p,
        Vm.profile_blocks p,
        Vm.profile_inc_sites p,
        (p.Vm.pr_block_hits, p.Vm.pr_probe_hits, p.Vm.pr_calls, p.Vm.pr_host_calls)
      )

(* everything a caller can observe after a run, memory aside *)
let observe vm (outcome, hooks) =
  ( outcome,
    hooks,
    vm.Vm.cycles,
    vm.Vm.steps,
    Vm.budget_exhausted vm,
    profile_view vm,
    Vm.osr_migrations vm )

let same_state what reused fresh r f =
  if observe reused r <> observe fresh f then
    QCheck.Test.fail_reportf "%s: observations differ" what;
  if not (Bytes.equal (Vm.memory reused) (Vm.memory fresh)) then
    QCheck.Test.fail_reportf "%s: memory differs" what;
  true

(* one reused VM against a fresh VM per action *)
let reset_equals_create ~exe ~max_steps actions =
  let reused = with_hosts (Vm.create ~max_steps exe) in
  List.for_all
    (fun action ->
      Vm.reset reused exe;
      let r = perform reused action in
      let fresh = with_hosts (Vm.create ~max_steps exe) in
      let f = perform fresh action in
      same_state (show_action action) reused fresh r f)
    actions

let gen_input =
  QCheck.Gen.(
    frequency
      [
        (6, string_size ~gen:char (int_range 0 96));
        (* several pages, and across page boundaries *)
        (2, string_size ~gen:char (int_range 4000 13000));
      ])

let gen_action =
  QCheck.Gen.(
    gen_input >>= fun i ->
    frequency
      [
        (3, return (Run i));
        (2, map (fun k -> Fault_after (i, k)) (int_range 1 300));
        (2, return (Profiled i));
      ])

let arb_actions =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_action l))
    QCheck.Gen.(list_size (int_range 1 6) gen_action)

(* Calibrate the budget so both outcomes occur: the median step count
   of some sample inputs, so about half of the runs exhaust it. Returns
   the budget and the samples' inputs, cheapest first. *)
let calibrate exe =
  let samples =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:15 gen_input
  in
  let steps input =
    let vm = with_hosts (Vm.create exe) in
    match
      let addr = Vm.write_buffer vm input in
      Vm.call vm entry [ addr; Int64.of_int (String.length input) ]
    with
    | _ -> vm.Vm.steps
    | exception Vm.Fault _ -> max_int
  in
  let ranked =
    List.sort compare (List.map (fun i -> (steps i, i)) samples)
  in
  (fst (List.nth ranked 7), List.map snd ranked)

let prop_reset_equals_create name ~count =
  let exe = session_exe (Workloads.Profile.find_exn name) in
  let max_steps, _ = calibrate exe in
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "reset = create (%s)" name)
    arb_actions
    (reset_equals_create ~exe ~max_steps)

(* the sequences the property must cover do occur *)
let test_sequences_cover_outcomes () =
  let exe = session_exe Workloads.Profile.tiny in
  let max_steps, ranked = calibrate exe in
  let vm = with_hosts (Vm.create ~max_steps exe) in
  let outcome a =
    Vm.reset vm exe;
    fst (perform vm a)
  in
  let cheapest = List.hd ranked and dearest = List.nth ranked 14 in
  Alcotest.(check string) "costliest sample hangs" "hang"
    (outcome (Run dearest));
  Alcotest.(check string) "hook fault traps" "fault"
    (outcome (Fault_after (cheapest, 2)));
  Alcotest.(check bool) "cheapest sample completes" true
    (String.sub (outcome (Profiled cheapest)) 0 2 = "ok");
  Alcotest.(check bool) "profile saw counter sites" true
    (match Vm.profile vm with
    | Some p -> Vm.profile_inc_sites p <> []
    | None -> false)

(* ---------------- reset = create across an OSR migration ------------ *)

(* test_tier's target: Max partition, tiered, so promoting the helpers
   lands as an incremental patch with a slot delta to migrate with *)
let tier_src =
  {|
static int f0(int x) { if (x > 3) return x * 2; return x + 1; }
static int f1(int x) { int a = 0; for (int i = 0; i < 3; i++) a = a + f0(x + i); return a; }
static int f2(int x) { if ((x & 1) == 0) return f1(x); return f1(x + 1); }
static int f3(int x) { return f2(x) + f0(x); }
static int f4(int x) { int a = 0; while (x > 0) { a = a + f3(x); x = x - 7; } return a; }
int main(int x) { return f4(x) + f2(x + 5); }
|}

let test_reset_after_osr () =
  let m = Minic.Lower.compile tier_src in
  let s =
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~pool:Support.Pool.serial ~tiered:true m
  in
  ignore (Odin.Cov.setup s);
  ignore (Odin.Session.build s);
  let exe0 = Odin.Session.executable s in
  let main_fid = Hashtbl.find s.Odin.Session.plan.Odin.Partition.frag_of "main" in
  Odin.Session.promote s
    (List.filter
       (fun fid -> fid <> main_fid)
       (List.map fst (Odin.Session.fragment_sizes s)));
  (match Odin.Session.try_refresh s with
  | Some Odin.Session.Ok -> ()
  | _ -> Alcotest.fail "promotion refresh failed");
  let exe1 = Odin.Session.executable s in
  let obs vm r = (r, vm.Vm.cycles, vm.Vm.steps, Vm.osr_migrations vm, vm.Vm.exe == exe1) in
  let check what (reused, r) (fresh, f) =
    Alcotest.(check bool) (what ^ ": observations") true (obs reused r = obs fresh f);
    Alcotest.(check bool) (what ^ ": memory") true (Bytes.equal (Vm.memory reused) (Vm.memory fresh))
  in
  (* warm run, then a migration mid-history, on a VM that already ran
     something else *)
  let migrate vm =
    ignore (Vm.call vm "main" [ 17L ]);
    Alcotest.(check bool) "osr accepted" true (Odin.Session.osr_into s vm);
    let r = Vm.call vm "main" [ 50L ] in
    Alcotest.(check int) "migrated once" 1 (Vm.osr_migrations vm);
    r
  in
  let reused = Vm.create exe1 in
  ignore (Vm.call reused "main" [ 5L ]);
  Vm.reset reused exe0;
  let r = migrate reused in
  let fresh = Vm.create exe0 in
  let f = migrate fresh in
  check "migrating run" (reused, r) (fresh, f);
  List.iter
    (fun x ->
      Vm.reset reused exe1;
      let r = Vm.call reused "main" [ x ] in
      let fresh = Vm.create exe1 in
      let f = Vm.call fresh "main" [ x ] in
      check (Printf.sprintf "after migration, main(%Ld)" x) (reused, r) (fresh, f);
      Alcotest.(check bool) "stack map cleared" true (Vm.last_stack_map reused = None))
    [ 0L; 1L; 50L ]

(* ---------------- arithmetic: the VM's fast path = Ir.Eval ------------ *)

(* a one-function executable running [code] on r0, r1 *)
let exe_of code =
  let mf =
    mfunc ~name:"f" ~code:(Array.of_list code) ~blocks:[| (0, "entry") |]
      ~frame:0
  in
  let funcs = Hashtbl.create 1 in
  Hashtbl.replace funcs "f" mf;
  {
    Link.Linker.funcs;
    sym_addr = Hashtbl.create 1;
    fn_at_addr = Hashtbl.create 1;
    host_at_addr = Hashtbl.create 1;
    host_syms = Hashtbl.create 1;
    image = [];
    data_end = Link.Linker.data_base;
    symbols_resolved = 0;
  }

let binops =
  Ir.Ins.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; And; Or; Xor; Shl; Lshr; Ashr ]

let icmps = Ir.Ins.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]
let tys = Ir.Types.[ I1; I8; I16; I32; I64; Ptr; Void ]

let edges =
  [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000L; 0x7FFF_FFFFL;
    0xFFL; 0x80L; 0xFFFFL; 63L; 64L; -64L ]

(* one VM, reset onto each single-instruction executable *)
let arith_vm = Vm.create (exe_of [ Mret ])

let run_inst inst a b =
  Vm.reset arith_vm (exe_of [ inst; Mret ]);
  Vm.call arith_vm "f" [ a; b ]

let vm_binop op ty a b ~imm =
  let o = if imm then Oimm b else Oreg 1 in
  match run_inst (Mbin (op, ty, 0, 0, o)) a b with
  | v -> Some v
  | exception Vm.Fault _ -> None

let vm_icmp p ty a b ~imm =
  run_inst (Mcmp (p, ty, 0, 0, if imm then Oimm b else Oreg 1)) a b

let agrees a b =
  List.for_all
    (fun ty ->
      List.for_all
        (fun op ->
          let want = Ir.Eval.binop ty op a b in
          vm_binop op ty a b ~imm:false = want && vm_binop op ty a b ~imm:true = want)
        binops
      && List.for_all
           (fun p ->
             let want = Ir.Eval.icmp ty p a b in
             vm_icmp p ty a b ~imm:false = want && vm_icmp p ty a b ~imm:true = want)
           icmps)
    tys

let test_arith_edges () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (agrees a b) then
            Alcotest.failf "VM arithmetic differs from Ir.Eval on (%Ld, %Ld)" a b)
        edges)
    edges

let prop_arith_random =
  QCheck.Test.make ~count:300 ~name:"Mbin/Mcmp = Ir.Eval (random operands)"
    QCheck.(pair int64 int64)
    (fun (a, b) -> agrees a b)

(* ---------------- allocation, block index, write_buffer ---------------- *)

let loop_src =
  {|
int g[64];
int f(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) {
    acc = acc + (i * 3) % 7 - (i >> 2);
    g[i & 63] = acc;
    if (acc > g[(i + 1) & 63]) acc = acc ^ 5;
  }
  return acc;
}
|}

let test_step_allocates_nothing () =
  let exe = Link.Linker.link [ Link.Objfile.of_module (Minic.Lower.compile loop_src) ] in
  let vm = Vm.create exe in
  ignore (Vm.call vm "f" [ 10L ]);
  Vm.reset vm exe;
  let before = Gc.minor_words () in
  ignore (Vm.call vm "f" [ 20_000L ]);
  let words = Gc.minor_words () -. before in
  let per_step = words /. float_of_int vm.Vm.steps in
  if per_step > 0.001 then
    Alcotest.failf "%.0f words over %d steps (%.4f per step)" words vm.Vm.steps
      per_step

let test_block_index () =
  let exe = session_exe (Workloads.Profile.find_exn "json") in
  Hashtbl.iter
    (fun _ (mf : mfunc) ->
      let scan pc =
        let rec go i =
          if i >= Array.length mf.mf_blocks then -1
          else if fst mf.mf_blocks.(i) = pc then i
          else go (i + 1)
        in
        go 0
      in
      for pc = 0 to Array.length mf.mf_code do
        Alcotest.(check int)
          (Printf.sprintf "%s pc %d" mf.mf_name pc)
          (scan pc) mf.mf_block_at.(pc)
      done)
    exe.Link.Linker.funcs

let test_write_buffer_bounds () =
  let exe = session_exe Workloads.Profile.tiny in
  let data_end = exe.Link.Linker.data_end in
  let image_word vm = Vm.load_mem vm Ir.Types.I64 (Int64.of_int Link.Linker.data_base) in
  List.iter
    (fun len ->
      let vm = Vm.create exe in
      let before = image_word vm in
      (match Vm.write_buffer vm (String.make len 'A') with
      | _ -> Alcotest.failf "a %d-byte input was accepted" len
      | exception Vm.Fault _ -> ());
      Alcotest.(check int64)
        (Printf.sprintf "data image intact after %d bytes" len)
        before (image_word vm))
    [ 800_000; 2_000_000 ];
  (* the largest input that fits still does *)
  let vm = Vm.create exe in
  let room = vm.Vm.stack_base - data_end in
  let addr = Vm.write_buffer vm (String.make room 'A') in
  Alcotest.(check bool) "largest fitting input lands above the image" true
    (Int64.to_int addr >= data_end)

let () =
  Alcotest.run "vm"
    [
      ( "reuse",
        [
          Alcotest.test_case "sequences cover every outcome" `Quick
            test_sequences_cover_outcomes;
          QCheck_alcotest.to_alcotest (prop_reset_equals_create "tinytarget" ~count:40);
          QCheck_alcotest.to_alcotest (prop_reset_equals_create "json" ~count:25);
          QCheck_alcotest.to_alcotest (prop_reset_equals_create "sqlite" ~count:15);
          Alcotest.test_case "reset = create across OSR" `Quick
            test_reset_after_osr;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "arithmetic = Ir.Eval on edges" `Quick
            test_arith_edges;
          QCheck_alcotest.to_alcotest prop_arith_random;
          Alcotest.test_case "a step allocates nothing" `Quick
            test_step_allocates_nothing;
          Alcotest.test_case "block-start index" `Quick test_block_index;
        ] );
      ( "input",
        [
          Alcotest.test_case "write_buffer bounds" `Quick
            test_write_buffer_bounds;
        ] );
    ]
