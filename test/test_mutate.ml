(* Mutation testing served by probe toggling: operator units, the
   disarmed-mutants-are-bit-pristine contract, kill-matrix determinism
   across worker counts and farm substrates, checkpoint/resume
   equality, and the timeout verdict for non-terminating mutants.

   The headline contract mirrors the fuzzing farm's: per-mutant
   verdicts are pure functions of (mutant, suite), so the merged kill
   matrix is bit-identical for --workers 1/2/4, for domains vs procs,
   and across a checkpoint/resume split. *)

module Pool = Support.Pool
module Gen = Mutate.Gen
module Analysis = Mutate.Analysis

(* The test binary doubles as the worker executable: the supervisor
   re-execs us with the hidden subcommand, exactly like odinc. Must run
   before Alcotest sees argv. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "mutate-worker" then
    Analysis.worker_main ()

let worker_argv = [| Sys.executable_name; "mutate-worker" |]
let compile = Minic.Lower.compile

(* Entry follows the workload convention: int tmain(char *buf, int len).
   Every operator family has a deliberately killable site:
   - aor:   len + 3 -> len - 3
   - ror:   len < 4 -> len <= 4 (boundary input len = 4 in the suite)
   - const: the literals 3, 4, 2, 12 each +1
   - sdl:   the store to the global accumulator
   - brs:   the if's then/else swap *)
let unit_src =
  {|
static int g;
int tmain(char *buf, int len) {
  int acc = len + 3;
  if (len < 4) acc = acc * 2;
  g = acc;
  acc = acc ^ 12;
  return acc + g;
}
|}

let unit_suite = [ "ab"; "abcd"; "abcdef" ]

let mk_cfg ?(workers = 1) ?(mode = Analysis.Domains) ?families ?limit
    ?(max_steps = 2_000_000) ?deadline ?(chunk = 8) ?checkpoint ?(resume = false)
    ?stop_after () =
  {
    Analysis.default_config with
    Analysis.mc_workers = workers;
    mc_mode = mode;
    mc_families = Option.value ~default:Gen.all_families families;
    mc_limit = limit;
    mc_max_steps = max_steps;
    mc_deadline = deadline;
    mc_chunk = chunk;
    mc_checkpoint = checkpoint;
    mc_resume = resume;
    mc_stop_after = stop_after;
    mc_worker_argv = Some worker_argv;
    mc_worker_timeout = 30.;
  }

let run ?telemetry ?journal ?(entry = "tmain") cfg ~suite m =
  Analysis.run ?telemetry ?journal ~entry ~suite cfg m

(* ---------------- units: operator selection ---------------- *)

let test_families_of_spec () =
  Alcotest.(check int) "all" 5 (List.length (Gen.families_of_spec "all"));
  Alcotest.(check int) "empty means all" 5 (List.length (Gen.families_of_spec ""));
  Alcotest.(check bool) "aor,ror" true
    (Gen.families_of_spec "aor, ror" = [ Gen.Aor; Gen.Ror ]);
  Alcotest.check_raises "unknown operator rejected"
    (Invalid_argument
       "unknown mutation operator \"bogus\" (expected aor,ror,const,sdl,brs)")
    (fun () -> ignore (Gen.families_of_spec "bogus"))

(* ---------------- units: each operator plants and kills ---------------- *)

let rows_of fam (m : Analysis.matrix) =
  List.filter (fun r -> r.Analysis.r_family = fam) m.Analysis.m_rows

let test_operators_plant_and_kill () =
  let matrix, stats = run (mk_cfg ()) ~suite:unit_suite (compile unit_src) in
  Alcotest.(check bool) "mutants generated" true (matrix.Analysis.m_generated > 0);
  Alcotest.(check int) "suite size" 3 matrix.Analysis.m_tests;
  List.iter
    (fun fam ->
      let rows = rows_of fam matrix in
      Alcotest.(check bool)
        (Gen.family_to_string fam ^ " planted")
        true (rows <> []);
      Alcotest.(check bool)
        (Gen.family_to_string fam ^ " killed at least once")
        true
        (List.exists (fun r -> r.Analysis.r_verdict = Analysis.Killed) rows))
    Gen.all_families;
  (* score is consistent with the verdict counts *)
  Alcotest.(check int) "verdicts partition the mutants"
    matrix.Analysis.m_generated
    (matrix.Analysis.m_killed + matrix.Analysis.m_survived
   + matrix.Analysis.m_timeout);
  (* one initial compile; every mutant served by the toggle path *)
  Alcotest.(check int) "one full compile" 1 stats.Analysis.s_initial_links;
  Alcotest.(check int) "no full relinks beyond the initial build"
    stats.Analysis.s_initial_links stats.Analysis.s_full_links;
  Alcotest.(check bool) "every mutant relinked incrementally" true
    (stats.Analysis.s_incr_links >= matrix.Analysis.m_generated)

(* the boundary mutant (ror slt->sle) is only caught by the boundary
   input: drop len=4 from the suite and it must survive *)
let test_boundary_input_matters () =
  let cfg = mk_cfg ~families:[ Gen.Ror ] () in
  let with_boundary, _ = run cfg ~suite:unit_suite (compile unit_src) in
  let without, _ = run cfg ~suite:[ "ab"; "abcdef" ] (compile unit_src) in
  let killed m =
    List.length
      (List.filter
         (fun r -> r.Analysis.r_verdict = Analysis.Killed)
         m.Analysis.m_rows)
  in
  Alcotest.(check bool) "boundary input kills more ror mutants" true
    (killed with_boundary > killed without);
  Alcotest.(check bool) "a ror mutant survives the weakened suite" true
    (without.Analysis.m_survived > 0)

(* ---------------- semantics: disarmed mutants are bit-pristine -------- *)

module L = Link.Linker

let exe_obs (exe : L.exe) =
  let img =
    List.sort compare
      (List.map (fun (b, by) -> (b, Bytes.to_string by)) exe.L.image)
  in
  let syms =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) exe.L.sym_addr []
    |> List.sort compare
  in
  (img, syms, exe.L.data_end)

let test_disarmed_is_pristine () =
  let m = compile unit_src in
  let plain = Odin.Session.create ~keep:[ "tmain" ] ~pool:Pool.serial m in
  ignore (Odin.Session.build plain);
  let planted = Odin.Session.create ~keep:[ "tmain" ] ~pool:Pool.serial
      (Ir.Clone.clone_module m)
  in
  let mutants = Gen.setup planted in
  Alcotest.(check bool) "mutants planted" true (mutants <> []);
  ignore (Odin.Session.build planted);
  Alcotest.(check bool) "image with all mutants disarmed is bit-pristine"
    true
    (exe_obs (Odin.Session.executable plain)
    = exe_obs (Odin.Session.executable planted));
  (* arm + disarm one mutant of every family: the image returns to
     pristine through the cached objects *)
  List.iter
    (fun fam ->
      match
        List.find_opt (fun p -> Gen.family_of_probe p = Some fam) mutants
      with
      | None -> Alcotest.failf "no %s mutant" (Gen.family_to_string fam)
      | Some p ->
        ignore (Odin.Session.refresh_toggles planted [ (p, true) ]);
        ignore (Odin.Session.refresh_toggles planted [ (p, false) ]);
        Alcotest.(check bool)
          (Gen.family_to_string fam ^ ": disarm returns to pristine")
          true
          (exe_obs (Odin.Session.executable plain)
          = exe_obs (Odin.Session.executable planted)))
    Gen.all_families

(* differential: with every mutant disarmed, the VM agrees with the
   reference interpreter on the pristine module over the whole suite *)
let test_differential_vm_interp () =
  let m = compile unit_src in
  let session =
    Odin.Session.create ~keep:[ "tmain" ] ~pool:Pool.serial
      (Ir.Clone.clone_module m)
  in
  ignore (Gen.setup session);
  ignore (Odin.Session.build session);
  List.iter
    (fun input ->
      let vm = Vm.create (Odin.Session.executable session) in
      let addr = Vm.write_buffer vm input in
      let got = Vm.call vm "tmain" [ addr; Int64.of_int (String.length input) ] in
      let st = Ir.Interp.create m in
      let iaddr = Ir.Interp.alloc_input st input in
      let want =
        Ir.Interp.run st "tmain" [ iaddr; Int64.of_int (String.length input) ]
      in
      Alcotest.(check int64)
        (Printf.sprintf "tmain(%S)" input)
        want got)
    unit_suite

(* ---------------- batching: toggle_many is one schedule pass --------- *)

let counter_value session name =
  Telemetry.Metrics.value
    (Telemetry.Metrics.counter
       session.Odin.Session.telemetry.Telemetry.Recorder.metrics name)

let test_toggle_many_one_pass () =
  let m = Workloads.Generate.compile Workloads.Profile.tiny in
  let session =
    Odin.Session.create ~mode:Odin.Partition.Max
      ~keep:[ Fuzzer.Campaign.entry ] ~host:Workloads.Generate.host_functions
      ~pool:Pool.serial m
  in
  let mutants = Gen.setup session in
  ignore (Odin.Session.build session);
  let n_frags =
    Array.length session.Odin.Session.plan.Odin.Partition.fragments
  in
  Alcotest.(check int) "initial build walks the whole program" n_frags
    (counter_value session "session.schedule_visited");
  (* pick K mutants in K distinct functions; the batched refresh must
     visit O(K) fragments and record ONE recompile event *)
  let distinct =
    let seen = Hashtbl.create 7 in
    List.filter
      (fun (p : Instr.Probe.t) ->
        if Hashtbl.mem seen p.Instr.Probe.target then false
        else begin
          Hashtbl.add seen p.Instr.Probe.target ();
          true
        end)
      mutants
  in
  let batch = List.filteri (fun i _ -> i < 4) distinct in
  let k = List.length batch in
  Alcotest.(check bool) "found several distinct targets" true (k >= 2);
  let events_before = List.length (Odin.Session.events session) in
  (match
     Odin.Session.refresh_toggles session
       (List.map (fun p -> (p, true)) batch)
   with
  | Some (Odin.Session.Ok, Some _) -> ()
  | _ -> Alcotest.fail "batched refresh did not succeed");
  Alcotest.(check int) "one recompile event for the whole batch"
    (events_before + 1)
    (List.length (Odin.Session.events session));
  (* O(K): under Max partitioning each function is its own fragment *)
  Alcotest.(check int) "schedule visited exactly the K dirty fragments"
    (n_frags + k)
    (counter_value session "session.schedule_visited")

(* ---------------- determinism across workers and substrates ----------- *)

let tiny = Workloads.Profile.tiny
let tiny_suite = Workloads.Generate.seed_inputs ~count:3 tiny

let run_tiny ?(workers = 1) ?(mode = Analysis.Domains) ?checkpoint
    ?(resume = false) ?stop_after () =
  run ~entry:Fuzzer.Campaign.entry
    (mk_cfg ~workers ~mode ~limit:24 ~chunk:5 ?checkpoint ~resume ?stop_after ())
    ~suite:tiny_suite
    (Workloads.Generate.compile tiny)

let check_matrix msg (a : Analysis.matrix) (b : Analysis.matrix) =
  Alcotest.(check bool) msg true (a = b)

let test_determinism_across_workers () =
  let m1, _ = run_tiny ~workers:1 () in
  let m2, _ = run_tiny ~workers:2 () in
  let m4, _ = run_tiny ~workers:4 () in
  Alcotest.(check bool) "campaign found mutants" true
    (m1.Analysis.m_generated > 0);
  check_matrix "workers 1 = workers 2" m1 m2;
  check_matrix "workers 1 = workers 4" m1 m4

let test_determinism_across_substrates () =
  let dm, _ = run_tiny ~workers:2 () in
  let pm, pstats = run_tiny ~workers:2 ~mode:Analysis.Procs () in
  check_matrix "domains = procs" dm pm;
  Alcotest.(check int) "no restarts in a clean run" 0 pstats.Analysis.s_restarts

(* ---------------- checkpoint / resume ---------------- *)

let with_tmp f =
  let path = Filename.temp_file "mutate_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".prev" ])
    (fun () -> f path)

let test_resume_equals_uninterrupted () =
  with_tmp @@ fun path ->
  let full, _ = run_tiny ~workers:2 () in
  (* phase 1: stop mid-campaign after the first rounds' rows *)
  let partial, _ =
    run_tiny ~workers:2 ~checkpoint:path ~stop_after:8 ()
  in
  Alcotest.(check bool) "stopped early" true
    (partial.Analysis.m_generated < full.Analysis.m_generated);
  (* phase 2: resume from the checkpoint; rows already done are loaded,
     not re-run *)
  let resumed, stats = run_tiny ~workers:2 ~checkpoint:path ~resume:true () in
  Alcotest.(check bool) "rows came from the checkpoint" true
    (stats.Analysis.s_resumed_rows >= partial.Analysis.m_generated);
  check_matrix "resumed = uninterrupted" full resumed

let test_resume_rejects_wrong_target () =
  with_tmp @@ fun path ->
  let _ = run_tiny ~workers:1 ~checkpoint:path ~stop_after:4 () in
  Alcotest.(check bool) "wrong module rejected" true
    (try
       ignore
         (run
            (mk_cfg ~limit:24 ~checkpoint:path ~resume:true ())
            ~suite:tiny_suite (compile unit_src));
       false
     with Invalid_argument _ -> true)

(* ---------------- the timeout verdict ---------------- *)

(* `i = i + 1` under aor becomes `i = i - 1`: the loop never terminates
   and the step budget must convert the hang into a Timeout verdict
   rather than stalling the campaign. *)
let loop_src =
  {|
int tmain(char *buf, int len) {
  int i = 0;
  int acc = 0;
  while (i < 10) { acc = acc + i; i = i + 1; }
  return acc + len;
}
|}

let test_timeout_verdict () =
  let cfg = mk_cfg ~families:[ Gen.Aor ] ~max_steps:50_000 () in
  let matrix, _ = run cfg ~suite:[ "ab" ] (compile loop_src) in
  Alcotest.(check bool) "some aor mutant hangs" true
    (matrix.Analysis.m_timeout > 0);
  Alcotest.(check bool) "hang counts toward the score" true
    (matrix.Analysis.m_score > 0.);
  (* the Hang cell is recorded in the matrix row *)
  Alcotest.(check bool) "a row holds a Hang outcome" true
    (List.exists
       (fun r -> List.mem Analysis.Hang r.Analysis.r_outcomes)
       matrix.Analysis.m_rows)

(* a hanging mutant in procs mode must not wedge the farm either *)
let test_timeout_verdict_procs () =
  let cfg =
    mk_cfg ~mode:Analysis.Procs ~families:[ Gen.Aor ] ~max_steps:50_000 ()
  in
  let matrix, stats = run cfg ~suite:[ "ab" ] (compile loop_src) in
  Alcotest.(check bool) "procs: some aor mutant hangs" true
    (matrix.Analysis.m_timeout > 0);
  Alcotest.(check int) "procs: no restarts needed" 0 stats.Analysis.s_restarts

(* ---------------- rendering ---------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_render () =
  let matrix, _ = run (mk_cfg ()) ~suite:unit_suite (compile unit_src) in
  let s = Analysis.render matrix in
  Alcotest.(check bool) "mentions the score" true (contains s "score:");
  Alcotest.(check bool) "per-operator breakdown present" true
    (contains s "per-operator")

(* ---------------- supervision (the fuzz farm's supervisor) ----------- *)

(* no child process is left behind: waitpid finds none to wait for *)
let check_no_children msg =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | _ -> Alcotest.fail (msg ^ ": a worker process is still alive")
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let tiny_procs_cfg () =
  mk_cfg ~workers:2 ~mode:Analysis.Procs ~limit:24 ~chunk:5 ()

let heartbeat_plan trigger =
  Support.Fault.plan
    [ Support.Fault.rule ~trigger "farm.heartbeat" Support.Fault.Raise ]

(* a supervisor-side heartbeat fault SIGKILLs one worker mid-round; it
   is restarted, re-sent the same mutants, and the matrix is unchanged *)
let test_procs_watchdog_kill () =
  let dm, _ = run_tiny ~workers:2 () in
  let r = Telemetry.Recorder.create () in
  let pm, stats =
    Support.Fault.with_plan (heartbeat_plan (Support.Fault.Nth 2)) (fun () ->
        run ~telemetry:r ~entry:Fuzzer.Campaign.entry (tiny_procs_cfg ())
          ~suite:tiny_suite
          (Workloads.Generate.compile tiny))
  in
  check_matrix "watchdog kill: procs = domains" dm pm;
  Alcotest.(check int) "one restart in stats" 1 stats.Analysis.s_restarts;
  Alcotest.(check int) "one restart counted" 1
    (Telemetry.Metrics.value
       (Telemetry.Metrics.counter r.Telemetry.Recorder.metrics
          "mutate.worker_restarts"))

(* every heartbeat kills its sender: the whole fleet retires, and the
   campaign fails with a documented Failure, leaving no child behind *)
let test_all_workers_retired () =
  let cfg = { (tiny_procs_cfg ()) with Analysis.mc_max_restarts = 1 } in
  (match
     Support.Fault.with_plan (heartbeat_plan Support.Fault.Always) (fun () ->
         run ~entry:Fuzzer.Campaign.entry cfg ~suite:tiny_suite
           (Workloads.Generate.compile tiny))
   with
  | _ -> Alcotest.fail "campaign completed with every worker retired"
  | exception Failure msg ->
    Alcotest.(check bool) "message names the retired fleet" true
      (contains msg "mutate: all 2 workers retired"));
  check_no_children "after a fully retired fleet"

(* ---------------- VM reuse ---------------- *)

(* A suite input too large for the VM's memory is a trap of the
   pristine baseline, reported as such, not an exception escaping the
   campaign. *)
let test_oversized_input_traps () =
  match
    run (mk_cfg ()) ~suite:[ "ab"; String.make 2_000_000 'x' ] (compile unit_src)
  with
  | _ -> Alcotest.fail "a 2 MB suite input was run"
  | exception Failure msg ->
    Alcotest.(check bool) "reported as a pristine trap" true
      (contains msg "pristine baseline trapped")

(* The campaign reuses one VM per worker. The reference replays every
   (mutant, test) cell on a fresh Vm.create; rows must agree, outcomes
   and cycles included. *)
let replay_fresh ~suite ~max_steps ~limit m =
  let entry = Fuzzer.Campaign.entry in
  let host = Workloads.Generate.host_functions in
  let session =
    Odin.Session.create ~keep:[ entry ] ~host ~pool:Pool.serial
      (Ir.Clone.clone_module m)
  in
  let mutants = Gen.setup ~limit session in
  ignore (Odin.Session.build session);
  let cell input =
    let vm = Vm.create ~max_steps (Odin.Session.executable session) in
    List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) host;
    match
      let addr = Vm.write_buffer vm input in
      Vm.call vm entry [ addr; Int64.of_int (String.length input) ]
    with
    | v -> (Ok v, vm.Vm.cycles)
    | exception Vm.Fault _ ->
      ( Error (if Vm.budget_exhausted vm then Analysis.Hang else Analysis.Crash),
        vm.Vm.cycles )
  in
  let pristine = List.map (fun i -> Result.get_ok (fst (cell i))) suite in
  let prev = ref None in
  List.mapi
    (fun id p ->
      let off = match !prev with Some q -> [ (q, false) ] | None -> [] in
      prev := Some p;
      ignore (Odin.Session.refresh_toggles session (off @ [ (p, true) ]));
      let cells = List.map cell suite in
      let outcomes =
        List.map2
          (fun (r, _) want ->
            match r with
            | Ok v -> if Int64.equal v want then Analysis.Pass else Analysis.Kill
            | Error o -> o)
          cells pristine
      in
      (id, outcomes, List.fold_left (fun a (_, c) -> a + c) 0 cells))
    mutants

(* the suite [odinc mutate --tests n] runs *)
let cli_suite n =
  List.init n (fun t ->
      String.init (8 + (8 * t)) (fun i -> Char.chr (((i * 37) + (t * 11) + 5) land 255)))

let check_reuse_matches_fresh ~profile ~tests ~max_steps ~limit ~want_hang =
  let m = Workloads.Generate.compile (Workloads.Profile.find_exn profile) in
  let suite = cli_suite tests in
  let want = replay_fresh ~suite ~max_steps ~limit m in
  Alcotest.(check bool) (profile ^ ": replay has a Hang cell") want_hang
    (List.exists (fun (_, o, _) -> List.mem Analysis.Hang o) want);
  List.iter
    (fun (workers, mode, label) ->
      let matrix, _ =
        run ~entry:Fuzzer.Campaign.entry
          (mk_cfg ~workers ~mode ~max_steps ~limit ~chunk:7 ())
          ~suite m
      in
      let got =
        List.map
          (fun r -> (r.Analysis.r_id, r.Analysis.r_outcomes, r.Analysis.r_cycles))
          matrix.Analysis.m_rows
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: rows = fresh-VM replay" profile label)
        true (got = want))
    [ (1, Analysis.Domains, "1 domain"); (2, Analysis.Domains, "2 domains");
      (2, Analysis.Procs, "2 procs") ]

let test_reuse_matches_fresh_json () =
  check_reuse_matches_fresh ~profile:"json" ~tests:4 ~max_steps:2_000_000
    ~limit:40 ~want_hang:false

(* a budget just above the pristine suite's need (2875..2900 steps):
   mutants 76 and 78 exhaust it, so later cells run on a VM reset after
   a budget-exhausted run *)
let test_reuse_matches_fresh_proj4 () =
  check_reuse_matches_fresh ~profile:"proj4" ~tests:3 ~max_steps:2900
    ~limit:80 ~want_hang:true

(* ---------------- clone map: every mutant patches its own site ------- *)

(* The full json campaign: its program holds structurally equal
   instructions in different functions (the same store in [tiny_0] and
   [tiny_2], say), so a clone map keyed structurally would let one
   mutant patch another's site. *)
let json_module = lazy (Workloads.Generate.compile (Workloads.Profile.find_exn "json"))

let json_matrix workers =
  fst
    (run ~entry:Fuzzer.Campaign.entry (mk_cfg ~workers ~chunk:64 ())
       ~suite:(cli_suite 4) (Lazy.force json_module))

let json_matrix_1 = lazy (json_matrix 1)

let test_json_campaign_across_domains () =
  let one = Lazy.force json_matrix_1 and two = json_matrix 2 in
  Alcotest.(check int) "all mutants" 1114 (List.length one.Analysis.m_rows);
  List.iter2
    (fun (a : Analysis.row) (b : Analysis.row) ->
      if a <> b then
        Alcotest.failf "row %d (%s %s) differs between 1 and 2 domains" a.Analysis.r_id
          a.Analysis.r_target a.Analysis.r_desc)
    one.Analysis.m_rows two.Analysis.m_rows

(* The oracle applies one mutant by its position in the pristine IR
   (function, block, instruction index) to a fresh clone of the program,
   optimizes it, and runs the suite in [Ir.Interp]: no probe toggles, no
   clone map. It optimizes because a deleted store leaves a slot
   uninitialized, and what reading it gives is the optimizer's choice
   (mem2reg reads undef, 0), not the interpreter's stale stack. *)
let interp_outcomes m suite =
  List.map
    (fun input ->
      let st = Ir.Interp.create ~max_steps:4_000_000 m in
      List.iter
        (fun n -> Ir.Interp.register_host st n (fun _ _ -> 0L))
        Workloads.Generate.host_functions;
      let addr = Ir.Interp.alloc_input st input in
      match
        Ir.Interp.run st Fuzzer.Campaign.entry
          [ addr; Int64.of_int (String.length input) ]
      with
      | v -> Ok v
      | exception Ir.Interp.Trap msg ->
        Error (if contains msg "step budget" then Analysis.Hang else Analysis.Crash))
    suite

let apply_by_position (pristine : Ir.Modul.t) (p : Instr.Probe.t) =
  let m = Instr.Probe.(match p.payload with Mutant m -> m | _ -> assert false) in
  let block_in modul =
    let fn = Option.get (Ir.Modul.find_func modul p.Instr.Probe.target) in
    Ir.Func.find_block_exn fn m.Instr.Probe.mut_block
  in
  let copy = Ir.Clone.clone_module pristine in
  let blk = block_in copy in
  (match m.Instr.Probe.mut_ins with
  | None -> (
    match (m.Instr.Probe.mut_op, blk.Ir.Func.term) with
    | Instr.Probe.Mut_brswap, Ir.Ins.Cbr (c, a, b) -> blk.Ir.Func.term <- Ir.Ins.Cbr (c, b, a)
    | _ -> Alcotest.fail "terminator mutant without a conditional branch")
  | Some site ->
    let rec index k = function
      | [] -> Alcotest.fail "mutant site not in its block"
      | i :: rest -> if i == site then k else index (k + 1) rest
    in
    let k = index 0 (block_in pristine).Ir.Func.insns in
    let ins = List.nth blk.Ir.Func.insns k in
    let bump idx delta j v =
      match v with
      | Ir.Ins.Const (ty, c) when j = idx ->
        Ir.Ins.Const (ty, Ir.Types.normalize ty (Int64.add c delta))
      | v -> v
    in
    match (m.Instr.Probe.mut_op, ins.Ir.Ins.kind) with
    | Instr.Probe.Mut_binop op, Ir.Ins.Binop (_, a, b) -> ins.Ir.Ins.kind <- Ir.Ins.Binop (op, a, b)
    | Instr.Probe.Mut_icmp pr, Ir.Ins.Icmp (_, a, b) -> ins.Ir.Ins.kind <- Ir.Ins.Icmp (pr, a, b)
    | Instr.Probe.Mut_const (idx, d), Ir.Ins.Binop (op, a, b) ->
      ins.Ir.Ins.kind <- Ir.Ins.Binop (op, bump idx d 0 a, bump idx d 1 b)
    | Instr.Probe.Mut_const (idx, d), Ir.Ins.Icmp (pr, a, b) ->
      ins.Ir.Ins.kind <- Ir.Ins.Icmp (pr, bump idx d 0 a, bump idx d 1 b)
    | Instr.Probe.Mut_const (idx, d), Ir.Ins.Select (c, a, b) ->
      ins.Ir.Ins.kind <- Ir.Ins.Select (bump idx d 0 c, bump idx d 1 a, bump idx d 2 b)
    | Instr.Probe.Mut_const (idx, d), Ir.Ins.Store (a, b) ->
      ins.Ir.Ins.kind <- Ir.Ins.Store (bump idx d 0 a, bump idx d 1 b)
    | Instr.Probe.Mut_del, _ ->
      blk.Ir.Func.insns <- List.filter (fun i -> i != ins) blk.Ir.Func.insns
    | _ -> Alcotest.fail "mutant does not fit its site");
  copy

let optimized m =
  ignore (Opt.Pipeline.run_fragment m);
  m

let test_json_matches_interp_oracle () =
  let pristine = Lazy.force json_module in
  let suite = cli_suite 4 in
  let session =
    Odin.Session.create ~keep:[ Fuzzer.Campaign.entry ]
      ~host:Workloads.Generate.host_functions ~pool:Pool.serial
      (Ir.Clone.clone_module pristine)
  in
  let mutants = Array.of_list (Gen.setup session) in
  let base = session.Odin.Session.base in
  let want_pristine =
    List.map Result.get_ok (interp_outcomes (optimized (Ir.Clone.clone_module base)) suite)
  in
  let rows = Array.of_list (Lazy.force json_matrix_1).Analysis.m_rows in
  List.iter
    (fun id ->
      let oracle =
        List.map2
          (fun got want ->
            match got with
            | Ok v -> if Int64.equal v want then Analysis.Pass else Analysis.Kill
            | Error o -> o)
          (interp_outcomes (optimized (apply_by_position base mutants.(id))) suite)
          want_pristine
      in
      let row = rows.(id) in
      Alcotest.(check string)
        (Printf.sprintf "mutant %d (%s %s)" id row.Analysis.r_target row.Analysis.r_desc)
        (String.of_seq (Seq.map Analysis.outcome_char (List.to_seq oracle)))
        (String.of_seq (Seq.map Analysis.outcome_char (List.to_seq row.Analysis.r_outcomes))))
    [ 0; 3; 16; 88; 99; 100; 160; 412; 500; 742; 1000; 1113 ]

let () =
  Alcotest.run "mutate"
    [
      ( "units",
        [
          Alcotest.test_case "families_of_spec" `Quick test_families_of_spec;
          Alcotest.test_case "operators plant and kill" `Quick
            test_operators_plant_and_kill;
          Alcotest.test_case "boundary input matters" `Quick
            test_boundary_input_matters;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "disarmed is bit-pristine" `Quick
            test_disarmed_is_pristine;
          Alcotest.test_case "differential vm vs interp" `Quick
            test_differential_vm_interp;
          Alcotest.test_case "toggle_many is one pass" `Quick
            test_toggle_many_one_pass;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "workers 1/2/4" `Quick
            test_determinism_across_workers;
          Alcotest.test_case "domains vs procs" `Quick
            test_determinism_across_substrates;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume equals uninterrupted" `Quick
            test_resume_equals_uninterrupted;
          Alcotest.test_case "resume rejects wrong target" `Quick
            test_resume_rejects_wrong_target;
        ] );
      ( "timeouts",
        [
          Alcotest.test_case "timeout verdict" `Quick test_timeout_verdict;
          Alcotest.test_case "timeout verdict (procs)" `Quick
            test_timeout_verdict_procs;
        ] );
      ("report", [ Alcotest.test_case "render" `Quick test_render ]);
      ( "vm reuse",
        [
          Alcotest.test_case "oversized input traps" `Quick
            test_oversized_input_traps;
          Alcotest.test_case "json: full campaign, 1 = 2 domains" `Quick
            test_json_campaign_across_domains;
          Alcotest.test_case "json: rows = Interp oracle by position" `Quick
            test_json_matches_interp_oracle;
          Alcotest.test_case "json: reused VM = fresh replay" `Quick
            test_reuse_matches_fresh_json;
          Alcotest.test_case "proj4: reused VM = fresh replay" `Quick
            test_reuse_matches_fresh_proj4;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "watchdog kill (procs)" `Quick
            test_procs_watchdog_kill;
          Alcotest.test_case "all workers retired" `Quick
            test_all_workers_retired;
        ] );
    ]
