(** Campaign drivers: the evaluation methodology of paper Section 5.

    For each workload we (1) run a deterministic fuzzing campaign against
    a coverage build to collect a seed corpus, then (2) replay that same
    corpus under every instrumentation tool and measure execution
    duration (VM cycles). Replaying avoids fuzzing randomness — exactly
    the paper's setup, with the 24-hour campaign compressed into a
    deterministic loop. *)

let entry = "target_main"

(* the only host function workloads use; a fixed modest cost *)
let default_hosts =
  [ ("printf", fun (_ : Vm.t) -> 0L); ("puts", fun (_ : Vm.t) -> 0L) ]

let fresh_vm ?(hosts = default_hosts) exe =
  let vm = Vm.create exe in
  List.iter (fun (n, f) -> Vm.register_host vm n f) hosts;
  vm

let run_once ?vm ?hosts ?(setup = fun (_ : Vm.t) -> ()) exe input =
  let vm =
    match vm with
    | Some vm ->
      Vm.reset vm exe;
      vm
    | None -> fresh_vm ?hosts exe
  in
  setup vm;
  let addr = Vm.write_buffer vm input in
  ignore (Vm.call vm entry [ addr; Int64.of_int (String.length input) ]);
  vm

(* ------------------------------------------------------------------ *)
(* Energy assignment                                                   *)
(* ------------------------------------------------------------------ *)

(** AFL-style energy for a seed, from the VM's execution profile
    ([Vm.profile] / [Vm.profile_top]): how many mutated executions this
    seed deserves relative to its peers.

    Three multiplicative factors, all integer and deterministic:
    - {b speed} — cheap seeds (cycles well under [avg_cycles]) are
      mutated more, expensive ones less (AFL's [calculate_score]
      exec-time buckets);
    - {b breadth} — seeds whose execution touched more functions carry
      more distinct code to mutate against;
    - {b spread} — cycles concentrated in a single hot function suggest
      a saturated loop, cycles spread across the profile suggest
      unexplored branching, so concentration is penalized.

    [fn_cycles] is the per-function cycle attribution of the discovering
    execution, as returned by [Vm.profile_top]. The result is >= 1 and
    scaled so an average seed (cycles == avg, one function) lands near
    100 — comparable to the classic size/cost score in
    {!Corpus.pick}. *)
let seed_energy ~avg_cycles ~cycles ~fn_cycles =
  let speed =
    if avg_cycles <= 0 then 100
    else if cycles * 4 <= avg_cycles then 400
    else if cycles * 2 <= avg_cycles then 300
    else if cycles <= avg_cycles then 200
    else if cycles <= avg_cycles * 2 then 100
    else if cycles <= avg_cycles * 4 then 50
    else 25
  in
  let breadth = min 16 (List.length fn_cycles) in
  let hottest = List.fold_left (fun a (_, c) -> max a c) 0 fn_cycles in
  let concentration = hottest * 100 / max 1 cycles (* 0..100 *) in
  let spread = 200 - min 100 concentration (* 100..200 *) in
  max 1 (speed * (4 + breadth) * spread / 800)

(* ------------------------------------------------------------------ *)
(* Corpus collection                                                   *)
(* ------------------------------------------------------------------ *)

(** Build a fuzzing target from a SanitizerCoverage build of [m]. *)
let sancov_target (m : Ir.Modul.t) =
  let sc = Baselines.Sancov.build ~keep:[ entry ] ~host:Workloads.Generate.host_functions m in
  let seen = Array.make (max 1 sc.Baselines.Sancov.n_counters) false in
  let vm = fresh_vm sc.Baselines.Sancov.exe in
  let run input =
    let vm = run_once ~vm sc.Baselines.Sancov.exe input in
    let covered = Baselines.Sancov.covered_counters vm sc in
    let fresh = List.filter (fun i -> not seen.(i)) covered in
    List.iter (fun i -> seen.(i) <- true) fresh;
    { Fuzz.ex_cycles = vm.Vm.cycles; ex_new_blocks = List.length fresh }
  in
  { Fuzz.run }

type prepared = {
  profile : Workloads.Profile.t;
  source : string;
  modul : Ir.Modul.t;  (** pristine frontend output (never optimized) *)
  corpus : string list;  (** replay inputs, in discovery order *)
  fuzz_stats : Fuzz.stats;
}

(* When a recorder is present, wrap the fuzzing target so every
   execution bumps the exec counter and coverage discoveries accumulate
   into a time-series counter (a coverage-over-time track in the Chrome
   trace export). The wrapped target runs the exact same executions. *)
let observed_target telemetry (target : Fuzz.target) =
  match telemetry with
  | None -> target
  | Some (r : Telemetry.Recorder.t) ->
    let execs =
      Telemetry.Metrics.counter r.Telemetry.Recorder.metrics "campaign.execs"
    in
    let coverage =
      Telemetry.Metrics.counter r.Telemetry.Recorder.metrics ~series:true
        "campaign.coverage"
    in
    {
      Fuzz.run =
        (fun input ->
          let e = target.Fuzz.run input in
          Telemetry.Metrics.incr execs;
          if e.Fuzz.ex_new_blocks > 0 then
            Telemetry.Metrics.incr ~by:e.Fuzz.ex_new_blocks coverage;
          e);
    }

(** Compile a workload and fuzz it to collect the replay corpus.
    [rounds] repeats the corpus during replay (steady-state throughput,
    like replaying the seeds of a long campaign several times).
    [telemetry] records frontend/fuzz spans plus exec and
    coverage-over-time counters; observation only. *)
let prepare ?telemetry ?(fuzz_execs = 400) ?(rounds = 1)
    (profile : Workloads.Profile.t) =
  Telemetry.Recorder.span_opt telemetry ~cat:"campaign"
    ~args:[ ("program", profile.Workloads.Profile.name) ]
    "prepare"
  @@ fun () ->
  let source =
    Telemetry.Recorder.span_opt telemetry ~cat:"campaign" "generate" (fun () ->
        Workloads.Generate.source profile)
  in
  let modul =
    Telemetry.Recorder.span_opt telemetry ~cat:"campaign" "frontend" (fun () ->
        Minic.Lower.compile ~name:profile.Workloads.Profile.name source)
  in
  let target = observed_target telemetry (sancov_target modul) in
  let rng = Support.Rng.create (profile.Workloads.Profile.seed * 31 + 7) in
  let seeds = Workloads.Generate.seed_inputs profile in
  let corpus, fuzz_stats =
    Telemetry.Recorder.span_opt telemetry ~cat:"campaign" "fuzz" (fun () ->
        Fuzz.collect_corpus ~rng ~seeds ~execs:fuzz_execs target)
  in
  Telemetry.Recorder.count telemetry ~by:(Corpus.size corpus)
    "campaign.corpus_inputs";
  let base_inputs = Corpus.inputs corpus in
  let replay_inputs =
    List.concat (List.init (max 1 rounds) (fun _ -> base_inputs))
  in
  { profile; source; modul; corpus = replay_inputs; fuzz_stats }

(* ------------------------------------------------------------------ *)
(* Replay under each tool                                              *)
(* ------------------------------------------------------------------ *)

type replay = {
  r_tool : string;
  r_total_cycles : int;
  r_per_input : int list;
}

let sum = List.fold_left ( + ) 0

(** Baseline: the uninstrumented O2 binary. *)
let replay_plain (p : prepared) =
  let exe = Baselines.Plain.build ~keep:[ entry ] ~host:Workloads.Generate.host_functions p.modul in
  let vm = fresh_vm exe in
  let per_input =
    List.map (fun input -> (run_once ~vm exe input).Vm.cycles) p.corpus
  in
  { r_tool = "baseline"; r_total_cycles = sum per_input; r_per_input = per_input }

(** SanitizerCoverage: static instrumentation after optimization. *)
let replay_sancov (p : prepared) =
  let sc = Baselines.Sancov.build ~keep:[ entry ] ~host:Workloads.Generate.host_functions p.modul in
  let vm = fresh_vm sc.Baselines.Sancov.exe in
  let per_input =
    List.map
      (fun input -> (run_once ~vm sc.Baselines.Sancov.exe input).Vm.cycles)
      p.corpus
  in
  { r_tool = "SanCov"; r_total_cycles = sum per_input; r_per_input = per_input }

(** DrCov / libInst: DBI over the plain binary. *)
let replay_dbi kind (p : prepared) =
  let exe = Baselines.Plain.build ~keep:[ entry ] ~host:Workloads.Generate.host_functions p.modul in
  let dbi = Baselines.Dbi.create kind in
  let vm = fresh_vm exe in
  let per_input =
    List.map
      (fun input ->
        (run_once ~vm ~setup:(Baselines.Dbi.attach dbi) exe input).Vm.cycles)
      p.corpus
  in
  let name =
    match kind with Baselines.Dbi.Drcov -> "DrCov" | Baselines.Dbi.Libinst -> "libInst"
  in
  { r_tool = name; r_total_cycles = sum per_input; r_per_input = per_input }

type odin_replay = {
  o_replay : replay;
  o_session : Odin.Session.t;
  o_recompiles : int;
  o_probes_pruned : int;
  o_degraded : int;  (** refreshes that completed with degraded fragments *)
  o_rollbacks : int;  (** refreshes rolled back to the previous executable *)
}

(** OdinCov: instrument-first coverage with (optionally) on-the-fly probe
    pruning and recompilation between executions. The reported cycles are
    execution-only; recompilation overhead is recorded separately in the
    session's events (Figures 11/12 and the 82 ms claim). When
    [telemetry] is given the session records its build spans on it, and
    the replay adds exec-cycle histograms plus recompile/prune counters. *)
let replay_odincov ?telemetry ?(prune = true) ?(mode = Odin.Partition.Auto)
    ?cache_dir (p : prepared) =
  let base = Ir.Clone.clone_module p.modul in
  let session =
    (* tier pinned off, not read from ODIN_TIER: the figure-8/9 overhead
       ratios measure instrumentation against the optimizing tier, and a
       replay must not change shape with the caller's environment *)
    Odin.Session.create ~mode ~keep:[ entry ]
      ~runtime_globals:[ Odin.Cov.runtime_global base ]
      ~host:Workloads.Generate.host_functions ?cache_dir ?telemetry
      ~tiered:false base
  in
  let cov = Odin.Cov.setup session in
  ignore (Odin.Session.build session);
  let recompiles = ref 0 in
  let pruned = ref 0 in
  let degraded = ref 0 in
  let rollbacks = ref 0 in
  let vm = fresh_vm (Odin.Session.executable session) in
  let per_input =
    List.map
      (fun input ->
        let exe = Odin.Session.executable session in
        let vm =
          Telemetry.Recorder.span_opt telemetry ~cat:"campaign" "execute"
            (fun () -> run_once ~vm exe input)
        in
        Telemetry.Recorder.observe telemetry "campaign.exec_cycles"
          (float_of_int vm.Vm.cycles);
        ignore (Odin.Cov.harvest cov vm);
        if prune then begin
          let n = Odin.Cov.prune_fired cov in
          if n > 0 then begin
            pruned := !pruned + n;
            Telemetry.Recorder.count telemetry ~by:n "campaign.probes_pruned";
            (* transactional refresh: a fault-degraded or rolled-back
               rebuild must not abort the campaign — the session still
               holds a consistent executable either way *)
            match Odin.Session.try_refresh session with
            | Some Odin.Session.Ok ->
              incr recompiles;
              Telemetry.Recorder.count telemetry "campaign.recompiles"
            | Some (Odin.Session.Degraded fids) ->
              incr recompiles;
              degraded := !degraded + 1;
              Telemetry.Recorder.count telemetry "campaign.recompiles";
              Telemetry.Recorder.count telemetry
                ~by:(List.length fids)
                "campaign.fragments_degraded"
            | Some (Odin.Session.Rolled_back _) ->
              incr rollbacks;
              Telemetry.Recorder.count telemetry "campaign.refresh_rollbacks"
            | None -> ()
          end
        end;
        vm.Vm.cycles)
      p.corpus
  in
  {
    o_replay =
      {
        r_tool = (if prune then "OdinCov" else "OdinCov-NoPrune");
        r_total_cycles = sum per_input;
        r_per_input = per_input;
      };
    o_session = session;
    o_recompiles = !recompiles;
    o_probes_pruned = !pruned;
    o_degraded = !degraded;
    o_rollbacks = !rollbacks;
  }
