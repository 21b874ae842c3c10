(** Fuzzing farm: a multi-worker campaign orchestrator.

    N campaign workers fuzz one target concurrently on the OCaml 5
    domain pool. Each worker owns a deterministic RNG stream, a corpus
    shard and its own Odin session; all sessions share one
    content-addressed {!Odin.Session.object_cache}, so a fragment
    compiled by any worker is a (cross-)hit for every other. Workers
    rendezvous at sync barriers every [fc_sync_interval] executions:
    coverage-increasing inputs are exchanged through the deduplicating
    {!Csync} protocol, global coverage is merged into one bitmap, and
    probe pruning is decided {e globally} ({!Instr.Votes}) so the farm
    converges to the same pruned instrumentation a long single campaign
    would.

    Everything that decides results — slot execution, the round
    schedule, the barrier merge, weighted votes, adaptive intervals,
    checkpoints — lives in {!Orch}, shared verbatim with the
    process-isolated driver ({!Proc.run}, [--farm-mode procs]): the
    two substrates cannot drift apart. Both drivers deal slots with
    the same round-robin {!Supervisor.deal}; the process driver's
    supervision (spawn, watchdog, restart/retire, shutdown) is the one
    {!Supervisor}, which the mutation campaign runs on too.

    {2 Determinism}

    The farm is deterministic for a fixed [(seed, sync-interval)] pair
    — and, by construction, its {e logical} results do not depend on
    the worker count at all. The schedule is expressed in
    worker-independent {e execution slots}: slot [i] draws from an RNG
    derived from [(seed, i)] and mutates against the round-start corpus
    snapshot, which is a replica of the global corpus on every shard
    (broadcast at the previous barrier). Probe state only changes at
    barriers, applied identically to every session, so within a round
    all workers run byte-identical executables; which worker executes
    slot [i] therefore cannot change the result, only who computes it.
    All cross-worker state — corpus broadcast, bitmap merge, prune
    votes — mutates only at the barrier, in slot order. [test_farm.ml]
    asserts bit-identical coverage and pruned-probe sets across
    [--workers 1/2/4]; [test_proc.ml] extends the matrix across
    [--farm-mode domains|procs] and kill/restart schedules.

    {2 Fault tolerance}

    Two farm-specific fault sites ({!Support.Fault}): ["vm.step"] fires
    per basic-block entry inside guest executions — an injected fault
    kills the worker mid-round, a transient one skips that execution —
    and ["farm.sync"] fires at each worker's barrier check-in. A dead
    worker's in-flight round is discarded (it is excluded from the
    barrier), its slots are redistributed to survivors from the next
    round on, and because slot results are worker-independent the
    surviving lanes are unaffected — the farm degrades gracefully and
    keeps its determinism. (The process driver goes further: it
    {e restarts} the dead worker and re-runs its share — see
    {!Proc}.)

    {2 Checkpoint/resume}

    With [checkpoint_path] the farm publishes an {!Orch.ckpt} at every
    barrier (atomic, [.prev] rotation — {!Wire.write_checkpoint});
    [resume] continues a campaign from one, replaying the global corpus
    and pruned set into fresh workers and carrying on with the next
    round to the same final state as an uninterrupted run. *)

module Csync = Csync
module Orch = Orch
module Wire = Wire
module Supervisor = Supervisor
module Proc = Proc
module Recorder = Telemetry.Recorder

type config = Orch.config = {
  fc_workers : int;
  fc_execs : int;  (** mutated-execution budget, farm-wide (seeds excluded) *)
  fc_sync_interval : int;  (** executions per sync round, farm-wide *)
  fc_seed : int;
  fc_prune_quorum : int;
      (** fired-execution votes required to prune a probe globally;
          <= 0 disables pruning. 1 = Untracer policy, globally. *)
  fc_cache_limit : int option;  (** store GC size bound (bytes), per barrier *)
  fc_cache_age : float option;  (** store GC age bound (seconds), per barrier *)
  fc_mode : Odin.Partition.mode;
  fc_vote_decay : float;
      (** vote-weight multiplier per kill/restart ({!Proc}); 1.0 keeps
          exact integer quorums *)
  fc_adaptive_sync : bool;
      (** scale the sync interval up on quiet barriers, reset on new
          coverage *)
  fc_promote_share : float;
      (** > 0: tiered workers + barrier tier promotions at this merged
          cycle-share threshold; 0.0 (default) = untiered ({!Orch}) *)
}

let default_config = Orch.default_config

type probe_cost = Orch.probe_cost = {
  pc_pid : int;
  pc_toggles : int;  (** enable/disable flips + removal ({!Instr.Manager}) *)
  pc_execs_armed : int;  (** merged executions while globally armed *)
  pc_hits : int;  (** counter increments executed *)
  pc_cycles : int;  (** VM cycles spent in the increment sequence *)
}

type stats = Orch.stats = {
  fs_workers : int;
  fs_execs : int;  (** executions merged at barriers (seeds included) *)
  fs_total_cycles : int;
  fs_sync_rounds : int;
  fs_offered : int;  (** inputs offered at barriers *)
  fs_exchanged : int;  (** accepted and broadcast to every shard *)
  fs_duplicates : int;
  fs_stale : int;
  fs_coverage : int list;  (** globally covered probe ids, ascending *)
  fs_total_probes : int;
  fs_pruned : int list;  (** globally pruned probe ids, ascending *)
  fs_corpus : string list;  (** global corpus inputs, acceptance order *)
  fs_cross_hits : int;  (** object-cache hits on another worker's entry *)
  fs_recompiles : int;  (** barrier refreshes across all workers *)
  fs_skipped : int;
  fs_crashes : int;
  fs_dead : (int * string) list;  (** dead workers (id, reason), id order *)
  fs_gc_evicted : int;  (** store entries evicted at barriers *)
  fs_store : Support.Objstore.stats option;
  fs_probe_cost : probe_cost list;  (** every probe id, ascending *)
}

let dedup_rate = Orch.dedup_rate

type worker = {
  wk_id : int;
  wk_session : Odin.Session.t;
  wk_cov : Odin.Cov.t;
  wk_corpus : Fuzzer.Corpus.t;  (** shard; replica of the global corpus *)
  wk_recorder : Recorder.t;  (** forked; merged into the farm's at the end *)
  mutable wk_execs : int;
  mutable wk_cycles : int;
  mutable wk_skipped : int;  (** transient-faulted executions *)
  mutable wk_crashes : int;  (** guest traps ([Vm.Fault]) *)
  mutable wk_recompiles : int;
  mutable wk_dead : string option;  (** why the worker left the farm *)
}

(* result of one worker's share of a round *)
type round_result =
  | Finished of Csync.item list
  | Died of string * Csync.item list  (** items completed before death *)

let live workers = List.filter (fun w -> w.wk_dead = None) workers

(** Run a farm over [base]. [entry] is the target entry point
    ([Campaign.entry] for the shipped workloads), [seeds] the initial
    inputs, [host] the host-function names registered as no-ops in each
    guest VM. [pool] executes both the workers within a round and (from
    the orchestrator, between rounds) the sessions' fragment compiles;
    results are independent of its size. [cache_dir] puts the shared
    persistent object store behind every worker's session.
    [incremental_link] and [incremental_sched] forward to every
    worker's session (default: the session's own env-driven defaults).
    [checkpoint_path] publishes a campaign checkpoint at every barrier;
    [resume] continues from one. *)
let run ?telemetry ?pool ?cache_dir ?incremental_link ?incremental_sched
    ?journal ?journal_path ?(host = Workloads.Generate.host_functions)
    ?checkpoint_path ?resume ~entry ~seeds (cfg : config) (base : Ir.Modul.t) =
  let nw = max 1 cfg.fc_workers in
  let r = match telemetry with Some r -> r | None -> Recorder.create () in
  let pool = match pool with Some p -> p | None -> Support.Pool.default () in
  (* flight recorder: events are recorded throughout and the bounded
     window is atomically republished at every barrier *)
  let jr, jflush =
    Telemetry.Journal.for_campaign ?journal ?path:journal_path ~clock:r.Recorder.clock ()
  in
  let digest = Orch.module_digest base in
  (match resume with
  | Some ck ->
    if ck.Orch.ck_digest <> digest then
      invalid_arg "Farm.run: checkpoint is for a different target module";
    if ck.Orch.ck_seed <> cfg.fc_seed then
      invalid_arg "Farm.run: checkpoint seed differs from the configured seed"
  | None -> ());
  Orch.with_farm_span r cfg ~workers:nw ~mode:"domains" @@ fun farm_sp ->
  let shared = Odin.Session.object_cache ~size:1024 () in
  let jclock = Telemetry.Clock.synchronized r.Recorder.clock in
  (* Workers are created serially in id order: worker 0's initial build
     populates the shared cache, every later worker's build is all
     cross hits. *)
  let mk_worker i =
    let wr = Recorder.fork ~clock:jclock r in
    let m = Ir.Clone.clone_module base in
    let session =
      (* tiering pinned to the config, not ODIN_TIER: farm results must
         not depend on the environment the campaign happens to run in *)
      Odin.Session.create ~mode:cfg.fc_mode ~keep:[ entry ]
        ~runtime_globals:[ Odin.Cov.runtime_global m ]
        ~host ~pool ~objects:shared ~owner:i ?cache_dir ?incremental_link
        ?incremental_sched ~tiered:(cfg.fc_promote_share > 0.) ~telemetry:wr m
    in
    let cov = Odin.Cov.setup session in
    let dead =
      match Odin.Session.try_build session with
      | Odin.Session.Ok | Odin.Session.Degraded _ -> None
      | Odin.Session.Rolled_back err ->
        Some ("initial build rolled back: " ^ err.Odin.Session.err_msg)
    in
    {
      wk_id = i;
      wk_session = session;
      wk_cov = cov;
      wk_corpus = Fuzzer.Corpus.create ();
      wk_recorder = wr;
      wk_execs = 0;
      wk_cycles = 0;
      wk_skipped = 0;
      wk_crashes = 0;
      wk_recompiles = 0;
      wk_dead = dead;
    }
  in
  let workers =
    Telemetry.Span.with_span r.Recorder.spans ~cat:"farm" "spawn" (fun () ->
        List.init nw mk_worker)
  in
  let n_probes =
    match workers with w :: _ -> w.wk_cov.Odin.Cov.total_probes | [] -> 0
  in
  let orch =
    match resume with
    | Some ck ->
      if ck.Orch.ck_n_probes <> n_probes && workers <> [] then
        invalid_arg "Farm.run: checkpoint probe count differs from the target";
      Orch.restore cfg ck
    | None -> Orch.create ~n_probes cfg
  in
  let interval_gauge =
    Telemetry.Metrics.counter r.Recorder.metrics "farm.sync_interval_current"
  in
  let n_seeds = List.length seeds in
  let default_input = match seeds with s :: _ -> s | [] -> "\x00" in

  let remove_probes w pids =
    let mgr = w.wk_session.Odin.Session.manager in
    List.iter
      (fun pid -> Option.iter (Instr.Manager.remove mgr) (Instr.Manager.get mgr pid))
      pids
  in
  (* apply checkpointed barrier effects to a fresh worker: replay the
     global corpus into its shard and remove the pruned probes, exactly
     as the broadcasts/prunes it missed would have *)
  let apply_ckpt_state w =
    Orch.replay_corpus w.wk_corpus (Orch.corpus_entries orch);
    let prunes = Orch.pruned_list orch in
    remove_probes w prunes;
    (* tier promotions catch up from the checkpointed merged profile:
       promote_hot is idempotent, so the fresh session re-derives the
       cumulative promotion set the campaign had reached *)
    let promoted =
      if cfg.fc_promote_share > 0. then
        Odin.Session.promote_hot ~threshold:cfg.fc_promote_share w.wk_session
          (Orch.fn_profile orch)
      else []
    in
    if
      prunes <> [] || promoted <> []
      || Odin.Session.degraded_fragments w.wk_session <> []
    then
      match Odin.Session.try_refresh w.wk_session with
      | Some (Odin.Session.Ok | Odin.Session.Degraded _) ->
        w.wk_recompiles <- w.wk_recompiles + 1
      | Some (Odin.Session.Rolled_back _) | None -> ()
  in
  if resume <> None then List.iter apply_ckpt_state (live workers);

  (* ---------------- one worker's share of a round ------------------ *)
  (* slot execution itself lives in Orch.exec_slot, shared with the
     process driver; this wrapper only adds the per-worker accounting *)
  let run_slot w idx =
    let item =
      Orch.exec_slot ~seed:cfg.fc_seed ~entry ~host ~seeds ~default_input
        ~session:w.wk_session ~total_probes:w.wk_cov.Odin.Cov.total_probes
        ~corpus:w.wk_corpus idx
    in
    w.wk_execs <- w.wk_execs + 1;
    w.wk_cycles <- w.wk_cycles + item.Csync.it_cycles;
    Recorder.count (Some w.wk_recorder) "campaign.execs";
    Recorder.observe (Some w.wk_recorder) "campaign.exec_cycles"
      (float_of_int item.Csync.it_cycles);
    item
  in
  (* never raises *)
  let run_share w idxs =
    let acc = ref [] in
    try
      List.iter
        (fun idx ->
          match run_slot w idx with
          | item -> acc := item :: !acc
          | exception Support.Fault.Transient_fault _ ->
            w.wk_skipped <- w.wk_skipped + 1
          | exception Vm.Fault _ -> w.wk_crashes <- w.wk_crashes + 1)
        idxs;
      Finished (List.rev !acc)
    with
    | Support.Fault.Injected site ->
      Died (Printf.sprintf "injected fault at %s" site, List.rev !acc)
    | Support.Fault.Timed_out site ->
      Died (Printf.sprintf "timed out at %s" site, List.rev !acc)
    | e -> Died (Printexc.to_string e, List.rev !acc)
  in

  (* ---------------- the sync barrier ------------------------------ *)
  let barrier ~round ~next (results : (worker * round_result) list) =
    Telemetry.Recorder.with_span r ~cat:"farm"
      ~args:[ ("round", string_of_int round) ]
      "sync"
    @@ fun () ->
    (* a worker that died mid-round loses its whole round: its slots are
       not merged, so survivors see exactly what they would have seen
       had the dead worker never been assigned those slots *)
    List.iter
      (fun (w, res) ->
        match res with
        | Died (reason, _) ->
          w.wk_dead <- Some reason;
          Recorder.count (Some r) "farm.worker_deaths"
        | Finished _ -> ())
      results;
    (* rendezvous: every surviving worker checks in — including workers
       that drew no slots this round; an injected fault here kills it at
       the barrier door, same exclusion *)
    List.iter
      (fun w ->
        if w.wk_dead = None then
          try Support.Fault.hit "farm.sync"
          with
          | Support.Fault.Injected site
          | Support.Fault.Transient_fault site
          | Support.Fault.Timed_out site
          ->
            w.wk_dead <- Some (Printf.sprintf "fault at %s" site);
            Recorder.count (Some r) "farm.worker_deaths")
      workers;
    let items =
      List.concat_map
        (fun (w, res) ->
          match (w.wk_dead, res) with
          | None, Finished items -> items
          | _ -> [])
        results
      |> List.sort (fun a b -> compare a.Csync.it_index b.Csync.it_index)
    in
    let broadcast, prunes = Orch.merge_round orch items in
    (* every live worker takes the barrier's effects, whether or not it
       drew a slot this round — shards must stay global replicas *)
    let survivors = live workers in
    List.iter
      (fun ce ->
        List.iter
          (fun w ->
            Fuzzer.Corpus.add w.wk_corpus ~energy:ce.Orch.ce_energy
              ~data:ce.Orch.ce_input ~exec_cycles:ce.Orch.ce_cycles
              ~new_blocks:ce.Orch.ce_fresh ())
          survivors)
      broadcast;
    Recorder.count (Some r) ~by:(List.length broadcast) "farm.inputs_exchanged";
    if prunes <> [] then
      Recorder.count (Some r) ~by:(List.length prunes) "farm.probes_pruned";
    (* the global tier-promotion decision: a pure function of the
       barrier-merged profile, evaluated per survivor — every session
       derives the same set, so within a round all workers still run
       byte-identical executables *)
    let profile =
      if cfg.fc_promote_share > 0. then Orch.fn_profile orch else []
    in
    let promoted_any = ref [] in
    (* the global prune + promotion decisions, applied identically to
       every survivor *)
    List.iter
      (fun w ->
        remove_probes w prunes;
        let promoted =
          if profile <> [] then
            Odin.Session.promote_hot ~threshold:cfg.fc_promote_share
              w.wk_session profile
          else []
        in
        if !promoted_any = [] then promoted_any := promoted;
        (* serial, in worker order: the first survivor compiles the
           post-prune (and newly promoted) fragments, the rest hit the
           shared cache *)
        if
          prunes <> [] || promoted <> []
          || Odin.Session.degraded_fragments w.wk_session <> []
        then
          match Odin.Session.try_refresh w.wk_session with
          | Some (Odin.Session.Ok | Odin.Session.Degraded _) ->
            w.wk_recompiles <- w.wk_recompiles + 1
          | Some (Odin.Session.Rolled_back _) | None -> ())
      survivors;
    if !promoted_any <> [] then
      Recorder.count (Some r) ~by:(List.length !promoted_any)
        "farm.tier_promotions";
    (* store GC: bound the shared persistent tier while everyone is
       parked at the barrier *)
    (match (survivors, cfg.fc_cache_limit, cfg.fc_cache_age) with
    | _, None, None | [], _, _ -> ()
    | w :: _, _, _ -> (
      match w.wk_session.Odin.Session.store with
      | None -> ()
      | Some st ->
        let g =
          Support.Objstore.gc ?max_bytes:cfg.fc_cache_limit
            ?max_age:cfg.fc_cache_age st
        in
        orch.Orch.o_gc_evicted <- orch.Orch.o_gc_evicted + g.Support.Objstore.gc_evicted;
        if g.Support.Objstore.gc_evicted > 0 then
          Recorder.count (Some r) ~by:g.Support.Objstore.gc_evicted
            "farm.store_gc_evicted"));
    Recorder.count (Some r) "farm.sync_rounds";
    Telemetry.Metrics.set interval_gauge orch.Orch.o_interval;
    (* flight recorder: one sync event plus a campaign-counter snapshot
       (farm.* live on the farm recorder, session.*/link.* on the parked
       workers' forks), republished atomically while everyone is at the
       barrier *)
    (match jr with
    | None -> ()
    | Some j ->
      Orch.record_sync_event j orch ~round ~merged:(List.length items)
        ~accepted:(List.length broadcast) ~pruned:(List.length prunes);
      let store =
        match workers with
        | w :: _ -> w.wk_session.Odin.Session.store
        | [] -> None
      in
      Orch.record_counters_event j ~round
        ~quarantined:(Option.map Support.Objstore.quarantine_length store)
        (r :: List.map (fun w -> w.wk_recorder) workers));
    (* atomic checkpoint publish at every barrier *)
    (match checkpoint_path with
    | None -> ()
    | Some path ->
      let sum f = List.fold_left (fun a w -> a + f w) 0 workers in
      let ck =
        Orch.snapshot orch ~digest ~workers:nw ~round ~next
          ~skipped:(orch.Orch.o_skipped + sum (fun w -> w.wk_skipped))
          ~crashes:(orch.Orch.o_crashes + sum (fun w -> w.wk_crashes))
          ~recompiles:(orch.Orch.o_recompiles + sum (fun w -> w.wk_recompiles))
          ~restarts:orch.Orch.o_restarts ~weights:[]
      in
      if Wire.write_checkpoint path ck then
        Recorder.count (Some r) "farm.checkpoints");
    jflush ()
  in

  (* ---------------- round scheduler ------------------------------- *)
  (* slots are dealt round-robin over the live workers; the deal only
     decides who computes what *)
  let run_round ~round ~next idxs =
    match live workers with
    | [] -> ()
    | ws ->
      let results =
        Support.Pool.map pool
          (fun (w, idxs) ->
            Telemetry.Recorder.with_span w.wk_recorder ~cat:"farm"
              ~args:[ ("round", string_of_int round) ]
              "worker-round"
              (fun () -> (w, run_share w idxs)))
          (Supervisor.deal ws idxs)
      in
      barrier ~round ~next results
  in
  Orch.schedule orch cfg ~resume ~n_seeds
    ~alive:(fun () -> live workers <> [])
    run_round;

  (* ---------------- join ------------------------------------------ *)
  let cross = Odin.Session.cross_hits shared in
  Recorder.count (Some r) ~by:cross "farm.cache_cross_hits";
  List.iter (fun w -> Recorder.merge ~into:r ~parent:farm_sp w.wk_recorder) workers;
  (* per-probe cost roll-up. Toggle counts come from a live worker's
     manager (sessions apply barrier effects identically, so any
     survivor agrees); a fully dead farm falls back to worker 0. *)
  let mgr =
    match live workers with
    | w :: _ -> Some w.wk_session.Odin.Session.manager
    | [] -> (
      match workers with
      | w :: _ -> Some w.wk_session.Odin.Session.manager
      | [] -> None)
  in
  let toggles pid =
    match mgr with Some m -> Instr.Manager.toggle_count m pid | None -> 0
  in
  let probe_cost = Orch.probe_costs orch ~toggles in
  let sum f = List.fold_left (fun a w -> a + f w) 0 workers in
  let crashes = orch.Orch.o_crashes + sum (fun w -> w.wk_crashes) in
  (match jr with
  | None -> ()
  | Some j ->
    Orch.record_probe_cost_events j probe_cost;
    Orch.record_done_event j orch ~workers:nw ~cross_hits:cross ~crashes;
    jflush ());
  Orch.mk_stats orch ~workers:nw ~cross_hits:cross
    ~skipped:(orch.Orch.o_skipped + sum (fun w -> w.wk_skipped))
    ~crashes
    ~recompiles:(orch.Orch.o_recompiles + sum (fun w -> w.wk_recompiles))
    ~dead:
      (List.filter_map
         (fun w ->
           match w.wk_dead with Some why -> Some (w.wk_id, why) | None -> None)
         workers)
    ~store:
      (match workers with
      | w :: _ -> Odin.Session.store_stats w.wk_session
      | [] -> None)
    ~probe_cost
