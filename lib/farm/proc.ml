(** Process-isolated fuzzing farm: a supervisor and N worker processes
    exchanging {!Wire} frames over pipes.

    The domains driver ({!Farm.run}) shares one OCaml heap: a wedged or
    segfaulting worker — exactly what a fuzzer is built to provoke —
    takes the campaign with it, and the cooperative [with_deadline]
    watchdog cannot preempt a worker stuck in a non-yielding loop. Here
    each worker is a separate process ([odinc fuzz-worker]) running one
    round's slot schedule at a time; the supervisor owns all campaign
    state ({!Orch.t}) and can always [SIGKILL] a stuck worker.

    {2 Stateless workers, deterministic restarts}

    Every [Assign] frame carries the worker's complete round context:
    the full global-corpus replica (with energies), the full pruned
    set, and the slot list. A worker rebuilds its shard from scratch
    each round, so a killed worker is restarted by re-sending the very
    same frame — the partial results of the killed attempt are
    discarded and the re-run reproduces them bit-identically (slots are
    pure functions of [(seed, slot, round-start replica)]). Coverage,
    corpus and cycles are therefore invariant across worker counts,
    across [--farm-mode domains|procs], and across any kill/restart
    schedule — the property the kill matrix in [test_proc.ml] pins
    down.

    {2 Supervision}

    Supervision is {!Supervisor}'s, shared with the mutation campaign:
    workers send a [Heartbeat] frame after applying round state and
    after every completed slot; no heartbeat for [worker_timeout]
    seconds ⇒ [SIGKILL], restart, re-assign (same frame). A worker that
    dies more than [max_restarts] times is retired and its outstanding
    assignment moves to the lowest-id live worker — slot results do not
    depend on who computes them. What this client adds is the codec
    (typed [Init]/[Ready]/[Assign]/[Items] frames) and vote decay: each
    restart multiplies the worker's vote weight by [fc_vote_decay]
    (weighted quorums: evidence from a crash-looping worker counts for
    less; 1.0 keeps exact integer quorums). Fault sites:
    ["farm.heartbeat"] is documented in {!Supervisor}; ["wire.send"]
    (in either process) and ["farm.checkpoint"] in {!Wire}.

    {2 Checkpoint/resume}

    After every barrier the supervisor publishes an {!Orch.ckpt}
    through {!Wire.write_checkpoint} (atomic, [.prev] rotation).
    [run ~resume] continues from it: workers are stateless, so resume
    is nothing more than restoring the orchestrator and carrying on
    with the next round — reaching the same final coverage bitmap and
    journal tail as the uninterrupted run.

    Unlike the domains driver — which discards a dead worker's
    in-flight round and retires the lane — this driver re-runs the
    dead worker's share: with faults in play the two modes intentionally
    differ (that is the crash-proofing), while fault-free campaigns are
    bit-identical across modes. *)

module Recorder = Telemetry.Recorder

(* ================================================================== *)
(* Worker side                                                         *)
(* ================================================================== *)

(* build the worker's session from its Init frame; the state is the
   function serving one [Assign] *)
let boot (init : Wire.init) =
  let m = Ir.Parse.module_of_string ~name:init.Wire.in_mod_name init.Wire.in_mod_text in
  let session =
    Odin.Session.create ~mode:init.Wire.in_mode ~keep:[ init.Wire.in_entry ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~host:init.Wire.in_host ~pool:Support.Pool.serial
      ?cache_dir:init.Wire.in_cache_dir
      ?incremental_link:init.Wire.in_incr_link
      ?incremental_sched:init.Wire.in_incr_sched
      ~tiered:(init.Wire.in_promote_share > 0.) m
  in
  let cov = Odin.Cov.setup session in
  (match Odin.Session.try_build session with
  | Odin.Session.Ok | Odin.Session.Degraded _ -> ()
  | Odin.Session.Rolled_back err ->
    failwith ("initial build rolled back: " ^ err.Odin.Session.err_msg));
  let mgr = session.Odin.Session.manager in
  let default_input = match init.Wire.in_seeds with s :: _ -> s | [] -> "\x00" in
  let serve_assign (a : Wire.assign) =
    (* stateless round context: rebuild the shard replica, remove the
       pruned probes this process still has, refresh if needed *)
    let corpus = Fuzzer.Corpus.create () in
    Orch.replay_corpus corpus a.Wire.as_corpus;
    let fresh_prunes = List.filter_map (Instr.Manager.get mgr) a.Wire.as_pruned in
    List.iter (Instr.Manager.remove mgr) fresh_prunes;
    (* tier promotions: re-derive the cumulative promotion set from
       the merged profile the supervisor sent. promote_hot is
       idempotent, so a long-lived process queues only what is new —
       and a freshly restarted one catches up on everything at once *)
    let fresh_promos =
      if init.Wire.in_promote_share > 0. then
        Odin.Session.promote_hot ~threshold:init.Wire.in_promote_share
          session a.Wire.as_fn_cycles
      else []
    in
    let recompiles = ref 0 in
    if
      fresh_prunes <> [] || fresh_promos <> []
      || Odin.Session.degraded_fragments session <> []
    then (
      match Odin.Session.try_refresh session with
      | Some (Odin.Session.Ok | Odin.Session.Degraded _) -> incr recompiles
      | Some (Odin.Session.Rolled_back _) | None -> ());
    fun tick ->
      let items = ref [] and skipped = ref 0 and crashes = ref 0 in
      List.iter
        (fun idx ->
          (match
             Orch.exec_slot ~seed:init.Wire.in_seed ~entry:init.Wire.in_entry
               ~host:init.Wire.in_host ~seeds:init.Wire.in_seeds ~default_input
               ~session ~total_probes:cov.Odin.Cov.total_probes ~corpus idx
           with
          | item -> items := item :: !items
          | exception Support.Fault.Transient_fault _ -> incr skipped
          | exception Vm.Fault _ -> incr crashes);
          tick ())
        a.Wire.as_slots;
      Wire.Items
        {
          im_round = a.Wire.as_round;
          im_items = List.rev !items;
          im_skipped = !skipped;
          im_crashes = !crashes;
          im_recompiles = !recompiles;
        }
  in
  ( serve_assign,
    Wire.Ready { rd_id = init.Wire.in_id; rd_n_probes = cov.Odin.Cov.total_probes } )

(** Body of [odinc fuzz-worker] (and of the test/bench re-exec
    shims): {!Supervisor.serve} over the typed fuzz frames. *)
let worker_main () =
  Supervisor.serve
    ~boot:(function Wire.Init i -> Some (boot i) | _ -> None)
    ~job:(fun serve_assign -> function
      | Wire.Assign a -> Some (a.Wire.as_round, serve_assign a)
      | _ -> None)
    ()

(* ================================================================== *)
(* Supervisor side                                                     *)
(* ================================================================== *)

(** Run a process farm over [base]: same contract and result shape as
    the domains driver ({!Farm.run}), plus supervision and
    checkpointing. [worker_argv] is the command line re-executed for
    each worker (default [[| Sys.executable_name; "fuzz-worker" |]],
    which is right for [odinc]; tests and benches pass their own
    re-exec marker); [worker_env] the workers' environment (default:
    inherited — note [ODIN_FAULTS] in it installs the plan {e in the
    workers}). [checkpoint_path] publishes a checkpoint at every
    barrier; [resume] continues a campaign from a loaded checkpoint
    (the target digest must match). [worker_timeout] is the preemptive
    watchdog's heartbeat deadline in seconds; [max_restarts] the
    kill/restart budget per worker before it is retired. *)
let run ?telemetry ?cache_dir ?incremental_link ?incremental_sched ?journal
    ?journal_path ?(host = Workloads.Generate.host_functions) ?checkpoint_path
    ?resume ?(worker_timeout = 30.) ?(max_restarts = 3) ?worker_argv
    ?worker_env ~entry ~seeds (cfg : Orch.config) (base : Ir.Modul.t) =
  let nw = max 1 cfg.Orch.fc_workers in
  let r = match telemetry with Some r -> r | None -> Recorder.create () in
  let jr, jflush =
    Telemetry.Journal.for_campaign ?journal ?path:journal_path ~clock:r.Recorder.clock ()
  in
  let digest = Orch.module_digest base in
  let mod_text = Ir.Print.module_to_string base in
  Orch.with_farm_span r cfg ~workers:nw ~mode:"procs" @@ fun _ ->
  (match resume with
  | Some ck ->
    if ck.Orch.ck_digest <> digest then
      invalid_arg "Proc.run: checkpoint is for a different target module";
    if ck.Orch.ck_seed <> cfg.Orch.fc_seed then
      invalid_arg "Proc.run: checkpoint seed differs from the configured seed"
  | None -> ());
  (* per-worker vote weight; decays by repeated multiplication (not
     [decay ** n], which can differ in the last bit and flip a quorum) *)
  let weights = Array.make nw 1.0 in
  (* substrate counters, summed over every worker's Items *)
  let skipped = ref 0 and crashes = ref 0 and recompiles = ref 0 in
  let spec =
    {
      Supervisor.argv =
        Option.value worker_argv ~default:[| Sys.executable_name; "fuzz-worker" |];
      env = Option.value worker_env ~default:(Unix.environment ());
      timeout = worker_timeout;
      max_restarts;
      prefix = "farm";
      init =
        (fun id ->
          Wire.Init
            {
              Wire.in_id = id;
              in_seed = cfg.Orch.fc_seed;
              in_mode = cfg.Orch.fc_mode;
              in_entry = entry;
              in_host = host;
              in_seeds = seeds;
              in_mod_name = base.Ir.Modul.mname;
              in_mod_text = mod_text;
              in_cache_dir = cache_dir;
              in_incr_link = incremental_link;
              in_incr_sched = incremental_sched;
              in_promote_share = cfg.Orch.fc_promote_share;
            });
      ready = (function Wire.Ready { rd_n_probes; _ } -> Some rd_n_probes | _ -> None);
      assign = (fun a -> Wire.Assign a);
      (* the vote weight is the sender's at arrival time *)
      result =
        (fun id -> function
          | Wire.Items im -> Some (im.Wire.im_round, (weights.(id), im))
          | _ -> None);
      on_restart = (fun id -> weights.(id) <- weights.(id) *. cfg.Orch.fc_vote_decay);
    }
  in
  Supervisor.run ~telemetry:r ~workers:nw spec @@ fun sup ->
  let n_probes = Supervisor.units sup in
  let orch =
    match resume with
    | Some ck ->
      if ck.Orch.ck_n_probes <> n_probes && Supervisor.live sup <> [] then
        invalid_arg "Proc.run: checkpoint probe count differs from the target";
      let t = Orch.restore cfg ck in
      List.iter
        (fun (id, wt) -> if id >= 0 && id < nw then weights.(id) <- wt)
        ck.Orch.ck_weights;
      t
    | None -> Orch.create ~n_probes cfg
  in
  let sup_store =
    Option.map
      (Support.Objstore.open_store ~version:Odin.Session.store_format_version)
      cache_dir
  in
  let interval_gauge =
    Telemetry.Metrics.counter r.Recorder.metrics "farm.sync_interval_current"
  in
  (* ---- the barrier ------------------------------------------------ *)
  let barrier ~round ~next results =
    Telemetry.Recorder.with_span r ~cat:"farm"
      ~args:[ ("round", string_of_int round) ]
      "sync"
    @@ fun () ->
    let weight_of_slot : (int, float) Hashtbl.t = Hashtbl.create 97 in
    List.iter
      (fun (wt, im) ->
        skipped := !skipped + im.Wire.im_skipped;
        crashes := !crashes + im.Wire.im_crashes;
        recompiles := !recompiles + im.Wire.im_recompiles;
        List.iter
          (fun it -> Hashtbl.replace weight_of_slot it.Csync.it_index wt)
          im.Wire.im_items)
      results;
    let items =
      List.concat_map (fun (_, im) -> im.Wire.im_items) results
      |> List.sort (fun a b -> compare a.Csync.it_index b.Csync.it_index)
    in
    let weight it =
      Option.value ~default:1.0 (Hashtbl.find_opt weight_of_slot it.Csync.it_index)
    in
    let broadcast, prunes = Orch.merge_round ~weight orch items in
    Recorder.count (Some r) ~by:(List.length broadcast) "farm.inputs_exchanged";
    if prunes <> [] then
      Recorder.count (Some r) ~by:(List.length prunes) "farm.probes_pruned";
    Recorder.count (Some r) "farm.sync_rounds";
    Telemetry.Metrics.set interval_gauge orch.Orch.o_interval;
    (* store GC while every worker is parked at the barrier *)
    (match (sup_store, cfg.Orch.fc_cache_limit, cfg.Orch.fc_cache_age) with
    | None, _, _ | _, None, None -> ()
    | Some st, _, _ ->
      let g =
        Support.Objstore.gc ?max_bytes:cfg.Orch.fc_cache_limit
          ?max_age:cfg.Orch.fc_cache_age st
      in
      orch.Orch.o_gc_evicted <- orch.Orch.o_gc_evicted + g.Support.Objstore.gc_evicted;
      if g.Support.Objstore.gc_evicted > 0 then
        Recorder.count (Some r) ~by:g.Support.Objstore.gc_evicted
          "farm.store_gc_evicted");
    (match jr with
    | None -> ()
    | Some j ->
      Orch.record_sync_event j orch ~round ~merged:(List.length items)
        ~accepted:(List.length broadcast) ~pruned:(List.length prunes);
      Orch.record_counters_event j ~round
        ~quarantined:(Option.map Support.Objstore.quarantine_length sup_store)
        [ r ]);
    (* atomic checkpoint publish at every barrier *)
    (match checkpoint_path with
    | None -> ()
    | Some path ->
      let ck =
        Orch.snapshot orch ~digest ~workers:nw ~round ~next
          ~skipped:(orch.Orch.o_skipped + !skipped)
          ~crashes:(orch.Orch.o_crashes + !crashes)
          ~recompiles:(orch.Orch.o_recompiles + !recompiles)
          ~restarts:(orch.Orch.o_restarts + Supervisor.restarts sup)
          ~weights:(List.init nw (fun id -> (id, weights.(id))))
      in
      if Wire.write_checkpoint path ck then
        Recorder.count (Some r) "farm.checkpoints");
    jflush ()
  in
  (* ---- round scheduler -------------------------------------------- *)
  let run_round ~round ~next idxs =
    match Supervisor.live sup with
    | [] -> ()
    | live ->
      let corpus = Orch.corpus_entries orch in
      let pruned = Orch.pruned_list orch in
      let fn_cycles =
        if cfg.Orch.fc_promote_share > 0. then Orch.fn_profile orch else []
      in
      let jobs =
        List.map
          (fun (id, slots) ->
            ( id,
              {
                Wire.as_round = round;
                as_slots = slots;
                as_corpus = corpus;
                as_pruned = pruned;
                as_fn_cycles = fn_cycles;
              } ))
          (Supervisor.deal live idxs)
      in
      barrier ~round ~next (Supervisor.collect sup ~round jobs)
  in
  (try
     Orch.schedule orch cfg ~resume ~n_seeds:(List.length seeds)
       ~alive:(fun () -> Supervisor.live sup <> [])
       run_round
   with Supervisor.All_retired -> ());
  (* toggle counts: in a farm campaign the only instrumentation toggles
     are prune removals — one per pruned probe, applied identically in
     every worker (and by the domains driver's managers) *)
  let toggles pid = if Orch.pruned orch pid then 1 else 0 in
  let probe_cost = Orch.probe_costs orch ~toggles in
  let crashes = orch.Orch.o_crashes + !crashes in
  (match jr with
  | None -> ()
  | Some j ->
    Orch.record_probe_cost_events j probe_cost;
    Orch.record_done_event j orch ~workers:nw ~cross_hits:0 ~crashes;
    jflush ());
  Orch.mk_stats orch ~workers:nw ~cross_hits:0
    ~skipped:(orch.Orch.o_skipped + !skipped)
    ~crashes
    ~recompiles:(orch.Orch.o_recompiles + !recompiles)
    ~dead:(Supervisor.retired sup)
    ~store:(Option.map Support.Objstore.stats sup_store)
    ~probe_cost
