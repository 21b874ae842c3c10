(** Fuzzing farm: N concurrent campaign workers over one target, each
    with its own deterministic RNG stream, corpus shard and Odin
    session, sharing one content-addressed object cache. Workers
    rendezvous at sync barriers: deduplicating corpus exchange
    ({!Csync}), global coverage merge, and globally-voted probe pruning
    ({!Instr.Votes}). Deterministic for a fixed (seed, sync-interval)
    pair; the logical results (coverage, pruned set, corpus) are
    worker-count invariant by construction — and substrate invariant:
    this domains driver and the process-isolated driver ({!Proc})
    share one orchestration core ({!Orch}) and produce bit-identical
    campaigns. *)

(** The corpus-sync protocol, re-exported: [farm.ml] is the library's
    interface module, so this is the public path to {!Csync}. *)
module Csync = Csync

(** The shared orchestration core (slot execution, barrier merge,
    weighted votes, adaptive intervals, checkpoints). *)
module Orch = Orch

(** The supervisor/worker wire protocol and the checkpoint file
    format. *)
module Wire = Wire

(** The process supervisor shared by the process-isolated fuzz driver
    and the mutation campaign: spawn, handshake, preemptive watchdog,
    kill/restart/retire, shutdown, and the worker-side serve loop. *)
module Supervisor = Supervisor

(** The process-isolated driver: a {!Supervisor} client plus
    checkpoint/resume. *)
module Proc = Proc

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
      (** vote-weight multiplier per kill/restart ({!Proc}); 1.0
          (default) keeps exact integer quorums *)
  fc_adaptive_sync : bool;
      (** scale the sync interval up on quiet barriers, reset on new
          coverage (off by default) *)
  fc_promote_share : float;
      (** > 0: tiered workers + barrier tier promotions at this merged
          cycle-share threshold; 0.0 (default) = untiered ({!Orch}) *)
}

(** 1 worker, 400 execs, sync every 100, seed 42, quorum 1, no GC,
    vote decay 1.0, fixed interval. *)
val default_config : config

type worker = {
  wk_id : int;
  wk_session : Odin.Session.t;
  wk_cov : Odin.Cov.t;
  wk_corpus : Fuzzer.Corpus.t;
  wk_vm : Vm.t Lazy.t;  (** reused by every slot; built on first use *)
  wk_recorder : Telemetry.Recorder.t;
  mutable wk_execs : int;
  mutable wk_cycles : int;
  mutable wk_skipped : int;
  mutable wk_crashes : int;
  mutable wk_recompiles : int;
  mutable wk_dead : string option;
}

(** Cumulative cost attribution for one probe site across the campaign:
    instrumentation toggles (enable/disable flips + removal), merged
    executions run while the probe was globally armed, and the VM's
    per-site increment hits/cycles (merged in slot order — worker-count
    invariant like every other farm result). *)
type probe_cost = Orch.probe_cost = {
  pc_pid : int;
  pc_toggles : int;
  pc_execs_armed : int;
  pc_hits : int;
  pc_cycles : int;
}

type stats = Orch.stats = {
  fs_workers : int;
  fs_execs : int;  (** executions merged at barriers (seeds included) *)
  fs_total_cycles : int;
  fs_sync_rounds : int;
  fs_offered : int;
  fs_exchanged : int;  (** accepted and broadcast to every shard *)
  fs_duplicates : int;
  fs_stale : int;
  fs_coverage : int list;  (** globally covered probe ids, ascending *)
  fs_total_probes : int;
  fs_pruned : int list;  (** globally pruned probe ids, ascending *)
  fs_corpus : string list;  (** global corpus inputs, acceptance order *)
  fs_cross_hits : int;  (** object-cache hits on another worker's entry *)
  fs_recompiles : int;
  fs_skipped : int;
  fs_crashes : int;
  fs_dead : (int * string) list;
  fs_gc_evicted : int;
  fs_store : Support.Objstore.stats option;
  fs_probe_cost : probe_cost list;  (** every probe id, ascending *)
}

(** duplicates / offered, percent. *)
val dedup_rate : stats -> float

(** Run a farm over [base]: build one session per worker (shared object
    cache, optional shared persistent store via [cache_dir]), replay
    the [seeds], then spend [fc_execs] mutated executions in
    sync-interval rounds. [entry] is the target entry point; [host]
    names host functions registered as no-ops in each guest VM
    (defaults to the workloads' host set). Per-worker telemetry is
    recorded on forked recorders and merged into [telemetry] (or a
    private recorder) at the end. Every worker's session takes the one
    production refresh path: dirty-set schedule, then incremental
    relink (falling back to a full link when a patch is unsafe).

    [journal]/[journal_path] attach a campaign flight recorder: sync
    and counter-snapshot events are recorded at every barrier, per-probe
    cost events plus a final summary at the end, and when a path is
    given the bounded window is atomically republished at each barrier
    (crash-safe: a killed farm leaves the last barrier's journal). A
    path without a journal creates a private one.

    [checkpoint_path] publishes an {!Orch.ckpt} atomically at every
    barrier ({!Wire.write_checkpoint}); [resume] continues a campaign
    from a loaded checkpoint (same target module and seed required),
    reaching the same final state as an uninterrupted run. *)
val run :
  ?telemetry:Telemetry.Recorder.t ->
  ?pool:Support.Pool.t ->
  ?cache_dir:string ->
  ?journal:Telemetry.Journal.t ->
  ?journal_path:string ->
  ?host:string list ->
  ?checkpoint_path:string ->
  ?resume:Orch.ckpt ->
  entry:string ->
  seeds:string list ->
  config ->
  Ir.Modul.t ->
  stats
