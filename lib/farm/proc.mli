(** Process-isolated fuzzing farm: N worker processes exchanging
    {!Wire} frames over pipes, run by {!Supervisor} — the one process
    supervisor, shared with the mutation campaign. This module is its
    fuzz client: the typed [Init]/[Ready]/[Assign]/[Items] codec, the
    worker's round body, vote decay, barriers and checkpoints.

    Workers are stateless between rounds — every [Assign] frame carries
    the full round context — so a worker killed at any point (including
    by the supervisor's preemptive heartbeat watchdog) is restarted and
    re-sent the same assignment, reproducing its results
    bit-identically. Coverage, corpus and cycles are invariant across
    worker counts, across [--farm-mode domains|procs], and across any
    kill/restart schedule. A worker that dies more than [max_restarts]
    times is retired and its outstanding work moves to the lowest-id
    live worker; each restart multiplies the worker's prune-vote weight
    by [fc_vote_decay]. Every exit path — including a refused resume —
    shuts the fleet down and reaps it.

    At every sync barrier the supervisor publishes an {!Orch.ckpt}
    through {!Wire.write_checkpoint}; [run ~resume] continues a
    campaign from one, reaching the same final coverage bitmap and
    journal tail as the uninterrupted run. *)

(** Body of the hidden [odinc fuzz-worker] subcommand (and of the
    test/bench re-exec shims): serve one worker's slot schedules over
    stdin/stdout until [Shutdown]. Installs the [ODIN_FAULTS] plan from
    the environment and never returns. *)
val worker_main : unit -> unit

(** Run a process farm over the base module: same contract and result
    shape as the domains driver ({!Farm.run}), plus supervision and
    checkpointing. [worker_argv] is the command line re-executed for
    each worker (default [[| Sys.executable_name; "fuzz-worker" |]]);
    [worker_env] the workers' environment (default: inherited — an
    [ODIN_FAULTS] entry installs the plan {e in the workers}).
    [checkpoint_path] publishes a checkpoint at every barrier; [resume]
    continues from a loaded checkpoint (the target digest must match).
    [worker_timeout] is the preemptive watchdog's heartbeat deadline in
    seconds (default 30); [max_restarts] the kill/restart budget per
    worker before it is retired (default 3). *)
val run :
  ?telemetry:Telemetry.Recorder.t ->
  ?cache_dir:string ->
  ?incremental_link:bool ->
  ?incremental_sched:bool ->
  ?journal:Telemetry.Journal.t ->
  ?journal_path:string ->
  ?host:string list ->
  ?checkpoint_path:string ->
  ?resume:Orch.ckpt ->
  ?worker_timeout:float ->
  ?max_restarts:int ->
  ?worker_argv:string array ->
  ?worker_env:string array ->
  entry:string ->
  seeds:string list ->
  Orch.config ->
  Ir.Modul.t ->
  Orch.stats
