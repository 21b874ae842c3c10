(** Shared orchestration core for the farm's two drivers (domains and
    processes): everything that decides campaign {e results} — slot
    execution, barrier merges, weighted prune votes, corpus broadcast,
    adaptive sync intervals, checkpoints — so bit-identity across
    [--farm-mode domains|procs] is structural rather than tested-for. *)

type config = {
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
      (** multiplier applied to a worker's vote weight each time its
          process is killed and restarted mid-round; 1.0 (default)
          keeps the historical exact-integer quorums *)
  fc_adaptive_sync : bool;
      (** scale the sync interval up on quiet barriers, reset on new
          coverage (off by default: a fixed interval is what the
          worker-count-invariance tests pin down) *)
  fc_promote_share : float;
      (** tiered compilation: when > 0, worker sessions compile fresh
          fragments through the tier-0 baseline backend and, at each
          barrier, fragments whose share of the {e barrier-merged}
          per-function cycles reaches this threshold are promoted to
          the optimizing tier — a pure function of merged state, so
          promotion decisions are bit-identical across worker counts
          and [--farm-mode domains|procs]. 0.0 (default) keeps every
          worker untiered, bit-identical to the pre-tier farm. *)
}

val default_config : config

(** Cumulative cost attribution for one probe site across the whole
    campaign. *)
type probe_cost = {
  pc_pid : int;
  pc_toggles : int;  (** enable/disable flips + removal ({!Instr.Manager}) *)
  pc_execs_armed : int;  (** merged executions while globally armed *)
  pc_hits : int;  (** counter increments executed *)
  pc_cycles : int;  (** VM cycles spent in the increment sequence *)
}

type stats = {
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

val dedup_rate : stats -> float

(** One global-corpus entry, as broadcast to every shard. *)
type centry = {
  ce_input : string;
  ce_energy : int;
  ce_cycles : int;
  ce_fresh : int;  (** probes freshly covered when accepted *)
}

(** Quiet barriers (no accepted inputs) before the adaptive interval
    doubles, and the cap on the scale factor. *)
val adaptive_quiet_rounds : int

val adaptive_max_scale : int

type t = {
  o_seed : int;
  o_quorum : int;
  o_adaptive : bool;
  o_interval_base : int;
  o_n_probes : int;
  o_sync : Csync.t;
  o_votes : Instr.Votes.t;
  o_pruned : (int, unit) Hashtbl.t;
  o_hits_cycles : (int, int ref * int ref) Hashtbl.t;
  o_execs_armed : (int, int) Hashtbl.t;
  o_fn_cycles : (string, int ref) Hashtbl.t;
      (** barrier-merged per-function cycle attribution: the global
          profile tier promotions are decided from *)
  mutable o_corpus : centry list;  (** accepted entries, newest first *)
  mutable o_execs : int;
  mutable o_cycles : int;
  mutable o_rounds : int;  (** barriers merged (this run + checkpoint) *)
  mutable o_interval : int;  (** current sync interval (adaptive) *)
  mutable o_quiet : int;  (** consecutive accept-free barriers *)
  mutable o_gc_evicted : int;
  mutable o_skipped : int;  (** cumulative bases restored from a checkpoint; *)
  mutable o_crashes : int;  (** drivers add their live counts on top *)
  mutable o_recompiles : int;
  mutable o_restarts : int;
}

val create : n_probes:int -> config -> t
val pruned : t -> int -> bool
val pruned_list : t -> int list

(** The barrier-merged global per-function cycle profile, heaviest
    first (ties by name) — the deterministic input every worker feeds
    to [Odin.Session.promote_hot], so promotion decisions cannot
    depend on worker count or driver substrate. *)
val fn_profile : t -> (string * int) list

(** Accepted corpus entries, acceptance order. *)
val corpus_entries : t -> centry list

(** Rebuild a shard as an exact replica of the global corpus. *)
val replay_corpus : Fuzzer.Corpus.t -> centry list -> unit

(** Run one execution slot against a session's current executable.
    Deterministic in the slot index alone (given the round-start shard
    state): which worker — domain or process — runs it is irrelevant
    to the result. Slots below the seed count replay the seeds. *)
val exec_slot :
  seed:int ->
  entry:string ->
  host:string list ->
  seeds:string list ->
  default_input:string ->
  session:Odin.Session.t ->
  total_probes:int ->
  corpus:Fuzzer.Corpus.t ->
  int ->
  Csync.item

(** Merge one barrier's worth of items (sorted by slot index, dead
    lanes excluded). [weight] maps an item to the producing worker's
    vote weight (default 1.0). Returns the accepted entries (broadcast
    order) and the probes newly saturated to the prune quorum; advances
    the adaptive interval when enabled. *)
val merge_round :
  ?weight:(Csync.item -> float) -> t -> Csync.item list -> centry list * int list

(** Per-probe cost roll-up over every probe id, ascending; [toggles]
    supplies the instrumentation-toggle count per probe. *)
val probe_costs : t -> toggles:(int -> int) -> probe_cost list

(** Bumped whenever the checkpoint payload changes shape; {!Wire}
    rejects mismatches cleanly. *)
val ckpt_version : int

(** A complete, self-contained snapshot of a campaign at a sync
    barrier. [ck_next] is the mutation-budget cursor (slot RNGs are
    pure functions of [(seed, slot)], so no generator state is
    stored); [ck_round] the last completed round. *)
type ckpt = {
  ck_version : int;
  ck_digest : string;  (** target module digest — resume refuses a mismatch *)
  ck_seed : int;
  ck_workers : int;
  ck_interval_base : int;
  ck_n_probes : int;
  ck_round : int;
  ck_next : int;
  ck_bitmap : string;
  ck_seen : string list;
  ck_offered : int;
  ck_accepted : int;
  ck_duplicates : int;
  ck_stale : int;
  ck_votes : (int * float) list;
  ck_pruned : int list;
  ck_corpus : centry list;  (** acceptance order *)
  ck_execs : int;
  ck_cycles : int;
  ck_rounds : int;
  ck_execs_armed : (int * int) list;
  ck_probe_cost : (int * int * int) list;  (** (pid, hits, cycles) *)
  ck_fn_cycles : (string * int) list;  (** merged profile, heaviest first *)
  ck_interval : int;
  ck_quiet : int;
  ck_skipped : int;
  ck_crashes : int;
  ck_recompiles : int;
  ck_restarts : int;
  ck_gc_evicted : int;
  ck_weights : (int * float) list;  (** per-worker vote weights *)
}

(** Snapshot the orchestrator with campaign-cumulative driver counts. *)
val snapshot :
  t ->
  digest:string ->
  workers:int ->
  round:int ->
  next:int ->
  skipped:int ->
  crashes:int ->
  recompiles:int ->
  restarts:int ->
  weights:(int * float) list ->
  ckpt

(** Rebuild an orchestrator from a checkpoint; [cfg] supplies the knobs
    a checkpoint does not pin (quorum, adaptivity, GC bounds). *)
val restore : config -> ckpt -> t

(** The round schedule of both drivers: a fresh campaign's round 0
    runs the seed slots; then the execution budget goes out in chunks
    of the current (adaptive) sync interval while [alive ()], resuming
    after a checkpoint's round and cursor. [run_round ~round ~next
    slots] runs one round; [next] is the budget cursor after it. *)
val schedule :
  t ->
  config ->
  resume:ckpt option ->
  n_seeds:int ->
  alive:(unit -> bool) ->
  (round:int -> next:int -> int list -> unit) ->
  unit

(** Run [f] inside a campaign's top-level ["farm"] span (passed to
    [f]); [mode] names the driver. *)
val with_farm_span :
  Telemetry.Recorder.t ->
  config ->
  workers:int ->
  mode:string ->
  (Telemetry.Span.span -> 'a) ->
  'a

(** Digest pinning a module's identity for checkpoints and the wire
    Init frame: the printed IR's MD5. *)
val module_digest : Ir.Modul.t -> string

val record_sync_event :
  Telemetry.Journal.t -> t -> round:int -> merged:int -> accepted:int -> pruned:int -> unit

(** One campaign-counter snapshot: farm./session./link. counters
    aggregated across the recorders, plus a [store.quarantined] row
    when a quarantine count is supplied. *)
val record_counters_event :
  Telemetry.Journal.t ->
  round:int ->
  quarantined:int option ->
  Telemetry.Recorder.t list ->
  unit

val record_probe_cost_events : Telemetry.Journal.t -> probe_cost list -> unit

val record_done_event :
  Telemetry.Journal.t -> t -> workers:int -> cross_hits:int -> crashes:int -> unit

(** Assemble the public stats record from the orchestrator's merge
    state plus the driver's substrate-specific counts. *)
val mk_stats :
  t ->
  workers:int ->
  cross_hits:int ->
  skipped:int ->
  crashes:int ->
  recompiles:int ->
  dead:(int * string) list ->
  store:Support.Objstore.stats option ->
  probe_cost:probe_cost list ->
  stats
