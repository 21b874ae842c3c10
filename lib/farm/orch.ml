(** Shared orchestration core for the farm's two drivers.

    The fuzzing farm has one logical algorithm — deterministic
    execution slots, barrier merges through {!Csync}, globally-voted
    probe pruning, corpus broadcast — and two execution substrates:
    OCaml domains in one process ({!Farm.run}) and supervised worker
    processes over the wire protocol ({!Proc.run}). Everything that
    decides {e results} lives here, so the two drivers cannot drift:
    bit-identical coverage/corpus/cycles across [--farm-mode
    domains|procs] is a structural property, not a testing accident.

    This module also owns the campaign checkpoint: a {!ckpt} value is a
    complete snapshot of the merge state (coverage bitmap, seen-input
    digests, weighted votes, pruned set, corpus with energies, RNG
    cursor = the next slot index, adaptive-interval state), and
    {!restore} rebuilds an equivalent orchestrator so a resumed
    campaign replays to the same final state as an uninterrupted one.
    Slot RNGs are derived statelessly from [(seed, slot index)], so the
    only "RNG cursor" a checkpoint needs is the slot counter itself. *)

module Json = Telemetry.Json

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

let default_config =
  {
    fc_workers = 1;
    fc_execs = 400;
    fc_sync_interval = 100;
    fc_seed = 42;
    fc_prune_quorum = 1;
    fc_cache_limit = None;
    fc_cache_age = None;
    fc_mode = Odin.Partition.Auto;
    fc_vote_decay = 1.0;
    fc_adaptive_sync = false;
    fc_promote_share = 0.0;
  }

(** Cumulative cost attribution for one probe site across the whole
    campaign. [pc_execs_armed] counts merged executions that ran while
    the probe was still globally armed (probe state only changes at
    barriers, so the armed set is round-constant and the count is
    worker-count invariant); [pc_hits]/[pc_cycles] come from the VM's
    per-site increment attribution, merged in slot order. *)
type probe_cost = {
  pc_pid : int;
  pc_toggles : int;  (** enable/disable flips + removal ({!Instr.Manager}) *)
  pc_execs_armed : int;
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

let dedup_rate st =
  if st.fs_offered = 0 then 0.
  else 100. *. float_of_int st.fs_duplicates /. float_of_int st.fs_offered

(** One global-corpus entry, as broadcast to every shard: the input
    plus the (deterministic) energy/cost metadata a shard needs to
    rebuild an identical replica from scratch. *)
type centry = {
  ce_input : string;
  ce_energy : int;
  ce_cycles : int;
  ce_fresh : int;  (** probes freshly covered when accepted *)
}

(* ------------------------------------------------------------------ *)
(* Orchestrator state                                                  *)
(* ------------------------------------------------------------------ *)

(** Quiet barriers (no accepted inputs) before the adaptive interval
    doubles, and the cap on the scale factor. *)
let adaptive_quiet_rounds = 3

let adaptive_max_scale = 8

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
  (* cumulative bases restored from a checkpoint; drivers add their
     live counts on top when assembling stats *)
  mutable o_skipped : int;
  mutable o_crashes : int;
  mutable o_recompiles : int;
  mutable o_restarts : int;
}

let create ~n_probes (cfg : config) =
  {
    o_seed = cfg.fc_seed;
    o_quorum = cfg.fc_prune_quorum;
    o_adaptive = cfg.fc_adaptive_sync;
    o_interval_base = max 1 cfg.fc_sync_interval;
    o_n_probes = n_probes;
    o_sync = Csync.create ~n_probes;
    o_votes = Instr.Votes.create ();
    o_pruned = Hashtbl.create 97;
    o_hits_cycles = Hashtbl.create 97;
    o_execs_armed = Hashtbl.create 97;
    o_fn_cycles = Hashtbl.create 97;
    o_corpus = [];
    o_execs = 0;
    o_cycles = 0;
    o_rounds = 0;
    o_interval = max 1 cfg.fc_sync_interval;
    o_quiet = 0;
    o_gc_evicted = 0;
    o_skipped = 0;
    o_crashes = 0;
    o_recompiles = 0;
    o_restarts = 0;
  }

let pruned t pid = Hashtbl.mem t.o_pruned pid

(** The barrier-merged global per-function cycle profile, heaviest
    first (ties by name) — the same shape as {!Vm.profile_top}, and the
    deterministic input every worker feeds to
    [Odin.Session.promote_hot] so promotion decisions cannot depend on
    worker count or driver substrate. *)
let fn_profile t =
  Hashtbl.fold (fun fn c acc -> (fn, !c) :: acc) t.o_fn_cycles []
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match compare c2 c1 with 0 -> compare n1 n2 | c -> c)

let pruned_list t =
  Hashtbl.fold (fun pid () acc -> pid :: acc) t.o_pruned [] |> List.sort compare

(** Accepted corpus entries, acceptance order. *)
let corpus_entries t = List.rev t.o_corpus

(** Rebuild a shard as an exact replica of the global corpus: entries
    in acceptance order, original energies — byte-for-byte the shard a
    worker that lived through every broadcast would hold. *)
let replay_corpus corpus entries =
  List.iter
    (fun ce ->
      Fuzzer.Corpus.add corpus ~energy:ce.ce_energy ~data:ce.ce_input
        ~exec_cycles:ce.ce_cycles ~new_blocks:ce.ce_fresh ())
    entries

(* ------------------------------------------------------------------ *)
(* One execution slot                                                  *)
(* ------------------------------------------------------------------ *)

(** Run execution slot [idx] against [session]'s current executable and
    the shard [corpus]. Deterministic in the slot index alone (given
    the round-start shard state, which is a global replica): which
    worker — domain or process — runs it is irrelevant to the result.
    Slots below the seed count replay the seed inputs themselves. *)
let exec_slot ~seed ~entry ~host ~seeds ~default_input ~session ~total_probes
    ~corpus idx =
  let n_seeds = List.length seeds in
  let rng = Support.Rng.create ((seed * 1_000_003) + idx) in
  let input =
    if idx < n_seeds then List.nth seeds idx
    else
      let base_in =
        match Fuzzer.Corpus.pick corpus rng with
        | Some s -> s.Fuzzer.Corpus.data
        | None -> default_input
      in
      Fuzzer.Mutate.havoc rng ~pool:(Fuzzer.Corpus.inputs corpus) base_in
  in
  let vm = Vm.create (Odin.Session.executable session) in
  ignore (Vm.enable_profile vm);
  List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) host;
  let addr = Vm.write_buffer vm input in
  ignore (Vm.call vm entry [ addr; Int64.of_int (String.length input) ]);
  let fired =
    List.filter_map
      (fun (p : Instr.Probe.t) ->
        match p.Instr.Probe.payload with
        | Instr.Probe.Cov _ when Odin.Cov.read_counter vm p.Instr.Probe.pid > 0
          ->
          Some p.Instr.Probe.pid
        | _ -> None)
      (Instr.Manager.to_list session.Odin.Session.manager)
    |> List.sort compare
  in
  let prof = match Vm.profile vm with Some p -> Vm.profile_top p | None -> [] in
  {
    Csync.it_index = idx;
    it_input = input;
    it_cycles = vm.Vm.cycles;
    it_fired = fired;
    it_fns = prof;
    it_probe_cost = Odin.Cov.probe_costs ~total:total_probes vm;
  }

(* ------------------------------------------------------------------ *)
(* The barrier merge                                                   *)
(* ------------------------------------------------------------------ *)

(** Merge one barrier's worth of [items] (callers pass them sorted by
    slot index, dead lanes already excluded). [weight] maps an item to
    the vote weight of the worker that produced it (default 1.0; the
    process supervisor discounts items from killed-and-restarted
    workers). Returns the accepted entries (broadcast order, energies
    computed against the pre-round farm-wide average exec cost) and
    the probes newly saturated to the prune quorum. Also advances the
    adaptive sync interval when enabled: [adaptive_quiet_rounds]
    consecutive accept-free barriers double it (capped at
    [adaptive_max_scale]×base), any accepted input resets it. *)
let merge_round ?(weight = fun (_ : Csync.item) -> 1.0) t items =
  t.o_rounds <- t.o_rounds + 1;
  (* energy is computed against the farm-wide average exec cost from
     all previous rounds — worker-count invariant by construction *)
  let avg_cycles = if t.o_execs = 0 then 0 else t.o_cycles / t.o_execs in
  let accepted = Csync.merge t.o_sync items in
  (* per-probe attribution, merged in slot order. All merged executions
     of a round ran against the same armed set (probe state only
     changes at barriers), so every probe not yet globally pruned at
     round start is charged the round's merged-execution count. *)
  let n_items = List.length items in
  if n_items > 0 then
    for pid = 0 to t.o_n_probes - 1 do
      if not (Hashtbl.mem t.o_pruned pid) then
        Hashtbl.replace t.o_execs_armed pid
          (n_items + Option.value ~default:0 (Hashtbl.find_opt t.o_execs_armed pid))
    done;
  List.iter
    (fun it ->
      List.iter
        (fun (pid, h, c) ->
          let hits, cyc =
            match Hashtbl.find_opt t.o_hits_cycles pid with
            | Some p -> p
            | None ->
              let p = (ref 0, ref 0) in
              Hashtbl.replace t.o_hits_cycles pid p;
              p
          in
          hits := !hits + h;
          cyc := !cyc + c)
        it.Csync.it_probe_cost)
    items;
  List.iter
    (fun it ->
      t.o_execs <- t.o_execs + 1;
      t.o_cycles <- t.o_cycles + it.Csync.it_cycles;
      (* merge the execution's per-function cycles into the global
         profile promotions are decided from *)
      List.iter
        (fun (fn, cy) ->
          match Hashtbl.find_opt t.o_fn_cycles fn with
          | Some c -> c := !c + cy
          | None -> Hashtbl.replace t.o_fn_cycles fn (ref cy))
        it.Csync.it_fns;
      (* one (weighted) vote per (probe, execution) toward saturation *)
      let w = weight it in
      List.iter
        (fun pid -> Instr.Votes.record ~weight:w t.o_votes ~pid)
        it.Csync.it_fired)
    items;
  let broadcast =
    List.map
      (fun (it, fresh) ->
        let energy =
          Fuzzer.Campaign.seed_energy ~avg_cycles ~cycles:it.Csync.it_cycles
            ~fn_cycles:it.Csync.it_fns
        in
        let ce =
          {
            ce_input = it.Csync.it_input;
            ce_energy = energy;
            ce_cycles = it.Csync.it_cycles;
            ce_fresh = fresh;
          }
        in
        t.o_corpus <- ce :: t.o_corpus;
        ce)
      accepted
  in
  (* global prune decision; the drivers apply it identically to every
     surviving lane *)
  let prunes =
    Instr.Votes.saturated t.o_votes ~quorum:t.o_quorum
      ~already:(Hashtbl.mem t.o_pruned)
  in
  List.iter (fun pid -> Hashtbl.replace t.o_pruned pid ()) prunes;
  if t.o_adaptive then
    if broadcast <> [] then begin
      t.o_quiet <- 0;
      t.o_interval <- t.o_interval_base
    end
    else begin
      t.o_quiet <- t.o_quiet + 1;
      if t.o_quiet >= adaptive_quiet_rounds then begin
        t.o_interval <-
          min (t.o_interval * 2) (t.o_interval_base * adaptive_max_scale);
        t.o_quiet <- 0
      end
    end;
  (broadcast, prunes)

(** Per-probe cost roll-up over every probe id, ascending. [toggles]
    supplies the instrumentation-toggle count per probe (a live
    manager in domains mode; derived from the pruned set — the only
    toggle source in a farm campaign — by the process supervisor). *)
let probe_costs t ~toggles =
  List.init t.o_n_probes (fun pid ->
      let hits, cycles =
        match Hashtbl.find_opt t.o_hits_cycles pid with
        | Some (h, c) -> (!h, !c)
        | None -> (0, 0)
      in
      {
        pc_pid = pid;
        pc_toggles = toggles pid;
        pc_execs_armed =
          Option.value ~default:0 (Hashtbl.find_opt t.o_execs_armed pid);
        pc_hits = hits;
        pc_cycles = cycles;
      })

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

(** Bumped whenever the checkpoint payload changes shape; {!Wire}
    rejects mismatches cleanly. v2: the barrier-merged per-function
    cycle profile joined the payload (tier promotions resume from it). *)
let ckpt_version = 2

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

(** Snapshot the orchestrator. [skipped]/[crashes]/[recompiles] are the
    campaign-cumulative totals (base + the driver's live counts);
    [weights] the per-worker vote weights (procs mode; empty for
    domains). *)
let snapshot t ~digest ~workers ~round ~next ~skipped ~crashes ~recompiles
    ~restarts ~weights =
  {
    ck_version = ckpt_version;
    ck_digest = digest;
    ck_seed = t.o_seed;
    ck_workers = workers;
    ck_interval_base = t.o_interval_base;
    ck_n_probes = t.o_n_probes;
    ck_round = round;
    ck_next = next;
    ck_bitmap = Csync.bitmap_bytes t.o_sync;
    ck_seen = Csync.seen_list t.o_sync;
    ck_offered = t.o_sync.Csync.offered;
    ck_accepted = t.o_sync.Csync.accepted;
    ck_duplicates = t.o_sync.Csync.duplicates;
    ck_stale = t.o_sync.Csync.stale;
    ck_votes = Instr.Votes.entries t.o_votes;
    ck_pruned = pruned_list t;
    ck_corpus = corpus_entries t;
    ck_execs = t.o_execs;
    ck_cycles = t.o_cycles;
    ck_rounds = t.o_rounds;
    ck_execs_armed =
      Hashtbl.fold (fun pid n acc -> (pid, n) :: acc) t.o_execs_armed []
      |> List.sort compare;
    ck_probe_cost =
      Hashtbl.fold
        (fun pid (h, c) acc -> (pid, !h, !c) :: acc)
        t.o_hits_cycles []
      |> List.sort compare;
    ck_fn_cycles = fn_profile t;
    ck_interval = t.o_interval;
    ck_quiet = t.o_quiet;
    ck_skipped = skipped;
    ck_crashes = crashes;
    ck_recompiles = recompiles;
    ck_restarts = restarts;
    ck_gc_evicted = t.o_gc_evicted;
    ck_weights = weights;
  }

(** Rebuild an orchestrator from a checkpoint. The caller's [cfg]
    supplies the knobs a checkpoint does not pin (quorum, adaptivity,
    GC bounds); seed and interval base come from the checkpoint so the
    slot stream continues bit-identically. *)
let restore (cfg : config) ck =
  let t =
    create ~n_probes:ck.ck_n_probes
      { cfg with fc_seed = ck.ck_seed; fc_sync_interval = ck.ck_interval_base }
  in
  let sync =
    Csync.restore ~n_probes:ck.ck_n_probes ~bitmap:ck.ck_bitmap
      ~seen:ck.ck_seen ~offered:ck.ck_offered ~accepted:ck.ck_accepted
      ~duplicates:ck.ck_duplicates ~stale:ck.ck_stale
  in
  let t = { t with o_sync = sync; o_votes = Instr.Votes.restore ck.ck_votes } in
  List.iter (fun pid -> Hashtbl.replace t.o_pruned pid ()) ck.ck_pruned;
  List.iter
    (fun (pid, n) -> Hashtbl.replace t.o_execs_armed pid n)
    ck.ck_execs_armed;
  List.iter
    (fun (pid, h, c) -> Hashtbl.replace t.o_hits_cycles pid (ref h, ref c))
    ck.ck_probe_cost;
  List.iter
    (fun (fn, cy) -> Hashtbl.replace t.o_fn_cycles fn (ref cy))
    ck.ck_fn_cycles;
  t.o_corpus <- List.rev ck.ck_corpus;
  t.o_execs <- ck.ck_execs;
  t.o_cycles <- ck.ck_cycles;
  t.o_rounds <- ck.ck_rounds;
  t.o_interval <- ck.ck_interval;
  t.o_quiet <- ck.ck_quiet;
  t.o_skipped <- ck.ck_skipped;
  t.o_crashes <- ck.ck_crashes;
  t.o_recompiles <- ck.ck_recompiles;
  t.o_restarts <- ck.ck_restarts;
  t.o_gc_evicted <- ck.ck_gc_evicted;
  t

(** Digest pinning a module's identity for checkpoints and the wire
    Init frame: the printed IR's MD5 (print→parse round-trips
    structurally, so this is stable across the wire). *)
(* round 0 replays the seeds (fresh campaigns only), then the budget
   goes out in chunks of the current interval, slots numbered after the
   seeds *)
let schedule t (cfg : config) ~resume ~n_seeds ~alive run_round =
  let budget = max 0 cfg.fc_execs in
  let rec go ~round next =
    if next < budget && alive () then begin
      let n = min t.o_interval (budget - next) in
      run_round ~round ~next:(next + n) (List.init n (fun k -> n_seeds + next + k));
      go ~round:(round + 1) (next + n)
    end
  in
  match resume with
  | Some ck -> go ~round:(ck.ck_round + 1) ck.ck_next
  | None ->
    if n_seeds > 0 && alive () then
      run_round ~round:0 ~next:0 (List.init n_seeds Fun.id);
    go ~round:1 0

let with_farm_span (r : Telemetry.Recorder.t) (cfg : config) ~workers ~mode f =
  let spans = r.Telemetry.Recorder.spans in
  let sp =
    Telemetry.Span.enter spans ~cat:"farm"
      ~args:
        [
          ("workers", string_of_int workers);
          ("execs", string_of_int cfg.fc_execs);
          ("sync_interval", string_of_int cfg.fc_sync_interval);
          ("seed", string_of_int cfg.fc_seed);
          ("mode", mode);
        ]
      "farm"
  in
  Fun.protect ~finally:(fun () -> Telemetry.Span.exit spans sp) (fun () -> f sp)

let module_digest m = Digest.to_hex (Digest.string (Ir.Print.module_to_string m))

(* ------------------------------------------------------------------ *)
(* Journal events (shared so the two drivers' journals cannot drift)   *)
(* ------------------------------------------------------------------ *)

let record_sync_event j t ~round ~merged ~accepted ~pruned =
  Telemetry.Journal.record j ~kind:"farm.sync"
    [
      ("round", Json.Int round);
      ("merged", Json.Int merged);
      ("accepted", Json.Int accepted);
      ("pruned", Json.Int pruned);
      ("coverage", Json.Int (Csync.covered_count t.o_sync));
      ("execs", Json.Int t.o_execs);
      ("cycles", Json.Int t.o_cycles);
      ("interval", Json.Int t.o_interval);
    ]

(** One campaign-counter snapshot: farm./session./link. counters
    aggregated across [recorders], plus the store's quarantine count
    when a store is attached (satellite of ISSUE 8: quarantines were
    counted but never surfaced). *)
let record_counters_event j ~round ~quarantined recorders =
  let agg : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let scan (rc : Telemetry.Recorder.t) =
    List.iter
      (fun c ->
        let n = Telemetry.Metrics.counter_name c in
        if
          String.starts_with ~prefix:"farm." n
          || String.starts_with ~prefix:"session." n
          || String.starts_with ~prefix:"link." n
        then
          Hashtbl.replace agg n
            (Telemetry.Metrics.value c
            + Option.value ~default:0 (Hashtbl.find_opt agg n)))
      (Telemetry.Metrics.counters rc.Telemetry.Recorder.metrics)
  in
  List.iter scan recorders;
  let fields =
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) agg []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let fields =
    match quarantined with
    | None -> fields
    | Some q -> fields @ [ ("store.quarantined", Json.Int q) ]
  in
  if fields <> [] then
    Telemetry.Journal.record j ~kind:"counters" (("round", Json.Int round) :: fields)

let record_probe_cost_events j probe_costs =
  List.iter
    (fun pc ->
      Telemetry.Journal.record j ~kind:"probe.cost"
        [
          ("pid", Json.Int pc.pc_pid);
          ("toggles", Json.Int pc.pc_toggles);
          ("execs_armed", Json.Int pc.pc_execs_armed);
          ("hits", Json.Int pc.pc_hits);
          ("cycles", Json.Int pc.pc_cycles);
        ])
    probe_costs

let record_done_event j t ~workers ~cross_hits ~crashes =
  Telemetry.Journal.record j ~kind:"farm.done"
    [
      ("workers", Json.Int workers);
      ("execs", Json.Int t.o_execs);
      ("cycles", Json.Int t.o_cycles);
      ("coverage", Json.Int (Csync.covered_count t.o_sync));
      ("total_probes", Json.Int t.o_n_probes);
      ("pruned", Json.Int (Hashtbl.length t.o_pruned));
      ("exchanged", Json.Int t.o_sync.Csync.accepted);
      ("cross_hits", Json.Int cross_hits);
      ("crashes", Json.Int crashes);
    ]

(** Assemble the public stats record from the orchestrator's merge
    state plus the driver's substrate-specific counts. *)
let mk_stats t ~workers ~cross_hits ~skipped ~crashes ~recompiles ~dead ~store
    ~probe_cost =
  {
    fs_workers = workers;
    fs_execs = t.o_execs;
    fs_total_cycles = t.o_cycles;
    fs_sync_rounds = t.o_rounds;
    fs_offered = t.o_sync.Csync.offered;
    fs_exchanged = t.o_sync.Csync.accepted;
    fs_duplicates = t.o_sync.Csync.duplicates;
    fs_stale = t.o_sync.Csync.stale;
    fs_coverage = Csync.covered_list t.o_sync;
    fs_total_probes = t.o_n_probes;
    fs_pruned = pruned_list t;
    fs_corpus = List.map (fun ce -> ce.ce_input) (corpus_entries t);
    fs_cross_hits = cross_hits;
    fs_recompiles = recompiles;
    fs_skipped = skipped;
    fs_crashes = crashes;
    fs_dead = dead;
    fs_gc_evicted = t.o_gc_evicted;
    fs_store = store;
    fs_probe_cost = probe_cost;
  }
