(* The Odin user-loop benchmark: the fuzz and mutation campaigns that
   [odinc fuzz] and [odinc mutate] users run, timed end to end through
   the same public calls, plus a separate traced run that attributes the
   wall time to layers. Driven by run.py; README.md lists the metrics and
   how to read them. *)

let entry = "target_main"
let host = [ "printf"; "puts" ]
let now = Telemetry.Clock.monotonic

(* Variables the test matrix sets; each one changes the program being
   measured, so a run refuses to start under any of them. *)
let guarded_env =
  [ "ODIN_TIER"; "ODIN_INCR_LINK"; "ODIN_INCR_SCHED"; "ODIN_FAULTS"; "ODIN_JOBS" ]

let default_seed = 1
let held_out_seed = 20221

(* ------------------------------------------------------------------ *)
(* Benchmark spans                                                     *)
(* ------------------------------------------------------------------ *)

(* One span around each public call the benchmark makes. Kept in memory
   and written out at exit by the traced run; when tracing is off a call
   pays one branch. *)
type span = {
  s_id : int;
  s_parent : int;  (** -1 for a root *)
  s_name : string;
  s_start : float;
  mutable s_stop : float;
}

let tracing = ref false
let recorded : span list ref = ref [] (* newest first *)
let next_id = ref 0
let open_spans : int list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let s =
      {
        s_id = !next_id;
        s_parent = (match !open_spans with p :: _ -> p | [] -> -1);
        s_name = name;
        s_start = now ();
        s_stop = nan;
      }
    in
    incr next_id;
    recorded := s :: !recorded;
    open_spans := s.s_id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.s_stop <- now ();
        open_spans := List.tl !open_spans)
      f
  end

(* ------------------------------------------------------------------ *)
(* Self time per layer                                                 *)
(* ------------------------------------------------------------------ *)

(* One tree over the benchmark's spans with the program's own recorder
   spans grafted under the benchmark span whose interval holds them (both
   are stamped by [Telemetry.Clock.monotonic]). *)
type node = {
  n_name : string;
  n_bench : bool;  (** a benchmark span, not a recorder span *)
  n_cat : string;
  n_t0 : float;
  n_t1 : float;
  mutable n_kids : node list;
}

let rec of_recorder sp =
  let t0 = Telemetry.Span.start sp in
  {
    n_name = Telemetry.Span.name sp;
    n_bench = false;
    n_cat = Telemetry.Span.cat sp;
    n_t0 = t0;
    n_t1 = t0 +. Telemetry.Span.duration sp;
    n_kids = List.map of_recorder (Telemetry.Span.children sp);
  }

let contains n r = r.n_t0 >= n.n_t0 && r.n_t1 <= n.n_t1

(* Benchmark spans with id >= [first] form the tree of one repetition. *)
let bench_tree ~first recorders =
  let mine =
    List.filter (fun s -> s.s_id >= first) !recorded |> List.rev |> Array.of_list
  in
  let nodes =
    Array.map
      (fun s ->
        {
          n_name = s.s_name;
          n_bench = true;
          n_cat = "bench";
          n_t0 = s.s_start;
          n_t1 = s.s_stop;
          n_kids = [];
        })
      mine
  in
  let roots = ref [] in
  Array.iteri
    (fun i s ->
      if s.s_parent >= first then
        let p = nodes.(s.s_parent - first) in
        p.n_kids <- nodes.(i) :: p.n_kids
      else roots := nodes.(i) :: !roots)
    mine;
  Array.iter (fun n -> n.n_kids <- List.rev n.n_kids) nodes;
  let roots = List.rev !roots in
  (* a recorder root can hold later roots too: the mutation campaign's
     span is a root, and its worker trees are adopted as roots beside it *)
  let rec graft r n =
    match List.find_opt (fun k -> contains k r) n.n_kids with
    | Some k -> graft r k
    | None -> n.n_kids <- n.n_kids @ [ r ]
  in
  List.iter
    (fun (rec_ : Telemetry.Recorder.t) ->
      List.iter
        (fun sp ->
          let r = of_recorder sp in
          match List.find_opt (fun n -> contains n r) roots with
          | Some n -> graft r n
          | None -> ())
        (Telemetry.Span.roots rec_.Telemetry.Recorder.spans))
    recorders;
  roots

(* Length of the union of the kids' intervals, clipped to [t0, t1]:
   kids compiled on different pool domains overlap, and a span's self
   time is what none of them covers. *)
let covered t0 t1 kids =
  let ivs =
    List.filter_map
      (fun k ->
        let a = Float.max t0 k.n_t0 and b = Float.min t1 k.n_t1 in
        if b > a then Some (a, b) else None)
      kids
    |> List.sort compare
  in
  let rec go acc a b = function
    | [] -> acc +. (b -. a)
    | (a', b') :: rest ->
      if a' > b then go (acc +. (b -. a)) a' b' rest
      else go acc a (Float.max b b') rest
  in
  match ivs with [] -> 0. | (a, b) :: rest -> go 0. a b rest

let known_passes =
  [ "gvn"; "mem2reg"; "jump-threading"; "inline"; "simplifycfg";
    "instcombine"; "dce"; "loop-unroll"; "constfold"; "dead-arg-elim" ]

(* The layer a span's self time belongs to. [ctx] is the rebuild kind
   the span runs under (initial build or refresh): the session's
   per-fragment bookkeeping spans (rebuild, compile, fragment,
   materialize, digest, verify) count towards it. *)
let layer ~ctx n =
  if n.n_cat = "pass" then
    if List.mem n.n_name known_passes then "opt." ^ n.n_name else "opt.other"
  else if n.n_bench then
    match n.n_name with
    | "minic.compile" | "odin.create" | "cov.setup" | "mutate.gen"
    | "odin.build" | "odin.refresh" | "vm.create" | "vm.call" | "cov.harvest"
    | "cov.prune" ->
      n.n_name
    | "fuzzer.collect_corpus" -> "fuzzer.loop"
    | "mutate.run" -> "mutate.suite"
    | _ -> "bench.harness"
  else
    match n.n_name with
    | "optimize" -> "opt.fixpoint"
    | "codegen" -> "codegen"
    | "link" -> "link"
    | "schedule" -> "odin.schedule"
    | "patch" -> "odin.patch"
    | "classify" | "partition" -> "odin.create"
    | "build" -> "odin.build"
    | "refresh" -> "odin.refresh"
    | "campaign" | "worker-round" -> "mutate.suite"
    | _ -> ctx

(* Seconds of self time per layer over a forest. *)
let self_times roots =
  let acc = Hashtbl.create 32 in
  let rec walk ctx n =
    let l = layer ~ctx n in
    let ctx = if l = "odin.build" || l = "odin.refresh" then l else ctx in
    let self = n.n_t1 -. n.n_t0 -. covered n.n_t0 n.n_t1 n.n_kids in
    Hashtbl.replace acc l (self +. Option.value ~default:0. (Hashtbl.find_opt acc l));
    List.iter (walk ctx) n.n_kids
  in
  List.iter (walk "odin.refresh") roots;
  acc

let rec find_all name n =
  (if n.n_name = name then [ n ] else []) @ List.concat_map (find_all name) n.n_kids

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind =
  | Fuzz of int  (** OdinCov live-pruning campaign of this many executions *)
  | Mutate of int option  (** kill-matrix campaign; [Some n] keeps n mutants *)

type workload = {
  w_name : string;
  w_profile : Workloads.Profile.t;
  w_kind : kind;
  w_campaigns : int;  (** campaign seeds per run *)
}

let workloads =
  let p = Workloads.Profile.find_exn in
  [
    { w_name = "fuzz-sqlite"; w_profile = p "sqlite"; w_kind = Fuzz 500; w_campaigns = 4 };
    { w_name = "mutate-json"; w_profile = p "json"; w_kind = Mutate None; w_campaigns = 2 };
  ]

(* Both workload shapes on the tiny profile, for --self-test. *)
let self_test_workloads =
  let t = Workloads.Profile.tiny in
  [
    { w_name = "fuzz-refresh"; w_profile = t; w_kind = Fuzz 150; w_campaigns = 2 };
    { w_name = "mutate"; w_profile = t; w_kind = Mutate (Some 60); w_campaigns = 1 };
  ]

(* Inputs derived from the workload seed. The target program is the
   named profile whatever the seed. *)
let random_strings ~salt seed lens =
  let rng = Support.Rng.create ((seed * 7919) + salt) in
  List.map (fun len -> String.init len (fun _ -> Char.chr (Support.Rng.int rng 256))) lens

let fuzz_seed_inputs seed = random_strings ~salt:17 seed [ 48; 48 ]

(* The four inputs [odinc mutate] tests with by default, plus four random
   ones from the seed. Four random inputs alone scored anywhere from 40 to
   60 % between campaign seeds, too wide to bound; the mixed suite scored
   56-64 % on the seeds tried. *)
let mutation_suite seed =
  List.init 4 (fun t ->
      String.init (8 + (8 * t)) (fun i -> Char.chr (((i * 37) + (t * 11) + 5) land 255)))
  @ random_strings ~salt:29 seed [ 8; 16; 24; 32 ]

(* A fixed replay set per profile, the same whatever the seed: 16 inputs
   of 8..128 bytes. [cycles_per_exec] is measured on it, so the
   generated code's cost is compared on equal inputs; a campaign's own
   inputs drift with the seed (their length, above all). *)
let replay_inputs (p : Workloads.Profile.t) =
  random_strings ~salt:41 p.Workloads.Profile.seed (List.init 16 (fun i -> 8 * (i + 1)))

(* ------------------------------------------------------------------ *)
(* Output check: the Odin-built executable on the VM against the       *)
(* reference interpreter over a separately compiled pristine module    *)
(* ------------------------------------------------------------------ *)

(* The return value (None on a fault) and the VM cycles spent. *)
let vm_return ?max_steps exe input =
  let vm = Vm.create ?max_steps exe in
  List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) host;
  let addr = Vm.write_buffer vm input in
  match Vm.call vm entry [ addr; Int64.of_int (String.length input) ] with
  | v -> (Some v, vm.Vm.cycles)
  | exception Vm.Fault _ -> (None, vm.Vm.cycles)

let interp_return pristine input =
  let st = Ir.Interp.create pristine in
  List.iter (fun n -> Ir.Interp.register_host st n (fun _ _ -> 0L)) host;
  let addr = Ir.Interp.alloc_input st input in
  match Ir.Interp.run st entry [ addr; Int64.of_int (String.length input) ] with
  | v -> Some v
  | exception Ir.Interp.Trap _ -> None

(* Mismatches over [inputs] (an input that traps on either side counts
   as one too), and the VM cycles per input. *)
let check_outputs ?max_steps ~pristine exe inputs =
  List.fold_left
    (fun (bad, cycles) input ->
      let ret, c = vm_return ?max_steps exe input in
      let ok =
        match (ret, interp_return pristine input) with
        | Some a, Some b -> Int64.equal a b
        | _ -> false
      in
      ((if ok then bad else bad + 1), cycles + c))
    (0, 0) inputs
  |> fun (bad, cycles) -> (bad, float_of_int cycles /. float_of_int (List.length inputs))

(* ------------------------------------------------------------------ *)
(* One repetition: set-up then campaign                                *)
(* ------------------------------------------------------------------ *)

type setup = { su_module : Ir.Modul.t; su_session : Odin.Session.t; su_cov : Odin.Cov.t option }

(* generate + frontend + Session.create + probe setup + initial build *)
let setup w r =
  let m = span "minic.compile" (fun () -> Workloads.Generate.compile w.w_profile) in
  let runtime_globals =
    match w.w_kind with Fuzz _ -> [ Odin.Cov.runtime_global m ] | Mutate _ -> []
  in
  let session =
    span "odin.create" (fun () ->
        Odin.Session.create ~keep:[ entry ] ~runtime_globals ~host ~telemetry:r m)
  in
  let cov =
    match w.w_kind with
    | Fuzz _ -> Some (span "cov.setup" (fun () -> Odin.Cov.setup session))
    | Mutate limit ->
      ignore (span "mutate.gen" (fun () -> Mutate.Gen.setup ?limit session));
      None
  in
  (match span "odin.build" (fun () -> Odin.Session.try_build session) with
  | Odin.Session.Ok -> ()
  | Odin.Session.Degraded _ | Odin.Session.Rolled_back _ ->
    failwith "initial build did not succeed");
  { su_module = m; su_session = session; su_cov = cov }

type rep = {
  setup_s : float;
  campaign_s : float;  (** campaign wall, set-up excluded *)
  execs : int;  (** target executions in the campaign *)
  mutants : int;  (** mutants decided (mutation campaigns) *)
  cycles : int;  (** VM cycles over those executions *)
  replay_cycles : float;
      (** VM cycles per execution of the replay set on the executable the
          campaign ends with *)
  refresh_ms : float list;
  covered : int;
  blocks : int;
  score : float;
  digest : string;
  attempted : int;
  failed : int;
  recorders : Telemetry.Recorder.t list;
  counts : (string * float) list;
}

let counter (r : Telemetry.Recorder.t) name =
  List.fold_left
    (fun acc c ->
      if Telemetry.Metrics.counter_name c = name then acc + Telemetry.Metrics.value c
      else acc)
    0
    (Telemetry.Metrics.counters r.Telemetry.Recorder.metrics)

let span_count (r : Telemetry.Recorder.t) name =
  List.length (Telemetry.Span.find_all r.Telemetry.Recorder.spans name)

(* Per-layer work counts over the repetition's recorders. *)
let layer_counts su recorders =
  let sum f = List.fold_left (fun a r -> a + f r) 0 recorders in
  let c name = float_of_int (sum (fun r -> counter r name)) in
  let scheduled = c "session.fragments_scheduled" in
  [
    ( "ir.instrs",
      float_of_int
        (List.fold_left
           (fun a f -> a + Ir.Func.insn_count f)
           0
           (Ir.Modul.defined_functions su.su_module)) );
    ("odin.fragments", float_of_int (Odin.Partition.fragment_count su.su_session.Odin.Session.plan));
    ("odin.schedule_visited", c "session.schedule_visited");
    ("odin.refreshes", float_of_int (sum (fun r -> span_count r "refresh")));
    ("odin.fragments_recompiled", c "session.fragments_recompiled");
    ("odin.memo_hits", c "session.opt_memo_hits");
    ( "odin.cache_hit_ratio",
      if scheduled > 0. then c "session.fragment_cache_hits" /. scheduled else 0. );
    ("opt.rounds", c "opt.rounds");
    ("codegen.fragments", float_of_int (sum (fun r -> span_count r "codegen")));
    ("link.incremental", c "link.relinks_incremental");
    ("link.full", c "link.relinks_full");
    ("link.symbols_patched", c "link.symbols_patched");
    ("link.relocs_patched", c "link.relocs_patched");
  ]

let rebuild_failures recorders =
  List.fold_left
    (fun a r -> a + counter r "session.rebuild_rollbacks" + counter r "session.fragments_degraded")
    0 recorders

(* Set-up, timed; [f] then runs the campaign. The traced wall is set-up
   plus campaign: the checks come after. *)
let timed_setup w r f =
  span "rep" (fun () ->
      let t0 = now () in
      let su = span "setup" (fun () -> setup w r) in
      let setup_s = now () -. t0 in
      (setup_s, su, f su))

(* The OdinCov loop of [odinc fuzz]: execute, harvest, prune the probes
   that fired, refresh. Returns the campaign wall, the corpus, the loop
   statistics, each refresh's latency (ms) and the coverage set. *)
let fuzz_campaign su ~execs seed =
  let session = su.su_session in
  let cov = Option.get su.su_cov in
  let refresh_ms = ref [] in
  let covered = Hashtbl.create 512 in
  let target =
    {
      Fuzzer.Fuzz.run =
        (fun input ->
          let vm =
            span "vm.create" (fun () ->
                let vm = Vm.create (Odin.Session.executable session) in
                List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) host;
                vm)
          in
          span "vm.call" (fun () ->
              let addr = Vm.write_buffer vm input in
              ignore (Vm.call vm entry [ addr; Int64.of_int (String.length input) ]));
          let fresh = span "cov.harvest" (fun () -> Odin.Cov.harvest cov vm) in
          List.iter (fun p -> Hashtbl.replace covered p.Instr.Probe.pid ()) fresh;
          let pruned = span "cov.prune" (fun () -> Odin.Cov.prune_fired cov) in
          (* same refresh rule as odinc fuzz: pruned probes, or degraded
             fragments to re-heal; failures are counted by the recorder *)
          if pruned > 0 || Odin.Session.degraded_fragments session <> [] then begin
            let t = now () in
            ignore (span "odin.refresh" (fun () -> Odin.Session.try_refresh session));
            refresh_ms := (1000. *. (now () -. t)) :: !refresh_ms
          end;
          { Fuzzer.Fuzz.ex_cycles = vm.Vm.cycles; ex_new_blocks = List.length fresh });
    }
  in
  let t0 = now () in
  let corpus, stats =
    span "fuzzer.collect_corpus" (fun () ->
        Fuzzer.Fuzz.collect_corpus ~rng:(Support.Rng.create seed)
          ~seeds:(fuzz_seed_inputs seed) ~execs target)
  in
  let pids = Hashtbl.fold (fun p () a -> p :: a) covered [] |> List.sort compare in
  (now () -. t0, corpus, stats, List.rev !refresh_ms, pids)

let fuzz_rep w ~pristine ~execs seed =
  let r = Telemetry.Recorder.create () in
  let setup_s, su, (campaign_s, corpus, stats, refresh_ms, pids) =
    timed_setup w r (fun su -> fuzz_campaign su ~execs seed)
  in
  let cov = Option.get su.su_cov in
  let session = su.su_session in
  let inputs = Fuzzer.Corpus.inputs corpus in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (List.map string_of_int pids)
         ^ "\n" ^ String.concat "\000" inputs))
  in
  let exe = Odin.Session.executable session in
  let mismatches, _ = check_outputs ~pristine exe inputs in
  let replay = replay_inputs w.w_profile in
  let replay_bad, replay_cycles = check_outputs ~pristine exe replay in
  let refreshes = List.length refresh_ms in
  {
    setup_s;
    campaign_s;
    execs = stats.Fuzzer.Fuzz.executions;
    mutants = 0;
    cycles = stats.Fuzzer.Fuzz.total_cycles;
    replay_cycles;
    refresh_ms;
    covered = Odin.Cov.covered cov;
    blocks = cov.Odin.Cov.total_probes;
    score = 0.;
    digest;
    attempted =
      stats.Fuzzer.Fuzz.executions + refreshes + List.length inputs + List.length replay;
    failed = mismatches + replay_bad + rebuild_failures [ r ];
    recorders = [ r ];
    counts =
      layer_counts su [ r ]
      @ [
          ("vm.cycles_total", float_of_int stats.Fuzzer.Fuzz.total_cycles);
          ("cov.probes_pruned", float_of_int cov.Odin.Cov.pruned_total);
        ];
  }

let mutate_max_steps = Mutate.Analysis.default_config.Mutate.Analysis.mc_max_steps

let mutate_rep w ~pristine ~limit seed =
  let rs = Telemetry.Recorder.create () in
  let r = Telemetry.Recorder.create () in
  let suite = mutation_suite seed in
  let cfg =
    {
      Mutate.Analysis.default_config with
      Mutate.Analysis.mc_workers = 1;
      mc_mode = Mutate.Analysis.Domains;
      mc_limit = limit;
    }
  in
  let setup_s, su, (wall, matrix) =
    timed_setup w rs (fun su ->
        let t0 = now () in
        let matrix, _ =
          span "mutate.run" (fun () ->
              Mutate.Analysis.run ~telemetry:r ~host ~entry ~suite cfg su.su_module)
        in
        (now () -. t0, matrix))
  in
  (* the campaign builds its own worker session first; that set-up is
     timed by [setup] above, not charged to the campaign *)
  let own_setup =
    List.fold_left
      (fun a sp ->
        match Telemetry.Span.name sp with
        | "classify" | "partition" | "build" -> a +. Telemetry.Span.duration sp
        | _ -> a)
      0.
      (Telemetry.Span.roots r.Telemetry.Recorder.spans)
  in
  let refresh_ms =
    List.map
      (fun sp -> 1000. *. Telemetry.Span.duration sp)
      (Telemetry.Span.find_all r.Telemetry.Recorder.spans "refresh")
  in
  let rows = matrix.Mutate.Analysis.m_rows in
  let cycles = List.fold_left (fun a row -> a + row.Mutate.Analysis.r_cycles) 0 rows in
  let generated = matrix.Mutate.Analysis.m_generated in
  let exe = Odin.Session.executable su.su_session in
  let mismatches, _ = check_outputs ~max_steps:mutate_max_steps ~pristine exe suite in
  let replay = replay_inputs w.w_profile in
  let replay_bad, replay_cycles =
    check_outputs ~max_steps:mutate_max_steps ~pristine exe replay
  in
  {
    setup_s;
    campaign_s = wall -. own_setup;
    execs = generated * List.length suite;
    mutants = generated;
    cycles;
    replay_cycles;
    refresh_ms;
    covered = 0;
    blocks = 0;
    score = matrix.Mutate.Analysis.m_score;
    digest = Digest.to_hex (Digest.string (Mutate.Analysis.render matrix));
    attempted = generated + List.length refresh_ms + List.length suite + List.length replay;
    failed = mismatches + replay_bad + rebuild_failures [ rs; r ];
    recorders = [ rs; r ];
    counts =
      layer_counts su [ rs; r ]
      @ [ ("vm.cycles_total", float_of_int cycles); ("cov.probes_pruned", 0.) ];
  }

let run_rep w ~pristine seed =
  match w.w_kind with
  | Fuzz execs -> fuzz_rep w ~pristine ~execs seed
  | Mutate limit -> mutate_rep w ~pristine ~limit seed

(* ------------------------------------------------------------------ *)
(* Statistics and reporting                                            *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50 xs

(* Samples strictly beyond the nearest-rank percentile. *)
let beyond p n = n - int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n))

(* Peak resident set of this process, MiB (Linux VmHWM). *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.))
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* The end-to-end metrics of one run, over the untraced repetitions
   grouped by campaign seed. A throughput sums each campaign's median
   wall, so every campaign weighs the same whatever the repetitions. *)
let end_to_end w groups ~extra_setups =
  let firsts = List.map (fun (_, reps) -> List.hd reps) groups in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 firsts) in
  let wall =
    List.fold_left
      (fun a (_, reps) -> a +. median (List.map (fun r -> r.campaign_s) reps))
      0. groups
  in
  let refresh = List.concat_map (fun (_, reps) -> List.concat_map (fun r -> r.refresh_ms) reps) groups in
  let mean f = List.fold_left (fun a r -> a +. f r) 0. firsts /. float_of_int (List.length firsts) in
  ( [
      m "execs_per_s" (total (fun r -> r.execs) /. wall) "1/s";
      m "setup_s"
        (median
           (List.concat_map (fun (_, reps) -> List.map (fun r -> r.setup_s) reps) groups
           @ extra_setups))
        "s";
      m "refresh_ms_p50" (median refresh) "ms";
      m "refresh_ms_p90" (percentile 90 refresh) "ms";
      m "cycles_per_exec" (mean (fun r -> r.replay_cycles)) "cycles";
      m "yield_pct"
        (mean (fun r ->
             match w.w_kind with
             | Fuzz _ -> 100. *. float_of_int r.covered /. float_of_int (max 1 r.blocks)
             | Mutate _ -> r.score))
        "%";
      m "peak_rss_mb" (peak_rss_mb ()) "MiB";
    ],
    total (fun r -> r.mutants) /. wall )

(* Layer self-time metrics (ms per repetition) and the counts. *)
let time_layers =
  [ "minic.compile"; "odin.create"; "cov.setup"; "mutate.gen"; "odin.build";
    "odin.schedule"; "odin.patch"; "odin.refresh"; "opt.fixpoint" ]
  @ List.map (fun p -> "opt." ^ p) known_passes
  @ [ "opt.other"; "codegen"; "link"; "vm.create"; "vm.call"; "cov.harvest";
      "cov.prune"; "fuzzer.loop"; "mutate.suite"; "bench.harness" ]

let metric_of_layer l =
  match l with "codegen" | "link" -> l ^ ".ms" | _ -> l ^ "_ms"

let per_layer ~trees ~traced ~untraced =
  let n = float_of_int (List.length trees) in
  let totals = Hashtbl.create 32 in
  let wall = ref 0. in
  let exec_ms = ref [] in
  List.iter
    (fun roots ->
      List.iter (fun r -> wall := !wall +. (r.n_t1 -. r.n_t0)) roots;
      Hashtbl.iter
        (fun l s ->
          Hashtbl.replace totals l (s +. Option.value ~default:0. (Hashtbl.find_opt totals l)))
        (self_times roots);
      List.iter
        (fun r ->
          exec_ms :=
            List.map (fun c -> 1000. *. (c.n_t1 -. c.n_t0)) (find_all "vm.call" r)
            @ !exec_ms)
        roots)
    trees;
  let ms l = 1000. *. Option.value ~default:0. (Hashtbl.find_opt totals l) /. n in
  let unknown =
    Hashtbl.fold (fun l _ a -> if List.mem l time_layers then a else l :: a) totals []
  in
  if unknown <> [] then failwith ("unmapped layers: " ^ String.concat ", " unknown);
  let wall_ms = 1000. *. !wall /. n in
  let attributed = List.fold_left (fun a l -> a +. ms l) 0. time_layers in
  let opt_ms =
    List.fold_left
      (fun a l ->
        if String.length l > 4 && String.sub l 0 4 = "opt." then a +. ms l else a)
      0. time_layers
  in
  let rep_wall rs = median (List.map (fun r -> r.setup_s +. r.campaign_s) rs) in
  let last = List.hd traced in
  List.map (fun l -> m (metric_of_layer l) (ms l) "ms") time_layers
  @ [
      m "opt.ms" opt_ms "ms";
      m "trace.wall_ms" wall_ms "ms";
      m "trace.residual_ms" (wall_ms -. attributed) "ms";
      m "vm.exec_ms_p50" (median !exec_ms) "ms";
      m "telemetry.trace_overhead_pct"
        (100. *. (rep_wall traced -. rep_wall untraced) /. rep_wall untraced)
        "%";
    ]
  @ List.map
      (fun (name, v) ->
        m name v
          (match name with
          | "odin.cache_hit_ratio" -> "ratio"
          | "vm.cycles_total" -> "cycles"
          | _ -> "count"))
      last.counts

(* ------------------------------------------------------------------ *)
(* Determinism: one digest per (program build, workload, seed)         *)
(* ------------------------------------------------------------------ *)

let state_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Compares a campaign's digest with the one an earlier run of the same
   executable recorded for this workload and campaign seed (recording it
   when there is none). *)
let digest_matches_earlier w seed digest =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let dir = Filename.concat state_dir "digests" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%s-%d" exe w.w_name seed) in
  if Sys.file_exists path then
    String.trim (In_channel.with_open_text path In_channel.input_all) = digest
  else begin
    Out_channel.with_open_text path (fun oc -> output_string oc digest);
    true
  end

let write_trace w seed =
  let dir = state_dir in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" w.w_name seed) in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f}\n"
            s.s_id s.s_parent s.s_name s.s_start s.s_stop)
        (List.rev !recorded));
  path

(* ------------------------------------------------------------------ *)
(* A run                                                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_metrics : metric list;
  o_attempted : int;
  o_failed : int;
  o_correct : bool;
  o_notes : string list;  (** human-readable lines printed before the JSON *)
}

(* Set-up samples per untraced run: at least [min_setups], and more
   while they add up to less than [setup_budget_s], so a set-up of a few
   ms still gets a steady median. *)
let min_setups = 5
let max_setups = 15
let setup_budget_s = 2.

(* The campaign seeds of one run: [w_campaigns] seeds derived from the
   workload seed, so that one run averages over several campaigns. *)
let campaign_seeds w seed = List.init w.w_campaigns (fun i -> Hashtbl.hash (seed, i))

let group_by_seed runs =
  List.fold_left
    (fun acc (s, rep) ->
      match List.assoc_opt s acc with
      | Some reps -> (s, reps @ [ rep ]) :: List.remove_assoc s acc
      | None -> (s, [ rep ]) :: acc)
    [] runs
  |> List.rev

let run_workload ?(persist = true) w ~seed ~seconds ~trace =
  let pristine = Workloads.Generate.compile w.w_profile in
  let seeds = campaign_seeds w seed in
  let start = now () in
  let fits last = now () -. start +. last <= float_of_int seconds in
  let run_one ~traced s =
    tracing := traced;
    let first = !next_id in
    let rep = run_rep w ~pristine s in
    tracing := false;
    (s, rep, if traced then Some (bench_tree ~first rep.recorders) else None)
  in
  let all =
    if trace then begin
      (* the first campaign, alternately untraced and traced, so the
         tracing overhead is measured inside one process *)
      let s0 = List.hd seeds in
      let rec loop i acc =
        let t0 = now () in
        let acc = run_one ~traced:(i mod 2 = 1) s0 :: acc in
        if i < 1 || fits (now () -. t0) then loop (i + 1) acc else List.rev acc
      in
      loop 0 []
    end
    else begin
      (* whole cycles over the campaign seeds, while another one fits *)
      let rec loop acc =
        let t0 = now () in
        let acc = acc @ List.map (run_one ~traced:false) seeds in
        if fits (now () -. t0) then loop acc else acc
      in
      loop []
    end
  in
  let untraced =
    group_by_seed (List.filter_map (fun (s, r, t) -> if t = None then Some (s, r) else None) all)
  in
  let traced = List.filter_map (fun (_, r, t) -> if t = None then None else Some r) all in
  let trees = List.filter_map (fun (_, _, t) -> t) all in
  let reps = List.map (fun (_, r, _) -> r) all in
  let firsts = List.map (fun (_, reps) -> List.hd reps) untraced in
  (* set-up is short beside a campaign: top up its samples so the
     reported median is over several set-ups *)
  let n_setups = List.length (List.filter (fun (_, _, t) -> t = None) all) in
  let extra_setups =
    let rec top_up acc n spent =
      if trace || n >= max_setups || (n >= min_setups && spent >= setup_budget_s) then acc
      else begin
        let t0 = now () in
        ignore (setup w (Telemetry.Recorder.create ()));
        let t = now () -. t0 in
        top_up (t :: acc) (n + 1) (spent +. t)
      end
    in
    let spent = List.fold_left (fun a (_, r, _) -> a +. r.setup_s) 0. all in
    top_up [] n_setups spent
  in
  (* determinism: every repetition of a campaign seed gives one digest,
     the same as earlier runs of this build recorded for that seed *)
  let digests_agree =
    List.for_all
      (fun (_, reps) -> List.for_all (fun r -> r.digest = (List.hd reps).digest) reps)
      (group_by_seed (List.map (fun (s, r, _) -> (s, r)) all))
  in
  let digest =
    Digest.to_hex (Digest.string (String.concat "," (List.map (fun r -> r.digest) firsts)))
  in
  let deterministic =
    digests_agree
    && ((not persist)
       || List.for_all (fun (s, reps) -> digest_matches_earlier w s (List.hd reps).digest) untraced)
  in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 reps + 1 in
  let failed =
    List.fold_left (fun a r -> a + r.failed) 0 reps + if deterministic then 0 else 1
  in
  let e2e, mutants_per_s = end_to_end w untraced ~extra_setups in
  let refreshes = List.map (fun r -> List.length r.refresh_ms) firsts in
  let distinct = List.fold_left ( + ) 0 refreshes in
  let pool = Support.Pool.size (Support.Pool.default ()) in
  let per_campaign f = String.concat " " (List.map (fun r -> string_of_int (f r)) firsts) in
  let notes =
    [
      Printf.sprintf "workload %s  seed %d  profile %s  %s" w.w_name seed
        w.w_profile.Workloads.Profile.name
        (if trace then "traced" else "untraced");
      Printf.sprintf "env: pool=%d nproc=%d ocaml=%s" pool
        (Domain.recommended_domain_count ()) Sys.ocaml_version;
      Printf.sprintf
        "campaigns: %d seeds, %d repetitions (%d traced); set-up samples: %d"
        (List.length untraced) (List.length reps) (List.length traced)
        (n_setups + List.length extra_setups);
      Printf.sprintf
        "per campaign: executions %s; refreshes %s; VM cycles per execution %s"
        (per_campaign (fun r -> r.execs))
        (per_campaign (fun r -> List.length r.refresh_ms))
        (per_campaign (fun r -> r.cycles / max 1 r.execs));
      (match w.w_kind with
      | Fuzz _ ->
        Printf.sprintf "coverage_blocks per campaign: %s (of %d)"
          (per_campaign (fun r -> r.covered))
          (List.hd firsts).blocks
      | Mutate _ ->
        Printf.sprintf "mutants per campaign: %s; mutation_score %s %%; mutants_per_s %.4f 1/s"
          (per_campaign (fun r -> r.mutants))
          (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.score) firsts))
          mutants_per_s);
      Printf.sprintf
        "refresh latency: %d distinct refreshes, %d beyond p90; p99 %.4f ms (%d beyond)"
        distinct (beyond 90 distinct)
        (percentile 99 (List.concat_map (fun r -> r.refresh_ms) firsts))
        (beyond 99 distinct);
      Printf.sprintf "digest %s (%s)" digest
        (if deterministic then "repeats" else "DIFFERS");
      Printf.sprintf "checks: %d failed of %d attempted; failed_ratio %.6f" failed
        attempted
        (float_of_int failed /. float_of_int attempted);
    ]
  in
  let metrics =
    if trace then
      per_layer ~trees ~traced ~untraced:(List.concat_map snd untraced)
      @ [ m "failed_ratio" (float_of_int failed /. float_of_int attempted) "ratio" ]
    else e2e
  in
  let notes =
    if trace && persist then notes @ [ "trace written to " ^ write_trace w seed ] else notes
  in
  { o_metrics = metrics; o_attempted = attempted; o_failed = failed;
    o_correct = failed = 0; o_notes = notes }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json o =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.o_correct o.o_attempted o.o_failed
    (String.concat ", "
       (List.map
          (fun mt ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name
              (json_number mt.value) mt.unit_)
          o.o_metrics))

let print_outcome o =
  List.iter print_endline o.o_notes;
  List.iter (fun mt -> Printf.printf "  %-32s %16.6f %s\n" mt.name mt.value mt.unit_) o.o_metrics

(* ------------------------------------------------------------------ *)
(* Self-test: both workload shapes on the tiny profile                *)
(* ------------------------------------------------------------------ *)

let end_to_end_names =
  [ "execs_per_s"; "setup_s"; "refresh_ms_p50"; "refresh_ms_p90"; "cycles_per_exec";
    "yield_pct"; "peak_rss_mb" ]

let self_test () =
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; Printf.printf "FAIL %s\n" s) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o = run_workload ~persist:false w ~seed:default_seed ~seconds:0 ~trace in
          print_outcome o;
          if not o.o_correct then fail "%s: checks failed" w.w_name;
          let expected =
            if trace then
              List.map metric_of_layer time_layers
              @ [ "opt.ms"; "trace.wall_ms"; "trace.residual_ms"; "vm.exec_ms_p50";
                  "telemetry.trace_overhead_pct"; "ir.instrs"; "odin.fragments";
                  "odin.schedule_visited"; "odin.refreshes"; "odin.fragments_recompiled";
                  "odin.memo_hits"; "odin.cache_hit_ratio"; "opt.rounds";
                  "codegen.fragments"; "link.incremental"; "link.full";
                  "link.symbols_patched"; "link.relocs_patched"; "vm.cycles_total";
                  "cov.probes_pruned"; "failed_ratio" ]
            else end_to_end_names
          in
          List.iter
            (fun name ->
              match List.find_opt (fun mt -> mt.name = name) o.o_metrics with
              | None -> fail "%s: metric %s missing" w.w_name name
              | Some mt when mt.unit_ = "" -> fail "%s: metric %s has no unit" w.w_name name
              | Some mt when Float.is_nan mt.value -> fail "%s: metric %s is nan" w.w_name name
              | Some _ -> ())
            expected;
          if List.length o.o_metrics <> List.length expected then
            fail "%s: %d metrics emitted, %d expected" w.w_name (List.length o.o_metrics)
              (List.length expected);
          if not trace then
            List.iter
              (fun mt ->
                if mt.value <= 0. then fail "%s: %s is not positive" w.w_name mt.name)
              o.o_metrics
          else begin
            let get n = (List.find (fun mt -> mt.name = n) o.o_metrics).value in
            let sum =
              List.fold_left (fun a l -> a +. get (metric_of_layer l)) 0. time_layers
            in
            if Float.abs (sum +. get "trace.residual_ms" -. get "trace.wall_ms") > 1e-6 then
              fail "%s: layer self times + residual do not add up to the wall" w.w_name
          end)
        [ false; true ])
    self_test_workloads;
  if !ok then print_endline "self-test passed" else print_endline "self-test FAILED";
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "odinbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n\
   odinbench --self-test\n\
   workloads: fuzz-sqlite mutate-json"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30 in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N workload seed (default %d; held out: %d)" default_seed held_out_seed);
      ("--seconds", Arg.Set_int seconds, "N measure for about N seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--self-test", Arg.Set self, " run every workload shape on the tiny profile");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.filter (fun v -> Sys.getenv_opt v <> None) guarded_env with
  | _ :: _ as set ->
    Printf.eprintf
      "odinbench: refusing to run with %s set: it changes the program being measured\n"
      (String.concat ", " set);
    exit 2
  | [] ->
    if !self then exit (if self_test () then 0 else 1)
    else
      match List.find_opt (fun w -> w.w_name = !workload) workloads with
      | None ->
        prerr_endline usage;
        exit 2
      | Some w ->
        if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
        let o =
          try run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          with e ->
            Printf.eprintf "odinbench: %s failed: %s\n" w.w_name (Printexc.to_string e);
            exit 1
        in
        print_outcome o;
        print_endline (result_json o);
        exit 0
