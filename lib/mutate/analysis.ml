(** Kill-matrix campaign driver. See the interface for the amortization
    argument; the implementation notes that matter:

    - a mutant transition is ONE batched toggle
      ([Session.refresh_toggles [(prev, false); (next, true)]]): one
      dirty-set drain, one O(changed) schedule pass, one incremental
      relink, regardless of where the two mutants live;
    - per-mutant work is a pure function of (mutant, suite) — workers
      never exchange anything mid-round — so merging rows in mutant-id
      order yields a structurally identical matrix for any worker count
      and either farm mode;
    - [Procs] mode is a client of {!Farm.Supervisor}, the supervisor
      the fuzzing farm ({!Farm.Proc.run}) uses too: stateless children,
      restart = re-send the same assignments, retire after
      [mc_max_restarts], preemptive heartbeat watchdog, orphaned
      assignments re-dealt to the lowest-id live worker. This module
      only supplies the [mutate.*] codec. *)

module Recorder = Telemetry.Recorder
module Journal = Telemetry.Journal
module Json = Telemetry.Json
module Codec = Farm.Wire.Codec
module Supervisor = Farm.Supervisor

type outcome = Pass | Kill | Crash | Hang
type verdict = Killed | Timeout | Survived

let outcome_char = function
  | Pass -> '.'
  | Kill -> 'K'
  | Crash -> '!'
  | Hang -> 'T'

let verdict_to_string = function
  | Killed -> "killed"
  | Timeout -> "timeout"
  | Survived -> "survived"

type row = {
  r_id : int;
  r_desc : string;
  r_family : Gen.family;
  r_target : string;
  r_outcomes : outcome list;
  r_verdict : verdict;
  r_cycles : int;
}

type matrix = {
  m_rows : row list;
  m_tests : int;
  m_generated : int;
  m_killed : int;
  m_survived : int;
  m_timeout : int;
  m_score : float;
}

type stats = {
  s_initial_links : int;
  s_full_links : int;
  s_incr_links : int;
  s_symbols_patched : int;
  s_restarts : int;
  s_retired : (int * string) list;
  s_resumed_rows : int;
}

type mode = Domains | Procs

type config = {
  mc_workers : int;
  mc_mode : mode;
  mc_families : Gen.family list;
  mc_limit : int option;
  mc_max_steps : int;
  mc_deadline : float option;
  mc_chunk : int;
  mc_checkpoint : string option;
  mc_resume : bool;
  mc_stop_after : int option;
  mc_worker_argv : string array option;
  mc_worker_timeout : float;
  mc_max_restarts : int;
}

let default_config =
  {
    mc_workers = 1;
    mc_mode = Domains;
    mc_families = Gen.all_families;
    mc_limit = None;
    mc_max_steps = 2_000_000;
    mc_deadline = None;
    mc_chunk = 16;
    mc_checkpoint = None;
    mc_resume = false;
    mc_stop_after = None;
    mc_worker_argv = None;
    mc_worker_timeout = 30.;
    mc_max_restarts = 3;
  }

let families_spec families =
  String.concat "," (List.map Gen.family_to_string families)

(* ------------------------------------------------------------------ *)
(* Blob sub-protocol ("mutate.*") and checkpoint codec                 *)
(* ------------------------------------------------------------------ *)

let family_tag = function
  | Gen.Aor -> 0
  | Gen.Ror -> 1
  | Gen.Const -> 2
  | Gen.Sdl -> 3
  | Gen.Brs -> 4

let family_of_tag = function
  | 0 -> Gen.Aor
  | 1 -> Gen.Ror
  | 2 -> Gen.Const
  | 3 -> Gen.Sdl
  | 4 -> Gen.Brs
  | n -> Codec.fail "mutate: bad family tag %d" n

let outcome_tag = function Pass -> 0 | Kill -> 1 | Crash -> 2 | Hang -> 3

let outcome_of_tag = function
  | 0 -> Pass
  | 1 -> Kill
  | 2 -> Crash
  | 3 -> Hang
  | n -> Codec.fail "mutate: bad outcome tag %d" n

let verdict_tag = function Killed -> 0 | Timeout -> 1 | Survived -> 2

let verdict_of_tag = function
  | 0 -> Killed
  | 1 -> Timeout
  | 2 -> Survived
  | n -> Codec.fail "mutate: bad verdict tag %d" n

let w_row b row =
  Codec.w_i64 b row.r_id;
  Codec.w_str b row.r_desc;
  Codec.w_u8 b (family_tag row.r_family);
  Codec.w_str b row.r_target;
  Codec.w_list b (fun b o -> Codec.w_u8 b (outcome_tag o)) row.r_outcomes;
  Codec.w_u8 b (verdict_tag row.r_verdict);
  Codec.w_i64 b row.r_cycles

let r_row c =
  let r_id = Codec.r_i64 c in
  let r_desc = Codec.r_str c in
  let r_family = family_of_tag (Codec.r_u8 c) in
  let r_target = Codec.r_str c in
  let r_outcomes = Codec.r_list c (fun c -> outcome_of_tag (Codec.r_u8 c)) in
  let r_verdict = verdict_of_tag (Codec.r_u8 c) in
  let r_cycles = Codec.r_i64 c in
  { r_id; r_desc; r_family; r_target; r_outcomes; r_verdict; r_cycles }

(* One [mutate.*] message kind: an encoder to its Blob frame, and a
   decoder that matches the kind ([None] for any other frame) and
   rejects trailing bytes. *)
let message kind write read =
  let encode x =
    let b = Buffer.create 256 in
    write b x;
    Farm.Wire.Blob { bl_kind = kind; bl_data = Buffer.contents b }
  in
  let decode = function
    | Farm.Wire.Blob { bl_kind; bl_data } when bl_kind = kind ->
      let c = Codec.cursor bl_data in
      let x = read c in
      if not (Codec.at_end c) then Codec.fail "mutate: trailing bytes in %s" kind;
      Some x
    | _ -> None
  in
  (encode, decode)

(* mutate.init: everything a stateless child needs to rebuild the exact
   session and mutant universe (module text round-trips like the fuzz
   farm's Wire.Init). *)
type winit = {
  wi_id : int;
  wi_entry : string;
  wi_host : string list;
  wi_suite : string list;
  wi_spec : string;  (** comma-joined operator families *)
  wi_limit : int option;
  wi_max_steps : int;
  wi_deadline : float option;
  wi_mod_name : string;
  wi_mod_text : string;
}

let init_msg, init_of_msg =
  message "mutate.init"
    (fun b i ->
      Codec.w_i64 b i.wi_id;
      Codec.w_str b i.wi_entry;
      Codec.w_list b Codec.w_str i.wi_host;
      Codec.w_list b Codec.w_str i.wi_suite;
      Codec.w_str b i.wi_spec;
      Codec.w_opt b Codec.w_i64 i.wi_limit;
      Codec.w_i64 b i.wi_max_steps;
      Codec.w_opt b Codec.w_f64 i.wi_deadline;
      Codec.w_str b i.wi_mod_name;
      Codec.w_str b i.wi_mod_text)
    (fun c ->
      let wi_id = Codec.r_i64 c in
      let wi_entry = Codec.r_str c in
      let wi_host = Codec.r_list c Codec.r_str in
      let wi_suite = Codec.r_list c Codec.r_str in
      let wi_spec = Codec.r_str c in
      let wi_limit = Codec.r_opt c Codec.r_i64 in
      let wi_max_steps = Codec.r_i64 c in
      let wi_deadline = Codec.r_opt c Codec.r_f64 in
      let wi_mod_name = Codec.r_str c in
      let wi_mod_text = Codec.r_str c in
      {
        wi_id;
        wi_entry;
        wi_host;
        wi_suite;
        wi_spec;
        wi_limit;
        wi_max_steps;
        wi_deadline;
        wi_mod_name;
        wi_mod_text;
      })

(* mutate.ready: (worker id, mutant count) *)
let ready_msg, ready_of_msg =
  message "mutate.ready"
    (fun b (id, n) ->
      Codec.w_i64 b id;
      Codec.w_i64 b n)
    (fun c ->
      let id = Codec.r_i64 c in
      (id, Codec.r_i64 c))

(* mutate.assign: (round, mutant ids) *)
let assign_msg, assign_of_msg =
  message "mutate.assign"
    (fun b (round, ids) ->
      Codec.w_i64 b round;
      Codec.w_list b Codec.w_i64 ids)
    (fun c ->
      let round = Codec.r_i64 c in
      (round, Codec.r_list c Codec.r_i64))

(* mutate.rows, worker -> supervisor: the round, then the batch's link
   accounting (incremental, full, symbols patched) and rows *)
let rows_msg, rows_of_msg =
  message "mutate.rows"
    (fun b (round, (incr, full, patched, rows)) ->
      Codec.w_i64 b round;
      Codec.w_i64 b incr;
      Codec.w_i64 b full;
      Codec.w_i64 b patched;
      Codec.w_list b w_row rows)
    (fun c ->
      let round = Codec.r_i64 c in
      let incr = Codec.r_i64 c in
      let full = Codec.r_i64 c in
      let patched = Codec.r_i64 c in
      (round, (incr, full, patched, Codec.r_list c r_row)))

let ckpt_version = 1

type ckpt = {
  ck_digest : string;  (** target module digest ({!Orch.module_digest}) *)
  ck_spec : string;
  ck_limit : int option;
  ck_tests : int;
  ck_suite_digest : string;
  ck_rows : row list;  (** completed rows, mutant id ascending *)
}

let suite_digest suite =
  Digest.to_hex (Digest.string (String.concat "\x00" suite))

let ckpt_msg, ckpt_of_msg =
  message "mutate.ckpt"
    (fun b ck ->
      Codec.w_u8 b ckpt_version;
      Codec.w_str b ck.ck_digest;
      Codec.w_str b ck.ck_spec;
      Codec.w_opt b Codec.w_i64 ck.ck_limit;
      Codec.w_i64 b ck.ck_tests;
      Codec.w_str b ck.ck_suite_digest;
      Codec.w_list b w_row ck.ck_rows)
    (fun c ->
      let v = Codec.r_u8 c in
      if v <> ckpt_version then Codec.fail "mutate: checkpoint version %d" v;
      let ck_digest = Codec.r_str c in
      let ck_spec = Codec.r_str c in
      let ck_limit = Codec.r_opt c Codec.r_i64 in
      let ck_tests = Codec.r_i64 c in
      let ck_suite_digest = Codec.r_str c in
      let ck_rows = Codec.r_list c r_row in
      { ck_digest; ck_spec; ck_limit; ck_tests; ck_suite_digest; ck_rows })

(* ------------------------------------------------------------------ *)
(* Single-worker evaluation (both modes, supervisor and child)         *)
(* ------------------------------------------------------------------ *)

type wstate = {
  ws_session : Odin.Session.t;
  ws_mutants : Instr.Probe.t array;  (** generation order = mutant id *)
  ws_entry : string;
  ws_host : string list;
  ws_suite : string list;
  ws_baseline : int64 array;
  ws_max_steps : int;
  ws_deadline : float option;
  mutable ws_armed : Instr.Probe.t option;
  (* link accounting since the last drain *)
  mutable ws_incr : int;
  mutable ws_full : int;
  mutable ws_patched : int;
}

let run_test ~max_steps ~deadline ~entry ~host exe input =
  let vm = Vm.create ~max_steps exe in
  List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) host;
  let addr = Vm.write_buffer vm input in
  let result =
    match
      Support.Fault.with_deadline deadline (fun () ->
          Vm.call vm entry [ addr; Int64.of_int (String.length input) ])
    with
    | ret -> Ok ret
    | exception Vm.Fault _ when Vm.budget_exhausted vm -> Error Hang
    | exception Support.Fault.Timed_out _ -> Error Hang
    | exception Vm.Fault _ -> Error Crash
  in
  (result, vm.Vm.cycles)

let baseline_returns ~max_steps ~deadline ~entry ~host session suite =
  Array.of_list
    (List.map
       (fun input ->
         match
           run_test ~max_steps ~deadline ~entry ~host
             (Odin.Session.executable session)
             input
         with
         | Ok ret, _ -> ret
         | Error o, _ ->
           failwith
             (Printf.sprintf
                "mutate: pristine baseline %s on input of %d bytes — raise \
                 max_steps/deadline or fix the suite"
                (match o with
                | Hang -> "exhausted its budget"
                | _ -> "trapped")
                (String.length input)))
       suite)

(** One mutant: batched toggle [(prev, off); (this, on)] → refresh →
    run the whole suite → row. *)
let eval_mutant st id =
  let p = st.ws_mutants.(id) in
  let toggles =
    (match st.ws_armed with
    | Some prev when prev != p -> [ (prev, false) ]
    | _ -> [])
    @ [ (p, true) ]
  in
  st.ws_armed <- Some p;
  (match Odin.Session.refresh_toggles st.ws_session toggles with
  | Some (_, Some ev) ->
    if ev.Odin.Session.ev_link_incremental then
      st.ws_incr <- st.ws_incr + 1
    else st.ws_full <- st.ws_full + 1;
    st.ws_patched <- st.ws_patched + ev.Odin.Session.ev_symbols_patched
  | Some (_, None) (* rolled back: the mutant never reached the image *)
  | None -> ());
  let m =
    match p.Instr.Probe.payload with
    | Instr.Probe.Mutant m -> m
    | _ -> assert false
  in
  let cycles = ref 0 in
  let outcomes =
    List.mapi
      (fun i input ->
        let result, c =
          run_test ~max_steps:st.ws_max_steps ~deadline:st.ws_deadline
            ~entry:st.ws_entry ~host:st.ws_host
            (Odin.Session.executable st.ws_session)
            input
        in
        cycles := !cycles + c;
        match result with
        | Ok ret -> if Int64.equal ret st.ws_baseline.(i) then Pass else Kill
        | Error o -> o)
      st.ws_suite
  in
  let verdict =
    if List.exists (fun o -> o = Kill || o = Crash) outcomes then Killed
    else if List.mem Hang outcomes then Timeout
    else Survived
  in
  {
    r_id = id;
    r_desc = m.Instr.Probe.mut_desc;
    r_family =
      (match Gen.family_of_probe p with Some f -> f | None -> assert false);
    r_target = p.Instr.Probe.target;
    r_outcomes = outcomes;
    r_verdict = verdict;
    r_cycles = !cycles;
  }

(** Disarm whatever is armed: the session's image returns bit-pristine
    (same structural digests → cached objects → no-op patches). *)
let quiesce st =
  match st.ws_armed with
  | None -> ()
  | Some p ->
    st.ws_armed <- None;
    (match Odin.Session.refresh_toggles st.ws_session [ (p, false) ] with
    | Some (_, Some ev) ->
      if ev.Odin.Session.ev_link_incremental then st.ws_incr <- st.ws_incr + 1
      else st.ws_full <- st.ws_full + 1;
      st.ws_patched <- st.ws_patched + ev.Odin.Session.ev_symbols_patched
    | _ -> ())

let drain_links st =
  let r = (st.ws_incr, st.ws_full, st.ws_patched) in
  st.ws_incr <- 0;
  st.ws_full <- 0;
  st.ws_patched <- 0;
  r

let mk_wstate ?objects ?owner ?pool ?telemetry ~families ~limit ~entry ~host
    ~suite ~max_steps ~deadline m =
  let session =
    Odin.Session.create ~keep:[ entry ] ~host
      ?pool ?objects ?owner ?telemetry m
  in
  let mutants = Gen.setup ~families ?limit session in
  (match Odin.Session.try_build session with
  | Odin.Session.Ok | Odin.Session.Degraded _ -> ()
  | Odin.Session.Rolled_back err ->
    failwith ("mutate: initial build rolled back: " ^ err.Odin.Session.err_msg));
  let baseline =
    baseline_returns ~max_steps ~deadline ~entry ~host session suite
  in
  {
    ws_session = session;
    ws_mutants = Array.of_list mutants;
    ws_entry = entry;
    ws_host = host;
    ws_suite = suite;
    ws_baseline = baseline;
    ws_max_steps = max_steps;
    ws_deadline = deadline;
    ws_armed = None;
    ws_incr = 0;
    ws_full = 0;
    ws_patched = 0;
  }

(* ------------------------------------------------------------------ *)
(* Merge + accounting                                                  *)
(* ------------------------------------------------------------------ *)

let merge_rows ~tests rows =
  let rows = List.sort (fun a b -> compare a.r_id b.r_id) rows in
  let count v = List.length (List.filter (fun r -> r.r_verdict = v) rows) in
  let killed = count Killed and timeout = count Timeout in
  let survived = count Survived in
  let generated = List.length rows in
  let score =
    if generated = 0 then 0.
    else 100. *. float_of_int (killed + timeout) /. float_of_int generated
  in
  {
    m_rows = rows;
    m_tests = tests;
    m_generated = generated;
    m_killed = killed;
    m_survived = survived;
    m_timeout = timeout;
    m_score = score;
  }

let record_counters r rows =
  List.iter
    (fun row ->
      let labels = [ ("op", Gen.family_to_string row.r_family) ] in
      Recorder.count r ~labels "mutate.generated";
      Recorder.count r ~labels ("mutate." ^ verdict_to_string row.r_verdict))
    rows

let record_rows_events jr rows =
  match jr with
  | None -> ()
  | Some j ->
    List.iter
      (fun row ->
        Journal.record j ~kind:"mutant"
          [
            ("id", Json.Int row.r_id);
            ("desc", Json.String row.r_desc);
            ("op", Json.String (Gen.family_to_string row.r_family));
            ("target", Json.String row.r_target);
            ("verdict", Json.String (verdict_to_string row.r_verdict));
            ("cycles", Json.Int row.r_cycles);
          ])
      rows

(* ------------------------------------------------------------------ *)
(* Checkpoint plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let publish_ckpt path ck = ignore (Farm.Wire.write_frame_file path (ckpt_msg ck))

let load_ckpt ~digest ~spec ~limit ~tests ~sdigest path =
  match Result.map (fun (m, _) -> ckpt_of_msg m) (Farm.Wire.load_frame_file path) with
  | Ok (Some ck) ->
    if ck.ck_digest <> digest then
      invalid_arg "mutate: checkpoint is for a different target module";
    if ck.ck_spec <> spec || ck.ck_limit <> limit then
      invalid_arg "mutate: checkpoint operator set differs";
    if ck.ck_tests <> tests || ck.ck_suite_digest <> sdigest then
      invalid_arg "mutate: checkpoint suite differs";
    Some ck
  | Ok None | Error _ | (exception Farm.Wire.Wire_error _) -> None

(* ------------------------------------------------------------------ *)
(* Round scheduler (shared by both modes)                              *)
(* ------------------------------------------------------------------ *)

(** Deal the next [chunk * n_live] pending mutant ids round-robin over
    the live workers; the deal only decides who computes what. *)
let deal ~chunk pending live =
  let take = chunk * List.length live in
  ( Supervisor.deal live (List.filteri (fun i _ -> i < take) pending),
    List.filteri (fun i _ -> i >= take) pending )

(* ------------------------------------------------------------------ *)
(* Domains mode                                                        *)
(* ------------------------------------------------------------------ *)

let run_domains ~r ~jr ~host ~entry ~suite cfg base ~done_rows ~resumed =
  let nw = max 1 cfg.mc_workers in
  let pool = Support.Pool.default () in
  let shared = Odin.Session.object_cache ~size:1024 () in
  let jclock = Telemetry.Clock.synchronized r.Recorder.clock in
  (* serial creation in id order: worker 0's build fills the shared
     cache, later builds are cross hits *)
  let workers =
    List.init nw (fun i ->
        let wr = Recorder.fork ~clock:jclock r in
        let st =
          mk_wstate ~objects:shared ~owner:i ~pool ~telemetry:wr
            ~families:cfg.mc_families ~limit:cfg.mc_limit ~entry ~host ~suite
            ~max_steps:cfg.mc_max_steps ~deadline:cfg.mc_deadline
            (Ir.Clone.clone_module base)
        in
        (st, wr))
  in
  let n_mutants =
    match workers with
    | (st, _) :: _ -> Array.length st.ws_mutants
    | [] -> 0
  in
  let rows = Hashtbl.create 997 in
  List.iter (fun row -> Hashtbl.replace rows row.r_id row) done_rows;
  let incr_links = ref 0 and full_links = ref 0 and patched = ref 0 in
  let pending =
    List.init n_mutants Fun.id
    |> List.filter (fun id -> not (Hashtbl.mem rows id))
  in
  let publish () =
    match cfg.mc_checkpoint with
    | None -> ()
    | Some path ->
      let all =
        Hashtbl.fold (fun _ row acc -> row :: acc) rows []
        |> List.sort (fun a b -> compare a.r_id b.r_id)
      in
      publish_ckpt path
        {
          ck_digest = Farm.Orch.module_digest base;
          ck_spec = families_spec cfg.mc_families;
          ck_limit = cfg.mc_limit;
          ck_tests = List.length suite;
          ck_suite_digest = suite_digest suite;
          ck_rows = all;
        }
  in
  let stopped () =
    match cfg.mc_stop_after with
    | None -> false
    | Some n -> Hashtbl.length rows >= n
  in
  let rec rounds round pending =
    if pending = [] || stopped () then ()
    else begin
      let jobs, rest = deal ~chunk:cfg.mc_chunk pending workers in
      let results =
        Support.Pool.map pool
          (fun ((st, wr), ids) ->
            Recorder.with_span wr ~cat:"mutate"
              ~args:[ ("round", string_of_int round) ]
              "worker-round"
              (fun () -> List.map (eval_mutant st) ids))
          jobs
      in
      let fresh = List.concat results in
      List.iter (fun row -> Hashtbl.replace rows row.r_id row) fresh;
      List.iter
        (fun ((st, _), _) ->
          let i, f, p = drain_links st in
          incr_links := !incr_links + i;
          full_links := !full_links + f;
          patched := !patched + p)
        jobs;
      record_counters (Some r) fresh;
      record_rows_events jr fresh;
      Recorder.count (Some r) "mutate.rounds";
      publish ();
      rounds (round + 1) rest
    end
  in
  rounds 1 pending;
  (* leave every session bit-pristine (and count the closing relinks) *)
  List.iter
    (fun (st, _) ->
      quiesce st;
      let i, f, p = drain_links st in
      incr_links := !incr_links + i;
      full_links := !full_links + f;
      patched := !patched + p)
    workers;
  List.iter (fun (_, wr) -> Recorder.merge ~into:r wr) workers;
  let all =
    Hashtbl.fold (fun _ row acc -> row :: acc) rows []
    |> List.sort (fun a b -> compare a.r_id b.r_id)
  in
  let matrix = merge_rows ~tests:(List.length suite) all in
  let stats =
    {
      s_initial_links = nw;
      s_full_links = nw + !full_links;
      s_incr_links = !incr_links;
      s_symbols_patched = !patched;
      s_restarts = 0;
      s_retired = [];
      s_resumed_rows = (if resumed then List.length done_rows else 0);
    }
  in
  (matrix, stats)

(* ------------------------------------------------------------------ *)
(* Procs mode: a Supervisor client                                     *)
(* ------------------------------------------------------------------ *)

let run_procs ~r ~jr ~host ~entry ~suite cfg base ~done_rows ~resumed =
  let nw = max 1 cfg.mc_workers in
  let winit =
    {
      wi_id = 0;
      wi_entry = entry;
      wi_host = host;
      wi_suite = suite;
      wi_spec = families_spec cfg.mc_families;
      wi_limit = cfg.mc_limit;
      wi_max_steps = cfg.mc_max_steps;
      wi_deadline = cfg.mc_deadline;
      wi_mod_name = base.Ir.Modul.mname;
      wi_mod_text = Ir.Print.module_to_string base;
    }
  in
  let spec =
    {
      Supervisor.argv =
        Option.value cfg.mc_worker_argv
          ~default:[| Sys.executable_name; "mutate-worker" |];
      env = Unix.environment ();
      timeout = cfg.mc_worker_timeout;
      max_restarts = cfg.mc_max_restarts;
      prefix = "mutate";
      init = (fun id -> init_msg { winit with wi_id = id });
      ready = (fun m -> Option.map snd (ready_of_msg m));
      assign = assign_msg;
      result = (fun _ -> rows_of_msg);
      on_restart = ignore;
    }
  in
  Supervisor.run ~telemetry:r ~workers:nw spec @@ fun sup ->
  let all_retired () =
    failwith
      (Printf.sprintf "mutate: all %d workers retired: %s" nw
         (String.concat "; "
            (List.map
               (fun (id, why) -> Printf.sprintf "worker %d: %s" id why)
               (Supervisor.retired sup))))
  in
  if Supervisor.live sup = [] then all_retired ();
  let rows = Hashtbl.create 997 in
  List.iter (fun row -> Hashtbl.replace rows row.r_id row) done_rows;
  let sorted () =
    Hashtbl.fold (fun _ row acc -> row :: acc) rows []
    |> List.sort (fun a b -> compare a.r_id b.r_id)
  in
  let incr_links = ref 0 and full_links = ref 0 and patched = ref 0 in
  let publish () =
    match cfg.mc_checkpoint with
    | None -> ()
    | Some path ->
      publish_ckpt path
        {
          ck_digest = Farm.Orch.module_digest base;
          ck_spec = families_spec cfg.mc_families;
          ck_limit = cfg.mc_limit;
          ck_tests = List.length suite;
          ck_suite_digest = suite_digest suite;
          ck_rows = sorted ();
        }
  in
  let stopped () =
    match cfg.mc_stop_after with
    | None -> false
    | Some n -> Hashtbl.length rows >= n
  in
  let rec rounds round pending =
    if pending = [] || stopped () then ()
    else begin
      let jobs, rest = deal ~chunk:cfg.mc_chunk pending (Supervisor.live sup) in
      let batches =
        try
          Supervisor.collect sup ~round
            (List.map (fun (id, ids) -> (id, (round, ids))) jobs)
        with Supervisor.All_retired -> all_retired ()
      in
      List.iter
        (fun (i, f, p, batch) ->
          incr_links := !incr_links + i;
          full_links := !full_links + f;
          patched := !patched + p;
          List.iter (fun row -> Hashtbl.replace rows row.r_id row) batch;
          record_counters (Some r) batch;
          record_rows_events jr batch)
        batches;
      Recorder.count (Some r) "mutate.rounds";
      publish ();
      rounds (round + 1) rest
    end
  in
  rounds 1
    (List.init (Supervisor.units sup) Fun.id
    |> List.filter (fun id -> not (Hashtbl.mem rows id)));
  (* children quiesce on Shutdown; each (re)boot was a full compile *)
  let restarts = Supervisor.restarts sup in
  ( merge_rows ~tests:(List.length suite) (sorted ()),
    {
      s_initial_links = nw + restarts;
      s_full_links = nw + restarts + !full_links;
      s_incr_links = !incr_links;
      s_symbols_patched = !patched;
      s_restarts = restarts;
      s_retired = Supervisor.retired sup;
      s_resumed_rows = (if resumed then List.length done_rows else 0);
    } )

(* ------------------------------------------------------------------ *)
(* Procs mode: child                                                   *)
(* ------------------------------------------------------------------ *)

let worker_main () =
  Supervisor.serve
    ~boot:(fun m ->
      Option.map
        (fun init ->
          let st =
            mk_wstate ~pool:Support.Pool.serial
              ~families:(Gen.families_of_spec init.wi_spec)
              ~limit:init.wi_limit ~entry:init.wi_entry ~host:init.wi_host
              ~suite:init.wi_suite ~max_steps:init.wi_max_steps
              ~deadline:init.wi_deadline
              (Ir.Parse.module_of_string ~name:init.wi_mod_name init.wi_mod_text)
          in
          (st, ready_msg (init.wi_id, Array.length st.ws_mutants)))
        (init_of_msg m))
    ~job:(fun st m ->
      Option.map
        (fun (round, ids) ->
          ( round,
            fun tick ->
              let batch =
                List.map
                  (fun id ->
                    let row = eval_mutant st id in
                    tick ();
                    row)
                  ids
              in
              let incr, full, patched = drain_links st in
              rows_msg (round, (incr, full, patched, batch)) ))
        (assign_of_msg m))
    ~shutdown:quiesce ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?telemetry ?journal ?journal_path
    ?(host = Workloads.Generate.host_functions) ~entry ~suite cfg base =
  let r = match telemetry with Some r -> r | None -> Recorder.create () in
  let jr, jflush =
    Journal.for_campaign ?journal ?path:journal_path ~clock:r.Recorder.clock ()
  in
  let done_rows, resumed =
    match (cfg.mc_checkpoint, cfg.mc_resume) with
    | Some path, true -> (
      match
        load_ckpt
          ~digest:(Farm.Orch.module_digest base)
          ~spec:(families_spec cfg.mc_families)
          ~limit:cfg.mc_limit ~tests:(List.length suite)
          ~sdigest:(suite_digest suite) path
      with
      | Some ck -> (ck.ck_rows, true)
      | None -> ([], false))
    | _ -> ([], false)
  in
  let sp =
    Telemetry.Span.enter r.Recorder.spans ~cat:"mutate"
      ~args:
        [
          ("workers", string_of_int (max 1 cfg.mc_workers));
          ("mode", match cfg.mc_mode with Domains -> "domains" | Procs -> "procs");
          ("ops", families_spec cfg.mc_families);
          ("tests", string_of_int (List.length suite));
        ]
      "campaign"
  in
  Fun.protect ~finally:(fun () ->
      Telemetry.Span.exit r.Recorder.spans sp;
      jflush ())
  @@ fun () ->
  let matrix, stats =
    match cfg.mc_mode with
    | Domains -> run_domains ~r ~jr ~host ~entry ~suite cfg base ~done_rows ~resumed
    | Procs -> run_procs ~r ~jr ~host ~entry ~suite cfg base ~done_rows ~resumed
  in
  (match jr with
  | None -> ()
  | Some j ->
    Journal.record j ~kind:"mutate.done"
      [
        ("generated", Json.Int matrix.m_generated);
        ("killed", Json.Int matrix.m_killed);
        ("survived", Json.Int matrix.m_survived);
        ("timeout", Json.Int matrix.m_timeout);
        ("score", Json.Float matrix.m_score);
        ("full_links", Json.Int stats.s_full_links);
        ("incr_links", Json.Int stats.s_incr_links);
        ("restarts", Json.Int stats.s_restarts);
      ]);
  (matrix, stats)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render m =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "kill matrix: %d mutants x %d tests\n" m.m_generated
       m.m_tests);
  List.iter
    (fun row ->
      let cells = String.init m.m_tests (fun i ->
          match List.nth_opt row.r_outcomes i with
          | Some o -> outcome_char o
          | None -> '?')
      in
      Buffer.add_string b
        (Printf.sprintf "  %4d  %-22s %-24s [%s] %s\n" row.r_id row.r_desc
           row.r_target cells
           (verdict_to_string row.r_verdict)))
    m.m_rows;
  Buffer.add_string b "  per-operator:\n";
  List.iter
    (fun fam ->
      let rows = List.filter (fun r -> r.r_family = fam) m.m_rows in
      if rows <> [] then begin
        let count v =
          List.length (List.filter (fun r -> r.r_verdict = v) rows)
        in
        Buffer.add_string b
          (Printf.sprintf
             "    %-6s generated %4d  killed %4d  timeout %4d  survived %4d\n"
             (Gen.family_to_string fam) (List.length rows) (count Killed)
             (count Timeout) (count Survived))
      end)
    Gen.all_families;
  Buffer.add_string b
    (Printf.sprintf
       "  score: %.1f%% (%d killed + %d timeout of %d; %d survived)\n"
       m.m_score m.m_killed m.m_timeout m.m_generated m.m_survived);
  Buffer.contents b
