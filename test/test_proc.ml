(* The process-isolated farm: wire-protocol codec hardening, supervisor
   kill/restart determinism, and campaign checkpoint/resume.

   The headline contract extends the farm's determinism claim across
   substrates and crashes: the logical results (coverage, pruned set,
   corpus, execs, cycles) are bit-identical between --farm-mode
   domains and procs, across --workers 1/2/4, and across any
   kill/restart schedule — a worker SIGKILLed pre-barrier, mid-frame
   or mid-checkpoint is restarted, re-sent the same assignment, and
   reproduces the same items. Checkpoints published at barriers resume
   to the same final state as the uninterrupted run. *)

module Pool = Support.Pool
module Fault = Support.Fault
module Objstore = Support.Objstore
module Wire = Farm.Wire
module Orch = Farm.Orch
module Csync = Farm.Csync

(* The test binary doubles as the worker executable: the supervisor
   re-execs us with the hidden subcommand, exactly like odinc. Must run
   before Alcotest sees argv. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "fuzz-worker" then begin
    Farm.Proc.worker_main ();
    exit 0
  end

let worker_argv = [| Sys.executable_name; "fuzz-worker" |]
let tiny = Workloads.Profile.tiny
let entry = Fuzzer.Campaign.entry
let seeds = Workloads.Generate.seed_inputs ~count:2 tiny
let compile () = Workloads.Generate.compile tiny

(* workers' environment with the given fault plan installed (and any
   inherited plan scrubbed) *)
let env_with_plan plan =
  let keep s = not (String.length s >= 12 && String.sub s 0 12 = "ODIN_FAULTS=") in
  Array.of_list
    (List.filter keep (Array.to_list (Unix.environment ()))
    @ [ "ODIN_FAULTS=" ^ Fault.to_string plan ])

let mk_cfg ?(workers = 2) ?(execs = 60) ?(sync = 20) ?(quorum = 1)
    ?(decay = 1.0) () =
  {
    Farm.default_config with
    Farm.fc_workers = workers;
    fc_execs = execs;
    fc_sync_interval = sync;
    fc_prune_quorum = quorum;
    fc_vote_decay = decay;
  }

let run_proc ?telemetry ?journal_path ?checkpoint_path ?resume ?worker_env
    ?(max_restarts = 3) cfg =
  Farm.Proc.run ?telemetry ?journal_path ?checkpoint_path ?resume ?worker_env
    ~max_restarts ~worker_argv ~entry ~seeds cfg (compile ())

let check_logical msg a b =
  Alcotest.(check (list int)) (msg ^ ": coverage") a.Farm.fs_coverage b.Farm.fs_coverage;
  Alcotest.(check (list int)) (msg ^ ": pruned") a.Farm.fs_pruned b.Farm.fs_pruned;
  Alcotest.(check (list string)) (msg ^ ": corpus") a.Farm.fs_corpus b.Farm.fs_corpus;
  Alcotest.(check int) (msg ^ ": execs") a.Farm.fs_execs b.Farm.fs_execs;
  Alcotest.(check int) (msg ^ ": cycles") a.Farm.fs_total_cycles b.Farm.fs_total_cycles

let counter_total (r : Telemetry.Recorder.t) name =
  List.fold_left
    (fun acc c ->
      if Telemetry.Metrics.counter_name c = name then
        acc + Telemetry.Metrics.value c
      else acc)
    0
    (Telemetry.Metrics.counters r.Telemetry.Recorder.metrics)

let with_tmp_dir tag f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("odin-test-" ^ tag) in
  Objstore.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () -> f dir

(* ---------------- wire codec ------------------------------------------- *)

let sample_init =
  Wire.Init
    {
      Wire.in_id = 3;
      in_seed = 42;
      in_mode = Odin.Partition.Auto;
      in_entry = "main";
      in_host = [ "h0"; "h1" ];
      in_seeds = [ "s0"; "" ];
      in_mod_name = "m";
      in_mod_text = "module text\nwith newline \x00 and nul";
      in_cache_dir = Some "/tmp/x";
      in_incr_link = Some true;
      in_incr_sched = None;
      in_promote_share = 0.05;
    }

let sample_assign =
  Wire.Assign
    {
      Wire.as_round = 7;
      as_slots = [ 12; 13; 14 ];
      as_corpus =
        [ { Orch.ce_input = "in-0"; ce_energy = 3; ce_cycles = 77; ce_fresh = 2 } ];
      as_pruned = [ 1; 4 ];
      as_fn_cycles = [ ("hot", 900); ("cold", 1) ];
    }

let sample_items =
  Wire.Items
    {
      Wire.im_round = 7;
      im_items =
        [
          {
            Csync.it_index = 12;
            it_input = "abc";
            it_cycles = 101;
            it_fired = [ 0; 5 ];
            it_fns = [ ("f", 50); ("g", 51) ];
            it_probe_cost = [ (0, 1, 10); (5, 2, 20) ];
          };
        ];
      im_skipped = 1;
      im_crashes = 0;
      im_recompiles = 2;
    }

let sample_msgs =
  [
    sample_init;
    Wire.Ready { rd_id = 3; rd_n_probes = 17 };
    sample_assign;
    Wire.Heartbeat { hb_round = 7; hb_done = 2 };
    sample_items;
    Wire.Died "vm fault";
    Wire.Shutdown;
    Wire.Blob { bl_kind = "mutate.assign"; bl_data = "\x00\x01binary\xffpayload" };
  ]

let test_wire_roundtrip () =
  List.iter
    (fun msg ->
      let frame = Wire.encode_frame msg in
      Alcotest.(check bool) "decode_frame round-trips" true
        (Wire.decode_frame frame = msg);
      match Wire.decode_at frame 0 with
      | Some (msg', off) ->
        Alcotest.(check bool) "decode_at round-trips" true (msg' = msg);
        Alcotest.(check int) "consumed whole frame" (String.length frame) off
      | None -> Alcotest.fail "decode_at returned None on a complete frame")
    sample_msgs;
  (* back-to-back frames decode in sequence *)
  let stream = String.concat "" (List.map Wire.encode_frame sample_msgs) in
  let rec walk off acc =
    if off >= String.length stream then List.rev acc
    else
      match Wire.decode_at stream off with
      | Some (m, off') -> walk off' (m :: acc)
      | None -> Alcotest.fail "incomplete frame in stream"
  in
  Alcotest.(check bool) "stream decodes to the same msgs" true
    (walk 0 [] = sample_msgs)

let expect_wire_error what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Wire_error")
  | exception Wire.Wire_error _ -> ()

let test_wire_torn_and_corrupt () =
  let frame = Wire.encode_frame sample_assign in
  (* every strict prefix is "incomplete", never a parse *)
  for cut = 0 to String.length frame - 1 do
    match Wire.decode_at (String.sub frame 0 cut) 0 with
    | None -> ()
    | Some _ -> Alcotest.fail "decoded a torn frame"
    | exception Wire.Wire_error _ ->
      Alcotest.fail "prefix should read as incomplete, not corrupt"
  done;
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  expect_wire_error "bad magic" (fun () -> Wire.decode_frame (flip frame 0));
  expect_wire_error "bad version" (fun () -> Wire.decode_frame (flip frame 4));
  expect_wire_error "bad tag" (fun () -> Wire.decode_frame (flip frame 5));
  (* payload corruption is caught by the checksum *)
  expect_wire_error "payload bit-flip" (fun () ->
      Wire.decode_frame (flip frame (String.length frame - 1)));
  expect_wire_error "checksum bit-flip" (fun () ->
      Wire.decode_frame (flip frame 10));
  expect_wire_error "trailing garbage" (fun () ->
      Wire.decode_frame (frame ^ "x"));
  (* v3: tiered compilation joined the protocol (Init threshold,
     Assign merged profile, ckpt v2) *)
  Alcotest.(check int) "protocol version pinned" 3 Wire.version;
  Alcotest.(check int) "header length pinned" 14 Wire.header_len

(* ---------------- checkpoint files ------------------------------------- *)

(* a real checkpoint, as the domains farm publishes it *)
let make_ckpt dir =
  let path = Filename.concat dir "ck" in
  let _ =
    Farm.run ~pool:Pool.serial ~checkpoint_path:path ~entry ~seeds
      (mk_cfg ~execs:40 ()) (compile ())
  in
  (path, Wire.read_checkpoint path)

let test_checkpoint_file () =
  with_tmp_dir "ckfile" @@ fun dir ->
  let path, ck = make_ckpt dir in
  Alcotest.(check int) "version stamped" Orch.ckpt_version ck.Orch.ck_version;
  Alcotest.(check int) "cursor at budget" 40 ck.Orch.ck_next;
  (* rotation: the previous publication survives as .prev *)
  Alcotest.(check bool) ".prev exists" true (Sys.file_exists (path ^ ".prev"));
  let prev = Wire.read_checkpoint (path ^ ".prev") in
  Alcotest.(check bool) ".prev is an earlier barrier" true
    (prev.Orch.ck_next < ck.Orch.ck_next);
  (match Wire.load_checkpoint path with
  | Ok (ck', fallback) ->
    Alcotest.(check bool) "load returns primary" true (ck' = ck);
    Alcotest.(check bool) "no fallback needed" false fallback
  | Error m -> Alcotest.fail m);
  (* tear the primary: load falls back to .prev *)
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub raw 0 (String.length raw / 2)));
  (match Wire.load_checkpoint path with
  | Ok (ck', fallback) ->
    Alcotest.(check bool) "fallback content is .prev" true (ck' = prev);
    Alcotest.(check bool) "fallback flagged" true fallback
  | Error m -> Alcotest.fail m);
  (* both gone: a clean error, not an exception *)
  Sys.remove path;
  Sys.remove (path ^ ".prev");
  match Wire.load_checkpoint path with
  | Ok _ -> Alcotest.fail "loaded a missing checkpoint"
  | Error _ -> ()

(* ---------------- substrate invariance --------------------------------- *)

let test_procs_equals_domains () =
  let cfg = mk_cfg () in
  let dom = Farm.run ~pool:Pool.serial ~entry ~seeds cfg (compile ()) in
  let prc = run_proc cfg in
  check_logical "domains vs procs" dom prc;
  Alcotest.(check int) "probe universe identical" dom.Farm.fs_total_probes
    prc.Farm.fs_total_probes;
  Alcotest.(check int) "same barrier count" dom.Farm.fs_sync_rounds
    prc.Farm.fs_sync_rounds;
  Alcotest.(check bool) "found coverage" true (prc.Farm.fs_coverage <> [])

let test_procs_worker_invariance () =
  let sts = List.map (fun w -> run_proc (mk_cfg ~workers:w ())) [ 1; 2; 4 ] in
  let base = List.hd sts in
  List.iter2
    (fun w st -> check_logical (Printf.sprintf "procs w=%d" w) base st)
    [ 1; 2; 4 ] sts

(* ---------------- kill matrix ------------------------------------------ *)

(* SIGKILL mid-campaign, at three points in a worker's send sequence,
   for 2- and 4-process fleets: the supervisor restarts the worker,
   re-sends the outstanding assignment, and the campaign's logical
   results are bit-identical to the unkilled run. Nth 20 lands inside a
   mid-campaign round for both fleet sizes, and a restarted worker's
   shorter re-run never reaches 20 sends, so each incarnation dies at
   most once. *)

let kill_variant ~workers baseline variant plan =
  let r = Telemetry.Recorder.create () in
  let st = run_proc ~telemetry:r ~worker_env:(env_with_plan plan)
      (mk_cfg ~workers ())
  in
  let tag = Printf.sprintf "%s (w=%d)" variant workers in
  check_logical tag baseline st;
  Alcotest.(check bool) (tag ^ ": workers were killed") true
    (counter_total r "farm.worker_deaths" > 0);
  Alcotest.(check bool) (tag ^ ": workers were restarted") true
    (counter_total r "farm.worker_restarts" > 0);
  Alcotest.(check (list (pair int string))) (tag ^ ": none retired") []
    st.Farm.fs_dead

let test_kill_matrix () =
  List.iter
    (fun workers ->
      let baseline = run_proc (mk_cfg ~workers ()) in
      (* SIGKILL at a clean frame boundary: the worker dies just before
         writing a heartbeat; the supervisor sees EOF and restarts *)
      kill_variant ~workers baseline "kill mid-round"
        (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 20) "wire.send" Fault.Kill ]);
      (* death mid-frame: half a heartbeat lands in the pipe; the
         supervisor detects the torn frame and restarts *)
      kill_variant ~workers baseline "torn mid-frame"
        (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 20) "wire.send" Fault.Torn ]))
    [ 2; 4 ]

let test_preemptive_kill () =
  (* supervisor-side fault on the heartbeat site: the watchdog SIGKILLs
     one worker pre-barrier and restarts it; results are unchanged *)
  let baseline = run_proc (mk_cfg ()) in
  let r = Telemetry.Recorder.create () in
  let st =
    Fault.with_plan
      (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 2) "farm.heartbeat" Fault.Raise ])
      (fun () -> run_proc ~telemetry:r (mk_cfg ()))
  in
  check_logical "preemptive kill" baseline st;
  Alcotest.(check int) "exactly one restart" 1
    (counter_total r "farm.worker_restarts");
  Alcotest.(check (list (pair int string))) "none retired" [] st.Farm.fs_dead

let test_vote_decay_on_restart () =
  (* a restarted worker's prune-vote weight decays; the final
     checkpoint records the per-worker weights *)
  with_tmp_dir "decay" @@ fun dir ->
  let path = Filename.concat dir "ck" in
  let r = Telemetry.Recorder.create () in
  let _ =
    Fault.with_plan
      (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 1) "farm.heartbeat" Fault.Raise ])
      (fun () ->
        run_proc ~telemetry:r ~checkpoint_path:path (mk_cfg ~decay:0.5 ()))
  in
  Alcotest.(check int) "one restart" 1 (counter_total r "farm.worker_restarts");
  let ck = Wire.read_checkpoint path in
  let weights = List.map snd ck.Orch.ck_weights |> List.sort compare in
  Alcotest.(check (list (float 1e-9)))
    "killed worker's weight halved, survivor's intact" [ 0.5; 1.0 ] weights;
  Alcotest.(check int) "restart count checkpointed" 1 ck.Orch.ck_restarts

let test_all_workers_retired () =
  (* a fault that kills every incarnation at its first send exhausts
     the restart budget during the handshake; the farm degrades to a
     clean empty result instead of hanging or crashing *)
  let plan =
    Fault.plan [ Fault.rule ~trigger:(Fault.Nth 1) "wire.send" Fault.Kill ]
  in
  let st =
    run_proc ~worker_env:(env_with_plan plan) ~max_restarts:1 (mk_cfg ())
  in
  Alcotest.(check int) "both workers retired" 2 (List.length st.Farm.fs_dead);
  Alcotest.(check int) "no executions merged" 0 st.Farm.fs_execs;
  Alcotest.(check (list int)) "no coverage" [] st.Farm.fs_coverage

(* ---------------- checkpoint / resume ---------------------------------- *)

let journal_tail path =
  let l = Telemetry.Journal.load path in
  let costs =
    List.filter_map
      (fun e ->
        if e.Telemetry.Journal.e_kind = "probe.cost" then
          Some e.Telemetry.Journal.e_fields
        else None)
      l.Telemetry.Journal.l_events
  in
  let done_fields =
    List.filter_map
      (fun e ->
        if e.Telemetry.Journal.e_kind = "farm.done" then
          Some
            (List.filter
               (fun (k, _) ->
                 List.mem k [ "execs"; "cycles"; "coverage"; "pruned"; "exchanged" ])
               e.Telemetry.Journal.e_fields)
        else None)
      l.Telemetry.Journal.l_events
  in
  (costs, done_fields)

let test_resume_from_middle () =
  with_tmp_dir "resume" @@ fun dir ->
  let ck_path = Filename.concat dir "ck" in
  let jf = Filename.concat dir "full.jsonl" in
  let jr = Filename.concat dir "resumed.jsonl" in
  let full = run_proc ~journal_path:jf (mk_cfg ~execs:60 ()) in
  (* interrupted campaign: stop at a third of the budget *)
  let _ = run_proc ~checkpoint_path:ck_path (mk_cfg ~execs:20 ()) in
  let ck =
    match Wire.load_checkpoint ck_path with
    | Ok (ck, false) -> ck
    | Ok (_, true) -> Alcotest.fail "unexpected fallback"
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "checkpoint mid-campaign" 20 ck.Orch.ck_next;
  let resumed =
    run_proc ~resume:ck ~journal_path:jr ~checkpoint_path:ck_path
      (mk_cfg ~execs:60 ())
  in
  check_logical "resume reaches the uninterrupted state" full resumed;
  let costs_f, done_f = journal_tail jf and costs_r, done_r = journal_tail jr in
  Alcotest.(check bool) "journal probe-cost tail identical" true
    (costs_f = costs_r && costs_f <> []);
  Alcotest.(check bool) "journal summary identical" true
    (done_f = done_r && done_f <> [])

let test_resume_from_final () =
  with_tmp_dir "resume-final" @@ fun dir ->
  let ck_path = Filename.concat dir "ck" in
  let full = run_proc ~checkpoint_path:ck_path (mk_cfg ~execs:60 ()) in
  let ck = Wire.read_checkpoint ck_path in
  Alcotest.(check int) "budget spent" 60 ck.Orch.ck_next;
  let resumed = run_proc ~resume:ck (mk_cfg ~execs:60 ()) in
  check_logical "resume from the final barrier is a no-op" full resumed

let test_resume_after_torn_checkpoint () =
  (* the supervisor crashes mid-publication at the final barrier: the
     primary file is torn, load falls back to the previous barrier's
     checkpoint, and resume still reaches the uninterrupted state *)
  with_tmp_dir "resume-torn" @@ fun dir ->
  let ck_path = Filename.concat dir "ck" in
  let full = run_proc (mk_cfg ~execs:60 ()) in
  let _ =
    Fault.with_plan
      (Fault.plan
         [ Fault.rule ~trigger:(Fault.Nth 4) "farm.checkpoint" Fault.Torn ])
      (fun () -> run_proc ~checkpoint_path:ck_path (mk_cfg ~execs:60 ()))
  in
  let ck =
    match Wire.load_checkpoint ck_path with
    | Ok (ck, fallback) ->
      Alcotest.(check bool) "primary torn: fell back to .prev" true fallback;
      ck
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "fallback is an earlier barrier" true
    (ck.Orch.ck_next < 60);
  let resumed = run_proc ~resume:ck (mk_cfg ~execs:60 ()) in
  check_logical "resume after torn checkpoint" full resumed

let test_resume_refuses_mismatch () =
  with_tmp_dir "resume-mismatch" @@ fun dir ->
  let _, ck = make_ckpt dir in
  (* wrong seed: same module, different campaign *)
  let cfg = { (mk_cfg ~execs:40 ()) with Farm.fc_seed = 1 } in
  (match run_proc ~resume:ck cfg with
  | _ -> Alcotest.fail "resume accepted a foreign seed"
  | exception Invalid_argument _ -> ());
  (* domains driver enforces the same pinning *)
  match Farm.run ~pool:Pool.serial ~resume:ck ~entry ~seeds cfg (compile ()) with
  | _ -> Alcotest.fail "domains resume accepted a foreign seed"
  | exception Invalid_argument _ -> ()

(* the probe-count check runs after the fleet has booted: refusing the
   checkpoint must still shut every worker down *)
let test_resume_mismatch_reaps_workers () =
  with_tmp_dir "resume-probes" @@ fun dir ->
  let path, ck = make_ckpt dir in
  ignore
    (Wire.write_checkpoint path
       { ck with Orch.ck_n_probes = ck.Orch.ck_n_probes + 1 });
  (match run_proc ~resume:(Wire.read_checkpoint path) (mk_cfg ~execs:40 ()) with
  | _ -> Alcotest.fail "resume accepted a foreign probe count"
  | exception Invalid_argument _ -> ());
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | _ -> Alcotest.fail "a worker process outlived the refused resume"
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "proc"
    [
      ( "wire",
        [
          Alcotest.test_case "frame round-trip, all tags" `Quick
            test_wire_roundtrip;
          Alcotest.test_case "torn + corrupt frames rejected" `Quick
            test_wire_torn_and_corrupt;
        ] );
      ( "checkpoint file",
        [
          Alcotest.test_case "publish, rotate, torn fallback" `Quick
            test_checkpoint_file;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "procs == domains" `Slow test_procs_equals_domains;
          Alcotest.test_case "workers 1/2/4 identical" `Slow
            test_procs_worker_invariance;
        ] );
      ( "kill matrix",
        [
          Alcotest.test_case "SIGKILL + torn frame, w=2 and w=4" `Slow
            test_kill_matrix;
          Alcotest.test_case "preemptive watchdog kill" `Slow
            test_preemptive_kill;
          Alcotest.test_case "vote decay on restart" `Slow
            test_vote_decay_on_restart;
          Alcotest.test_case "all workers retired degrades cleanly" `Slow
            test_all_workers_retired;
        ] );
      ( "resume",
        [
          Alcotest.test_case "from mid-campaign checkpoint" `Slow
            test_resume_from_middle;
          Alcotest.test_case "from the final barrier" `Slow
            test_resume_from_final;
          Alcotest.test_case "after a torn checkpoint" `Slow
            test_resume_after_torn_checkpoint;
          Alcotest.test_case "refuses seed mismatch" `Quick
            test_resume_refuses_mismatch;
          Alcotest.test_case "probe mismatch reaps workers" `Quick
            test_resume_mismatch_reaps_workers;
        ] );
    ]
