(* Tests for the evaluation substrate: workload generation, baselines
   (SanitizerCoverage / DrCov / libInst), the fuzzer, the campaign
   methodology, and the build-cost model. These validate the properties
   the figures rely on — e.g. that every tool observes the same coverage
   facts, that overheads are ordered the way the paper reports, and that
   the corpus is deterministic. *)

let tiny = Workloads.Profile.tiny

(* ---------------- workload generation ---------------- *)

let test_workload_deterministic () =
  let s1 = Workloads.Generate.source tiny in
  let s2 = Workloads.Generate.source tiny in
  Alcotest.(check string) "same source" s1 s2

let test_workload_compiles () =
  List.iter
    (fun (p : Workloads.Profile.t) ->
      let m = Workloads.Generate.compile p in
      Alcotest.(check int)
        (p.Workloads.Profile.name ^ " verifies")
        0
        (List.length (Ir.Verify.check_module m));
      Alcotest.(check bool)
        (p.Workloads.Profile.name ^ " has entry")
        true
        (Ir.Modul.find_func m "target_main" <> None))
    Workloads.Profile.all

(* Profile.find resolves every listed name; sqlite-xl is sqlite scaled
   in helper, tiny-function and parser counts only. *)
let test_profile_names_resolve () =
  List.iter
    (fun name ->
      match Workloads.Profile.find name with
      | Some p ->
        Alcotest.(check string) "name round-trips" name p.Workloads.Profile.name
      | None -> Alcotest.failf "%s does not resolve" name)
    Workloads.Profile.names;
  Alcotest.(check int) "every profile listed" 16
    (List.length Workloads.Profile.names);
  let sqlite = Workloads.Profile.find_exn "sqlite" in
  Alcotest.(check bool) "sqlite-xl = scaled sqlite" true
    (Workloads.Profile.find_exn "sqlite-xl"
    = {
        sqlite with
        Workloads.Profile.name = "sqlite-xl";
        n_helpers = 400;
        n_tiny = 200;
        n_parsers = 24;
      })

let test_workload_runs_on_vm () =
  let m = Workloads.Generate.compile tiny in
  let exe =
    Baselines.Plain.build ~keep:[ "target_main" ]
      ~host:Workloads.Generate.host_functions m
  in
  List.iter
    (fun input ->
      let vm = Vm.create exe in
      List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L))
        Workloads.Generate.host_functions;
      let addr = Vm.write_buffer vm input in
      (* must terminate and produce a value *)
      ignore (Vm.call vm "target_main" [ addr; Int64.of_int (String.length input) ]))
    (Workloads.Generate.seed_inputs tiny)

let test_workload_vm_matches_interp () =
  (* the synthetic program means the same thing to the reference
     interpreter and to compiled optimized code *)
  let input = List.hd (Workloads.Generate.seed_inputs tiny) in
  let m1 = Workloads.Generate.compile tiny in
  let st = Ir.Interp.create m1 in
  List.iter
    (fun n -> Ir.Interp.register_host st n (fun _ _ -> 0L))
    Workloads.Generate.host_functions;
  let addr = Ir.Interp.alloc_input st input in
  let expected = Ir.Interp.run st "target_main" [ addr; Int64.of_int (String.length input) ] in
  let m2 = Workloads.Generate.compile tiny in
  let exe =
    Baselines.Plain.build ~keep:[ "target_main" ]
      ~host:Workloads.Generate.host_functions m2
  in
  let vm = Vm.create exe in
  List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L))
    Workloads.Generate.host_functions;
  let vaddr = Vm.write_buffer vm input in
  let got = Vm.call vm "target_main" [ vaddr; Int64.of_int (String.length input) ] in
  Alcotest.(check int64) "same result" expected got

(* ---------------- mutators ---------------- *)

let test_mutators_total () =
  let rng = Support.Rng.create 5 in
  let s = "hello fuzzing world" in
  for _ = 1 to 200 do
    let m = Fuzzer.Mutate.havoc rng ~pool:[ s; "other" ] s in
    Alcotest.(check bool) "non-empty result" true (String.length m >= 0)
  done

let test_mutator_flip_changes_one_bit () =
  let rng = Support.Rng.create 5 in
  let s = String.make 16 'A' in
  let m = Fuzzer.Mutate.flip_bit rng s in
  let diff = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code m.[i] in
      let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
      diff := !diff + popcount x)
    s;
  Alcotest.(check int) "one bit flipped" 1 !diff

let test_corpus_pick_prefers_yield () =
  let c = Fuzzer.Corpus.create () in
  Fuzzer.Corpus.add c ~data:"good" ~exec_cycles:100 ~new_blocks:50 ();
  Fuzzer.Corpus.add c ~data:"bad" ~exec_cycles:100000 ~new_blocks:1 ();
  let rng = Support.Rng.create 3 in
  let good = ref 0 in
  for _ = 1 to 100 do
    match Fuzzer.Corpus.pick c rng with
    | Some s when s.Fuzzer.Corpus.data = "good" -> incr good
    | _ -> ()
  done;
  Alcotest.(check bool) "good seed favored" true (!good > 60)

(* ---------------- campaign ---------------- *)

let prep = lazy (Fuzzer.Campaign.prepare ~fuzz_execs:120 ~rounds:2 tiny)

let test_campaign_deterministic () =
  let p1 = Fuzzer.Campaign.prepare ~fuzz_execs:60 tiny in
  let p2 = Fuzzer.Campaign.prepare ~fuzz_execs:60 tiny in
  Alcotest.(check (list string)) "same corpus" p1.Fuzzer.Campaign.corpus
    p2.Fuzzer.Campaign.corpus

let test_campaign_corpus_grows () =
  let p = Lazy.force prep in
  Alcotest.(check bool) "corpus not empty" true (p.Fuzzer.Campaign.corpus <> [])

let test_replays_agree_on_results () =
  (* different tools, same inputs: all replay the same program *)
  let p = Lazy.force prep in
  let plain = Fuzzer.Campaign.replay_plain p in
  let sancov = Fuzzer.Campaign.replay_sancov p in
  Alcotest.(check int) "same input count"
    (List.length plain.Fuzzer.Campaign.r_per_input)
    (List.length sancov.Fuzzer.Campaign.r_per_input)

let test_overhead_ordering () =
  (* the qualitative result of Figure 9: baseline < OdinCov < SanCov,
     DrCov above SanCov, libInst far above everyone *)
  let p = Lazy.force prep in
  let total r = r.Fuzzer.Campaign.r_total_cycles in
  let base = total (Fuzzer.Campaign.replay_plain p) in
  let sancov = total (Fuzzer.Campaign.replay_sancov p) in
  let drcov = total (Fuzzer.Campaign.replay_dbi Baselines.Dbi.Drcov p) in
  let libinst = total (Fuzzer.Campaign.replay_dbi Baselines.Dbi.Libinst p) in
  let odin = total (Fuzzer.Campaign.replay_odincov ~prune:true p).Fuzzer.Campaign.o_replay in
  let noprune =
    total (Fuzzer.Campaign.replay_odincov ~prune:false p).Fuzzer.Campaign.o_replay
  in
  Alcotest.(check bool) "baseline cheapest" true (base < odin);
  Alcotest.(check bool) "OdinCov below SanCov" true (odin < sancov);
  Alcotest.(check bool) "OdinCov below NoPrune" true (odin < noprune);
  Alcotest.(check bool) "SanCov below DrCov" true (sancov < drcov);
  Alcotest.(check bool) "DrCov far below libInst" true (drcov * 3 < libinst)

let test_odincov_recompiles_during_replay () =
  let p = Lazy.force prep in
  let r = Fuzzer.Campaign.replay_odincov ~prune:true p in
  Alcotest.(check bool) "recompiled at least once" true
    (r.Fuzzer.Campaign.o_recompiles > 0);
  Alcotest.(check bool) "pruned probes" true (r.Fuzzer.Campaign.o_probes_pruned > 0)

let test_tools_see_same_coverage () =
  (* SanCov counters and DrCov's block map must agree on whether an input
     reaches new code (same program, same semantics) — compare covered
     *function* sets, which are representation-independent *)
  let p = Lazy.force prep in
  let input = List.hd p.Fuzzer.Campaign.corpus in
  (* SanCov *)
  let sc =
    Baselines.Sancov.build ~keep:[ "target_main" ]
      ~host:Workloads.Generate.host_functions p.Fuzzer.Campaign.modul
  in
  let vm = Fuzzer.Campaign.run_once sc.Baselines.Sancov.exe input in
  let sancov_funcs =
    Baselines.Sancov.covered_counters vm sc
    |> List.map (fun i ->
           let _, f, _ = sc.Baselines.Sancov.block_of_counter.(i) in
           f)
    |> List.sort_uniq String.compare
  in
  (* DrCov *)
  let exe =
    Baselines.Plain.build ~keep:[ "target_main" ]
      ~host:Workloads.Generate.host_functions p.Fuzzer.Campaign.modul
  in
  let dbi = Baselines.Dbi.create Baselines.Dbi.Drcov in
  ignore (Fuzzer.Campaign.run_once ~setup:(Baselines.Dbi.attach dbi) exe input);
  let drcov_funcs =
    Hashtbl.fold (fun (f, _) _ acc -> f :: acc) dbi.Baselines.Dbi.coverage []
    |> List.sort_uniq String.compare
  in
  (* the optimized binaries differ (inlining!), so compare only on the
     entry function, which both always observe *)
  Alcotest.(check bool) "sancov sees target_main" true
    (List.mem "target_main" sancov_funcs);
  Alcotest.(check bool) "drcov sees target_main" true
    (List.mem "target_main" drcov_funcs)

(* ---------------- partition variants on a workload ---------------- *)

let test_partition_variants_ordering () =
  (* Figure 10's shape: One <= Odin << Max on a coupled workload *)
  let p = Lazy.force prep in
  let run mode =
    let base = Ir.Clone.clone_module p.Fuzzer.Campaign.modul in
    let session =
      (* tier pinned off: the figure's cost ordering is a property of
         optimized fragment boundaries, not the tier-0 baseline *)
      Odin.Session.create ~mode ~keep:[ "target_main" ]
        ~host:Workloads.Generate.host_functions ~tiered:false base
    in
    ignore (Odin.Session.build session);
    let exe = Odin.Session.executable session in
    List.fold_left
      (fun acc input ->
        acc + (Fuzzer.Campaign.run_once exe input).Vm.cycles)
      0 p.Fuzzer.Campaign.corpus
  in
  let one = run Odin.Partition.One in
  let auto = run Odin.Partition.Auto in
  let max_ = run Odin.Partition.Max in
  Alcotest.(check bool) "Odin close to One (within 10%)" true
    (float_of_int auto <= 1.10 *. float_of_int one);
  Alcotest.(check bool) "Max pays for blind partitioning" true (max_ > auto)

(* ---------------- build-cost model ---------------- *)

let test_buildsim_matches_paper_libxml2 () =
  let rates = Buildsim.calibrate () in
  let p = Workloads.Profile.find_exn "libxml2" in
  let source = Workloads.Generate.source p in
  let m = Minic.Lower.compile source in
  let b = Buildsim.model rates (Buildsim.stats_of_module source m) in
  let feq = Alcotest.float 0.01 in
  Alcotest.(check feq) "autogen" 10.83 b.Buildsim.autogen;
  Alcotest.(check feq) "configure" 4.56 b.Buildsim.configure;
  Alcotest.(check feq) "frontend" 6.22 b.Buildsim.frontend;
  Alcotest.(check feq) "optimize" 15.28 b.Buildsim.optimize;
  Alcotest.(check feq) "codegen" 2.75 b.Buildsim.codegen

let test_buildsim_savings_claim () =
  (* the paper: caching bitcode saves "up to 45% of the total build time" *)
  let rates = Buildsim.calibrate () in
  let p = Workloads.Profile.find_exn "libxml2" in
  let source = Workloads.Generate.source p in
  let m = Minic.Lower.compile source in
  let b = Buildsim.model rates (Buildsim.stats_of_module source m) in
  let savings = Buildsim.savings_from_caching b in
  Alcotest.(check bool) "~45% savings" true (savings > 0.40 && savings < 0.65)

let test_buildsim_scales () =
  let rates = Buildsim.calibrate () in
  let small = Workloads.Profile.tiny in
  let large = Workloads.Profile.find_exn "sqlite" in
  let total p =
    let source = Workloads.Generate.source p in
    let m = Minic.Lower.compile source in
    Buildsim.total (Buildsim.model rates (Buildsim.stats_of_module source m))
  in
  Alcotest.(check bool) "bigger program, longer build" true (total large > total small)


(* ---------------- input-to-state solver ---------------- *)

let test_solver_patches_le32_magic () =
  let input = "xx\x2A\x00\x01\x00zz" in
  (* the program observed 0x00010000 + 42 = 65578 little-endian in the
     input and wanted 7777 *)
  let records =
    [ { Odin.Cmplog.rec_pid = 0; rec_lhs = 65578L; rec_rhs = 7777L } ]
  in
  let candidates = Fuzzer.Solver.solve ~records input in
  Alcotest.(check bool) "produced candidates" true (candidates <> []);
  let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 255)) in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "one candidate carries the wanted constant" true
    (List.exists (fun c -> contains c (le32 7777)) candidates)

let test_solver_end_to_end_roadblock () =
  (* a 4-byte big-endian magic only the solver can find *)
  let src =
    {|
int target_main(char *buf, int len) {
  if (len < 8) return 0;
  int magic = ((buf[0] & 255) << 24) | ((buf[1] & 255) << 16)
            | ((buf[2] & 255) << 8) | (buf[3] & 255);
  if (magic == 0x11223344) return 777;
  return 1;
}
|}
  in
  let m = Minic.Lower.compile src in
  let session = Odin.Session.create ~keep:[ "target_main" ] m in
  let cmplog = Odin.Cmplog.setup session in
  ignore (Odin.Session.build session);
  let run input =
    let vm = Vm.create (Odin.Session.executable session) in
    Vm.register_host vm Odin.Cmplog.runtime_fn (Odin.Cmplog.host_hook cmplog);
    let addr = Vm.write_buffer vm input in
    Vm.call vm "target_main" [ addr; Int64.of_int (String.length input) ]
  in
  let input = "AAAABBBB" in
  Alcotest.(check int64) "roadblock closed" 1L (run input);
  let records = Odin.Cmplog.drain cmplog in
  let candidates = Fuzzer.Solver.solve ~records input in
  Alcotest.(check bool) "solver passes the roadblock" true
    (List.exists (fun c -> run c = 777L) candidates)


(* ---------------- Figure 2 correctness experiment ---------------- *)

let test_fig2_instrument_first_solves_ranges () =
  let spec = Fuzzer.Fig2.make_spec 11 in
  let r = Fuzzer.Fig2.run_odin spec in
  Alcotest.(check int) "all range roadblocks solved" spec.Fuzzer.Fig2.n_range
    r.Fuzzer.Fig2.passed_range;
  Alcotest.(check int) "all equality roadblocks solved" spec.Fuzzer.Fig2.n_magic
    r.Fuzzer.Fig2.passed_magic

let test_fig2_instrument_last_breaks_ranges () =
  let spec = Fuzzer.Fig2.make_spec 11 in
  let r = Fuzzer.Fig2.run_static spec in
  (* the optimizer folded the range checks: the logged operands are no
     longer input copies, so the solver cannot patch them... *)
  Alcotest.(check int) "range roadblocks unsolvable after optimization" 0
    r.Fuzzer.Fig2.passed_range;
  (* ...while the undistorted equality checks still solve *)
  Alcotest.(check int) "equality roadblocks still solved" spec.Fuzzer.Fig2.n_magic
    r.Fuzzer.Fig2.passed_magic

let test_fig2_range_fold_actually_fired () =
  (* sanity for the experiment: the optimized program really contains the
     add/ult residue instead of the two comparisons *)
  let spec = Fuzzer.Fig2.make_spec 11 in
  let m = Minic.Lower.compile (Fuzzer.Fig2.source spec) in
  ignore (Opt.Pipeline.run ~keep:[ "target_main" ] m);
  let f = Option.get (Ir.Modul.find_func m "target_main") in
  let ult = ref 0 and sge = ref 0 in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Icmp (Ir.Ins.Ult, _, _) -> incr ult
      | Ir.Ins.Icmp (Ir.Ins.Sge, _, _) -> incr sge
      | _ -> ())
    f;
  Alcotest.(check int) "one ult per range check" spec.Fuzzer.Fig2.n_range !ult;
  Alcotest.(check int) "no sge left" 0 !sge

let () =
  Alcotest.run "eval"
    [
      ( "workloads",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "all 13 compile" `Slow test_workload_compiles;
          Alcotest.test_case "runs on VM" `Quick test_workload_runs_on_vm;
          Alcotest.test_case "VM matches interp" `Quick test_workload_vm_matches_interp;
          Alcotest.test_case "profile names resolve" `Quick test_profile_names_resolve;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "mutators total" `Quick test_mutators_total;
          Alcotest.test_case "flip_bit flips one bit" `Quick test_mutator_flip_changes_one_bit;
          Alcotest.test_case "corpus scheduling" `Quick test_corpus_pick_prefers_yield;
          Alcotest.test_case "campaign deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "corpus grows" `Quick test_campaign_corpus_grows;
        ] );
      ( "replay",
        [
          Alcotest.test_case "replays agree" `Quick test_replays_agree_on_results;
          Alcotest.test_case "overhead ordering (Fig. 9)" `Slow test_overhead_ordering;
          Alcotest.test_case "odincov recompiles" `Slow test_odincov_recompiles_during_replay;
          Alcotest.test_case "tools see same coverage" `Quick test_tools_see_same_coverage;
          Alcotest.test_case "partition variants (Fig. 10)" `Slow test_partition_variants_ordering;
        ] );
      ( "fig2-correctness",
        [
          Alcotest.test_case "instrument-first solves ranges" `Quick
            test_fig2_instrument_first_solves_ranges;
          Alcotest.test_case "instrument-last cannot" `Quick
            test_fig2_instrument_last_breaks_ranges;
          Alcotest.test_case "range fold fired" `Quick test_fig2_range_fold_actually_fired;
        ] );
      ( "solver",
        [
          Alcotest.test_case "patches encoded magic" `Quick test_solver_patches_le32_magic;
          Alcotest.test_case "end-to-end roadblock" `Quick test_solver_end_to_end_roadblock;
        ] );
      ( "buildsim",
        [
          Alcotest.test_case "libxml2 = paper Fig. 3" `Quick test_buildsim_matches_paper_libxml2;
          Alcotest.test_case "45% savings claim" `Quick test_buildsim_savings_claim;
          Alcotest.test_case "scales with size" `Quick test_buildsim_scales;
        ] );
    ]
