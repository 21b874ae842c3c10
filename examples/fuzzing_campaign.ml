(* A live coverage-guided fuzzing campaign with OdinCov in the loop —
   not just corpus replay: probes are pruned and fragments recompiled
   *while fuzzing*, the way a fuzzer would actually integrate Odin.

     dune exec examples/fuzzing_campaign.exe
*)

let entry = "target_main"
let execs = 600

let () =
  print_endline "== Fuzzing campaign with on-demand instrumentation ==\n";
  let profile = Workloads.Profile.find_exn "libpng" in
  let m = Workloads.Generate.compile profile in
  Printf.printf "target: synthetic %s (%d functions)\n" profile.Workloads.Profile.name
    (List.length (Ir.Modul.defined_functions m));

  let session =
    Odin.Session.create ~keep:[ entry ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~host:Workloads.Generate.host_functions m
  in
  let cov = Odin.Cov.setup session in
  ignore (Odin.Session.build session);
  Printf.printf "probes: %d   fragments: %d\n\n" cov.Odin.Cov.total_probes
    (Odin.Partition.fragment_count session.Odin.Session.plan);

  let recompiles = ref 0 in
  let exec_cycles = ref 0 in
  (* one VM for the campaign, reset to the current executable per run *)
  let vm = Vm.create (Odin.Session.executable session) in
  List.iter
    (fun n -> Vm.register_host vm n (fun _ -> 0L))
    Workloads.Generate.host_functions;
  let target =
    {
      Fuzzer.Fuzz.run =
        (fun input ->
          Vm.reset vm (Odin.Session.executable session);
          let addr = Vm.write_buffer vm input in
          ignore (Vm.call vm entry [ addr; Int64.of_int (String.length input) ]);
          let fresh = Odin.Cov.harvest cov vm in
          exec_cycles := !exec_cycles + vm.Vm.cycles;
          (* on-demand: drop what has fired, recompile on the fly *)
          if Odin.Cov.prune_fired cov > 0 then
            (match Odin.Session.refresh session with
            | Some _ -> incr recompiles
            | None -> ());
          { Fuzzer.Fuzz.ex_cycles = vm.Vm.cycles; ex_new_blocks = List.length fresh });
    }
  in
  let rng = Support.Rng.create 2024 in
  let seeds = Workloads.Generate.seed_inputs profile in
  let t0 = Unix.gettimeofday () in
  let corpus, stats = Fuzzer.Fuzz.collect_corpus ~rng ~seeds ~execs target in
  let wall = Unix.gettimeofday () -. t0 in

  Printf.printf "campaign: %d executions in %.2f s (%d VM cycles total)\n"
    stats.Fuzzer.Fuzz.executions wall !exec_cycles;
  Printf.printf "corpus: %d coverage-increasing inputs (%d discoveries)\n"
    (Fuzzer.Corpus.size corpus) stats.Fuzzer.Fuzz.discoveries;
  Printf.printf "coverage: %d / %d blocks\n" (Odin.Cov.covered cov)
    cov.Odin.Cov.total_probes;
  Printf.printf "probes remaining: %d (pruned: %d)\n"
    (Instr.Manager.count session.Odin.Session.manager)
    cov.Odin.Cov.pruned_total;
  Printf.printf "on-the-fly recompilations: %d\n" !recompiles;
  let events = Odin.Session.events session in
  let recompile_times =
    match events with
    | _initial :: rest ->
      List.map
        (fun (e : Odin.Session.recompile_event) ->
          1000. *. (e.Odin.Session.ev_compile_time +. e.Odin.Session.ev_link_time))
        rest
    | [] -> []
  in
  if recompile_times <> [] then
    Printf.printf "recompilation latency: mean %.2f ms, worst %.2f ms\n"
      (Support.Stats.mean recompile_times)
      (Support.Stats.max_l recompile_times)
