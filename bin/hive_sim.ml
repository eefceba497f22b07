(* hive_sim: command-line driver for the simulated Hive system.

     hive_sim workload pmake --cells 4
     hive_sim workload ocean --cells 1 --smp
     hive_sim fault node --cells 4 --node 2 --at-ms 300
     hive_sim fault corrupt-cow --cells 4 --victim 1 *)

open Cmdliner

(* ---- shared machine-shape and output terms ----

   Every subcommand that boots a system takes the same four shape flags;
   every subcommand that can emit observability artifacts takes the same
   two output flags. *)

type shape = {
  sh_cells : int option;
  sh_nodes : int option;
  sh_smp : bool;
  sh_no_import_cache : bool;
}

type output = { out_trace : string option; out_metrics : string option }

let shape_term =
  let cells =
    Arg.(
      value
      & opt (some int) None
      & info [ "cells" ] ~docv:"N"
          ~doc:"Number of cells (default 4).")
  in
  let nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "nodes" ] ~docv:"N"
          ~doc:"Number of nodes (default: the stock machine).")
  in
  let smp =
    Arg.(
      value & flag
      & info [ "smp" ]
          ~doc:"Run the SMP-OS baseline (one kernel, firewall disabled).")
  in
  let no_import_cache =
    Arg.(
      value & flag
      & info [ "no-import-cache" ]
          ~doc:
            "Run with the legacy sharing protocol: no remote-page import \
             cache, no fault read-ahead, one share.release RPC per page. \
             Useful as the A side of an A/B against the default protocol.")
  in
  Term.(
    const (fun sh_cells sh_nodes sh_smp sh_no_import_cache ->
        { sh_cells; sh_nodes; sh_smp; sh_no_import_cache })
    $ cells $ nodes $ smp $ no_import_cache)

let output_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file of the run (load it in \
             chrome://tracing or Perfetto).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run typed metrics snapshot (per-op RPC \
             latency histograms, per-cell counters, sharing totals, \
             recovery timeline) as JSON.")
  in
  Term.(
    const (fun out_trace out_metrics -> { out_trace; out_metrics })
    $ trace $ metrics)

(* Open every requested output file before booting anything, so a bad
   path fails fast with one line and exit 2 instead of an uncaught
   [Sys_error] after the run. *)
let with_outputs ?(also = []) output run =
  let paths =
    Option.to_list output.out_trace
    @ Option.to_list output.out_metrics
    @ also
  in
  let unwritable path =
    match close_out (open_out path) with
    | () -> None
    | exception Sys_error msg ->
      (* [msg] reads "<path>: <reason>"; keep the reason. *)
      let n = min (String.length path + 2) (String.length msg) in
      Some (path, String.sub msg n (String.length msg - n))
  in
  match List.find_map unwritable paths with
  | Some (path, reason) ->
    Printf.eprintf "hive_sim: cannot write output file %S: %s\n" path reason;
    2
  | None -> run ()

let boot_shape shape =
  let ncells = Option.value ~default:4 shape.sh_cells in
  let eng = Sim.Engine.create () in
  let mcfg =
    match shape.sh_nodes with
    | None -> Flash.Config.default
    | Some n -> Flash.Config.with_nodes Flash.Config.default n
  in
  let mcfg =
    if shape.sh_smp then { mcfg with Flash.Config.firewall_enabled = false }
    else mcfg
  in
  let params =
    if shape.sh_no_import_cache then
      Hive.Params.legacy_sharing Hive.Params.default
    else Hive.Params.default
  in
  let sys =
    Hive.System.boot ~mcfg ~params ~ncells ~multicellular:(not shape.sh_smp)
      ~wax:(not shape.sh_smp) eng
  in
  (sys, ncells)

let setup_and_run sys = function
  | "pmake" ->
    Workloads.Pmake.setup sys Workloads.Pmake.default;
    Workloads.Pmake.run sys
  | "ocean" ->
    Workloads.Ocean.setup sys Workloads.Ocean.default;
    Workloads.Ocean.run sys
  | "raytrace" -> Workloads.Raytrace.run sys
  | other -> failwith ("unknown workload: " ^ other)

let verify_of sys = function
  | "pmake" -> Workloads.Pmake.verify sys
  | "ocean" -> Workloads.Ocean.verify sys
  | "raytrace" -> Workloads.Raytrace.verify sys
  | _ -> []

let print_counters sys =
  let _all, per_cell = Hive.System.counters sys in
  List.iter
    (fun (id, cs) ->
      Printf.printf "  cell %d:\n" id;
      List.iter (fun (k, v) -> Printf.printf "    %-28s %d\n" k v) cs)
    per_cell

(* Attach a Chrome trace_event sink when --trace-out is given; returns the
   finalizer that terminates the JSON array. *)
let attach_trace sys = function
  | None -> fun () -> ()
  | Some path ->
    let sink, close = Sim.Event.chrome_file path in
    Sim.Event.attach sys.Hive.Types.events sink;
    close

(* --verbose: print the kernel's recovery and process instants on stderr,
   one line each: virtual ms, cell, event name and its args as
   key=value with JSON values. *)
let attach_kernel_log sys =
  let line (e : Sim.Event.t) =
    let arg (k, v) =
      " " ^ k ^ "=" ^ Sim.Json.to_string (Sim.Event.value_to_json v)
    in
    Printf.eprintf "[%10.3f ms] cell %d %s%s\n%!"
      (Int64.to_float e.ts /. 1e6) e.cell e.name
      (String.concat "" (List.map arg e.args))
  in
  Sim.Event.attach sys.Hive.Types.events
    {
      Sim.Event.emit =
        (fun e ->
          match (e.phase, e.cat) with
          | Sim.Event.Instant, (Sim.Event.Recovery | Sim.Event.Proc) -> line e
          | _ -> ());
      flush = (fun () -> ());
    }

let finish_observability sys ~trace_close ~(output : output) =
  trace_close ();
  let m = Hive.Metrics.capture sys in
  Option.iter (Hive.Metrics.write_file m) output.out_metrics;
  Hive.Metrics.print_summary m

(* ---- workload command ---- *)

let run_workload name shape verbose output =
  with_outputs output @@ fun () ->
  let sys, ncells = boot_shape shape in
  if verbose then attach_kernel_log sys;
  let trace_close = attach_trace sys output.out_trace in
  let result, _ = setup_and_run sys name in
  Printf.printf "%s on %s (%d cell%s): %.3f s simulated%s\n"
    result.Workloads.Workload.name
    (if shape.sh_smp then "SMP-OS baseline" else "Hive")
    ncells
    (if ncells = 1 then "" else "s")
    (Workloads.Workload.ns_to_s result.Workloads.Workload.elapsed_ns)
    (if result.Workloads.Workload.completed then "" else "  [INCOMPLETE]");
  List.iter
    (fun (path, v) ->
      if v <> Workloads.Workload.Match then
        Printf.printf "  output %s: %s\n" path
          (Workloads.Workload.verify_outcome_to_string v))
    (verify_of sys name);
  if verbose then print_counters sys;
  finish_observability sys ~trace_close ~output;
  0

(* ---- server command: interactive traffic served through failure ---- *)

let run_server shape duration_ms rate zipf churn_pct deadline_ms kill_cell
    kill_at_ms seed verbose output =
  with_outputs output @@ fun () ->
  let sys, ncells = boot_shape shape in
  if verbose then attach_kernel_log sys;
  let trace_close = attach_trace sys output.out_trace in
  (match kill_cell with
  | Some c when c < 0 || c >= ncells ->
    failwith (Printf.sprintf "--kill-cell %d: no such cell" c)
  | _ -> ());
  let cfg =
    {
      Workloads.Server.default with
      duration_ms;
      rate_rps = rate;
      zipf_s = zipf;
      churn_pct;
      deadline_ms;
      fault =
        Option.map
          (fun c -> { Workloads.Server.kill_cell = c; at_ms = kill_at_ms })
          kill_cell;
      seed;
    }
  in
  let result, stats = Workloads.Server.run ~cfg sys in
  Workloads.Server.print_stats stats;
  Printf.printf "server on %s (%d cell%s): %.3f s simulated%s\n"
    (if shape.sh_smp then "SMP-OS baseline" else "Hive")
    ncells
    (if ncells = 1 then "" else "s")
    (Workloads.Workload.ns_to_s result.Workloads.Workload.elapsed_ns)
    (if result.Workloads.Workload.completed then "" else "  [INCOMPLETE]");
  if verbose then print_counters sys;
  finish_observability sys ~trace_close ~output;
  if result.Workloads.Workload.completed then 0 else 1

(* ---- fault command: a one-plan experiment ---- *)

let run_fault kind shape node victim at_ms cascade_node oracle link_from
    drop_pct dup_pct delay_pct dur_ms output =
  with_outputs output @@ fun () ->
  let ncells = Option.value ~default:4 shape.sh_cells in
  let nodes =
    Option.value shape.sh_nodes
      ~default:Flash.Config.default.Flash.Config.nodes
  in
  if ncells < 1 || ncells > nodes || nodes mod ncells <> 0 then begin
    Printf.eprintf "fault: %d cells must evenly divide %d nodes\n" ncells
      nodes;
    2
  end
  else begin
    let at_ns = Int64.of_int (at_ms * 1_000_000) in
    let mode = Hive.System.Random_address in
    let faults =
      match kind with
      | "node" ->
        Faultinj.Campaign.Node_failure { node; at_ns }
        :: (match cascade_node with
           | None -> []
           | Some second ->
             (* Fail a second node while the first failure's recovery
                round is in flight (between the two global barriers). *)
             [ Faultinj.Campaign.Node_failure_mid_recovery
                 { node = second; at_ns } ])
      | "corrupt-map" ->
        [ Faultinj.Campaign.Corrupt_map { victim_cell = victim; at_ns; mode } ]
      | "corrupt-cow" ->
        [ Faultinj.Campaign.Corrupt_cow { victim_cell = victim; at_ns; mode } ]
      | "link" ->
        (* Degrade the interconnect into --node for --dur-ms: drops,
           duplicates and delays per the given percentages. The kernels
           must ride it out with retransmission and reply caching. *)
        [ Faultinj.Campaign.Link_degrade
            {
              deg_from = link_from;
              deg_to = node;
              at_ns;
              dur_ns = Int64.of_int (dur_ms * 1_000_000);
              drop_pct;
              dup_pct;
              delay_pct;
              max_delay_ns = 2_000_000L;
              salt = 0x51EED5A17L;
            } ]
      | other -> failwith ("unknown fault kind: " ^ other)
    in
    let plan =
      {
        (Faultinj.Fuzz.paper_plan Faultinj.Fuzz.Pmake faults) with
        Faultinj.Fuzz.ncells;
        nodes_per_cell = nodes / ncells;
        wax = false;
        oracle;
        smp = shape.sh_smp;
        import_cache = not shape.sh_no_import_cache;
      }
    in
    let r =
      Faultinj.Fuzz.run_plan ?trace_out:output.out_trace
        ?metrics_out:output.out_metrics ~snapshot:true plan
    in
    List.iter (Printf.printf "injected: %s\n") r.Faultinj.Fuzz.r_injected;
    Printf.printf "pmake with %s fault: %s, run ended at %.3f s simulated\n"
      kind
      (if r.Faultinj.Fuzz.r_completed then "driver completed"
       else "driver died")
      (Int64.to_float r.Faultinj.Fuzz.r_sim_ns /. 1e9);
    (match r.Faultinj.Fuzz.r_detect_ms with
    | Some ms -> Printf.printf "detection latency: %.1f ms\n" ms
    | None -> Printf.printf "no recovery round recorded\n");
    Option.iter
      (Printf.printf "recovery latency: %.1f ms\n")
      r.Faultinj.Fuzz.r_recovery_ms;
    let m = Option.get r.Faultinj.Fuzz.r_metrics in
    Printf.printf "recovery round restarts: %d\n"
      r.Faultinj.Fuzz.r_round_restarts;
    Printf.printf "cells reintegrated: %d\n" r.Faultinj.Fuzz.r_reintegrations;
    Printf.printf "live cells: [%s]\n"
      (String.concat "; "
         (List.map string_of_int r.Faultinj.Fuzz.r_survivors));
    if kind = "link" then begin
      let per name =
        List.fold_left
          (fun acc (c : Hive.Metrics.Snapshot.cell) ->
            acc + Option.value ~default:0 (List.assoc_opt name c.counters))
          0 m.Hive.Metrics.Snapshot.cells
      in
      let sips = m.Hive.Metrics.Snapshot.sips in
      Printf.printf
        "sips damage: %d dropped, %d duplicated, %d delayed (of %d sends)\n"
        sips.drops sips.dups sips.delays sips.sends;
      Printf.printf
        "rpc transport: %d retransmits, %d duplicates suppressed, %d stale \
         drops, %d late replies\n"
        (per "rpc.retransmits") (per "rpc.dup_suppressed")
        (per "rpc.stale_reply_drops" + per "rpc.stale_request_drops")
        (per "rpc.late_replies")
    end;
    List.iter (Printf.printf "violation: %s\n")
      r.Faultinj.Fuzz.r_violations;
    Printf.printf "invariants: %s\n"
      (if Faultinj.Fuzz.failed r then "VIOLATED" else "clean");
    let landed = List.length r.Faultinj.Fuzz.r_injected in
    if landed < List.length faults then
      Printf.printf "faults landed: %d of %d\n" landed (List.length faults);
    Printf.printf "contained: %s\n"
      (if r.Faultinj.Fuzz.r_contained then "yes" else "NO");
    Hive.Metrics.print_summary m;
    if Faultinj.Fuzz.passed plan r then 0 else 1
  end

(* ---- fuzz command ---- *)

let run_fuzz seeds seed_base replay shrink_flag out demo_bug dup_bug
    split_brain jobs output =
  with_outputs ~also:(Option.to_list out) output @@ fun () ->
  let out_chan = Option.map open_out out in
  let emit r =
    match out_chan with
    | Some oc -> output_string oc (Faultinj.Fuzz.record_to_json r ^ "\n")
    | None -> ()
  in
  (* Emission and failure post-mortems always run on the main domain, in
     seed order; workers only compute records. With [--jobs n] the
     output (stdout and the JSONL file) is therefore byte-identical to a
     serial run. *)
  let report ~traced seed r =
    emit r;
    if Faultinj.Fuzz.failed r then begin
      let plan = Faultinj.Fuzz.plan_of_seed seed in
      Printf.printf "FAIL %s\n" (Faultinj.Fuzz.record_to_json r);
      (* Replay the failing seed with a Chrome trace for post-mortem
         (unless this run already wrote one). *)
      if not traced then begin
        let trace = Printf.sprintf "fuzz-fail-0x%Lx.trace.json" seed in
        ignore
          (Faultinj.Fuzz.run_plan ~demo_bug ~dup_bug ~split_brain
             ~trace_out:trace plan);
        Printf.printf "  trace written to %s\n" trace
      end;
      if shrink_flag then begin
        let p', r' =
          Faultinj.Fuzz.shrink ~demo_bug ~dup_bug ~split_brain plan
        in
        Printf.printf "  shrunk to: %s\n" (Faultinj.Fuzz.describe_plan p');
        Printf.printf "  %s\n" (Faultinj.Fuzz.record_to_json r')
      end;
      false
    end
    else begin
      Printf.printf "ok   seed=0x%Lx sim=%.2fs injected=%d survivors=[%s]\n"
        seed
        (Int64.to_float r.Faultinj.Fuzz.r_sim_ns /. 1e9)
        (List.length r.Faultinj.Fuzz.r_injected)
        (String.concat ";"
           (List.map string_of_int r.Faultinj.Fuzz.r_survivors));
      true
    end
  in
  let ok =
    match replay with
    | Some seed ->
      let r =
        Faultinj.Fuzz.run_plan ~demo_bug ~dup_bug ~split_brain
          ?trace_out:output.out_trace ?metrics_out:output.out_metrics
          (Faultinj.Fuzz.plan_of_seed seed)
      in
      report ~traced:(output.out_trace <> None) seed r
    | None ->
      let failures = ref 0 in
      let seed_list =
        Array.init seeds (fun i -> Int64.add seed_base (Int64.of_int i))
      in
      Faultinj.Campaign.run_parallel ~jobs ~seeds:seed_list
        ~run:(fun seed ->
          Faultinj.Fuzz.run_plan ~demo_bug ~dup_bug ~split_brain
            (Faultinj.Fuzz.plan_of_seed seed))
        ~on_record:(fun seed r ->
          if not (report ~traced:false seed r) then incr failures);
      Printf.printf "fuzz: %d seed(s), %d failure(s)\n" seeds !failures;
      !failures = 0
  in
  Option.iter close_out out_chan;
  if ok then 0 else 1

(* ---- cmdliner terms ---- *)

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Print kernel counters, and recovery and process events on stderr.")

let workload_name =
  Arg.(
    required
    & pos 0 (some (enum [ ("pmake", "pmake"); ("ocean", "ocean"); ("raytrace", "raytrace") ])) None
    & info [] ~docv:"WORKLOAD" ~doc:"pmake, ocean or raytrace.")

let workload_cmd =
  Cmd.v
    (Cmd.info "workload" ~doc:"Run one workload on a chosen configuration.")
    Term.(
      const run_workload $ workload_name $ shape_term $ verbose_arg
      $ output_term)

let fault_kind =
  Arg.(
    required
    & pos 0
        (some
           (enum
              [ ("node", "node"); ("corrupt-cow", "corrupt-cow");
                ("corrupt-map", "corrupt-map"); ("link", "link") ]))
        None
    & info [] ~docv:"KIND" ~doc:"node, corrupt-cow, corrupt-map or link.")

let node_arg =
  Arg.(
    value & opt int 2
    & info [ "node" ] ~docv:"N"
        ~doc:"Node to fail (or the degraded link's destination node).")

let link_from_arg =
  Arg.(
    value & opt int (-1)
    & info [ "link-from" ] ~docv:"PROC"
        ~doc:
          "With the link fault kind: source processor of the degraded \
           link (-1 = any).")

let drop_pct_arg =
  Arg.(
    value & opt int 30
    & info [ "drop-pct" ] ~docv:"PCT"
        ~doc:"Link fault: percentage of messages dropped.")

let dup_pct_arg =
  Arg.(
    value & opt int 20
    & info [ "dup-pct" ] ~docv:"PCT"
        ~doc:"Link fault: percentage of messages duplicated.")

let delay_pct_arg =
  Arg.(
    value & opt int 20
    & info [ "delay-pct" ] ~docv:"PCT"
        ~doc:"Link fault: percentage of messages delayed (up to 2 ms).")

let dur_ms_arg =
  Arg.(
    value & opt int 300
    & info [ "dur-ms" ] ~docv:"MS"
        ~doc:"Link fault: window duration in milliseconds.")

let victim_arg =
  Arg.(
    value & opt int 1
    & info [ "victim" ] ~docv:"CELL" ~doc:"Cell to corrupt.")

let at_ms_arg =
  Arg.(
    value & opt int 300
    & info [ "at-ms" ] ~docv:"MS" ~doc:"Injection time in milliseconds.")

let cascade_node_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cascade-node" ] ~docv:"N"
        ~doc:
          "With the node fault kind: fail a second node while the first \
           failure's recovery round is in flight, forcing a round restart \
           with the enlarged dead set.")

let oracle_arg =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:"Use the failure oracle instead of distributed agreement.")

let fault_cmd =
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Inject a fault during pmake and report containment. The run is \
          one plan judged by the fuzzer's oracle (quiesce, a post-fault \
          check run, RPC drain and the invariant sweep); the exit status \
          is its verdict. --at-ms counts from the end of pmake setup.")
    Term.(
      const run_fault $ fault_kind $ shape_term $ node_arg $ victim_arg
      $ at_ms_arg $ cascade_node_arg $ oracle_arg $ link_from_arg
      $ drop_pct_arg $ dup_pct_arg $ delay_pct_arg $ dur_ms_arg
      $ output_term)

let seeds_arg =
  Arg.(
    value & opt int 25
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of consecutive seeds to run.")

let seed_base_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed-base" ] ~docv:"SEED"
        ~doc:"First seed of the sweep (decimal or 0x hex).")

let replay_arg =
  Arg.(
    value
    & opt (some int64) None
    & info [ "replay" ] ~docv:"SEED"
        ~doc:"Replay a single seed instead of sweeping.")

let shrink_arg =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:"Shrink failing seeds to a minimal reproducer plan.")

let fuzz_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Append one JSON record per seed to FILE (JSON Lines).")

let demo_bug_arg =
  Arg.(
    value & flag
    & info [ "demo-bug" ]
        ~doc:
          "(testing) Plant a deliberate containment bug — a firewall grant \
           the kernel never recorded — to prove the checkers catch it.")

let dup_bug_arg =
  Arg.(
    value & flag
    & info [ "demo-dup-bug" ]
        ~doc:
          "(testing) Plant a deliberate transport bug — reply-cache \
           suppression disabled under a duplication-heavy degradation \
           window — to prove the at-most-once checker catches duplicate \
           execution.")

let split_brain_arg =
  Arg.(
    value & flag
    & info [ "demo-split-brain" ]
        ~doc:
          "(testing) Plant a deliberate agreement bug — the quorum check \
           disabled while cell 0 is severed from the rest of the machine \
           — to prove the latched single-master oracle catches the \
           resulting concurrent recovery masters.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the seed sweep across N domains (work-stealing; each \
           worker owns a private single-threaded simulation engine). \
           Output is byte-identical to --jobs 1 for any N.")

let duration_ms_arg =
  Arg.(
    value & opt int 3000
    & info [ "duration-ms" ] ~docv:"MS"
        ~doc:"Traffic duration in simulated milliseconds.")

let rate_arg =
  Arg.(
    value & opt float 80.
    & info [ "rate" ] ~docv:"RPS"
        ~doc:"System-wide open-loop arrival rate (requests/s).")

let zipf_arg =
  Arg.(
    value & opt float 1.1
    & info [ "zipf" ] ~docv:"S"
        ~doc:"Zipf exponent for file popularity.")

let churn_pct_arg =
  Arg.(
    value & opt int 10
    & info [ "churn-pct" ] ~docv:"PCT"
        ~doc:"Percent of arrivals that are fork/exit churn requests.")

let deadline_ms_arg =
  Arg.(
    value & opt int 250
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"End-to-end client deadline budget per request.")

let kill_cell_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-cell" ] ~docv:"CELL"
        ~doc:"Fail-stop CELL mid-traffic to measure serving through failure.")

let kill_at_ms_arg =
  Arg.(
    value & opt int 1000
    & info [ "kill-at-ms" ] ~docv:"MS"
        ~doc:"When to kill the cell (simulated ms from traffic start).")

let traffic_seed_arg =
  Arg.(
    value & opt int64 0x5EEDL
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"PRNG seed for arrivals, popularity and churn draws.")

let server_cmd =
  Cmd.v
    (Cmd.info "server"
       ~doc:
         "Interactive time-sharing traffic served through failure: \
          open-loop Poisson arrivals with Zipf file popularity and \
          fork/exit churn, deadline-budgeted client retries, per-cell \
          admission control, and per-phase tail latency (before / during \
          / after an optional cell kill).")
    Term.(
      const run_server $ shape_term $ duration_ms_arg $ rate_arg $ zipf_arg
      $ churn_pct_arg $ deadline_ms_arg $ kill_cell_arg $ kill_at_ms_arg
      $ traffic_seed_arg $ verbose_arg $ output_term)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Deterministic fault-campaign fuzzing: each seed derives a machine \
          shape, workload, scheduler jitter and fault schedule; system-wide \
          invariants are checked at end of run. Failing seeds replay \
          bit-for-bit and can be shrunk. With --replay, --trace-out and \
          --metrics-json capture that run's artifacts.")
    Term.(
      const run_fuzz $ seeds_arg $ seed_base_arg $ replay_arg $ shrink_arg
      $ fuzz_out_arg $ demo_bug_arg $ dup_bug_arg $ split_brain_arg
      $ jobs_arg $ output_term)

let main =
  Cmd.group
    (Cmd.info "hive_sim" ~version:"1.0"
       ~doc:"Simulated Hive multicellular OS on a FLASH machine model.")
    [ workload_cmd; server_cmd; fault_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' main)
