(* Workload correctness: each model completes on the real (default)
   machine and produces exactly its reference outputs; fault-injection
   campaigns contain their faults. These run on the full 4-node machine,
   so they are the slowest tests in the suite. *)

let small_pmake =
  {
    Workloads.Pmake.default with
    Workloads.Pmake.files = 5;
    cpp_ns = 20_000_000L;
    cc1_ns = 60_000_000L;
    as_ns = 20_000_000L;
    link_ns = 20_000_000L;
    anon_pages = 40;
    include_searches = 40;
  }

let small_ocean =
  {
    Workloads.Ocean.default with
    Workloads.Ocean.chunk_pages = 64;
    steps = 3;
    step_compute_ns = 50_000_000L;
    init_compute_ns = 20_000_000L;
  }

let small_ray =
  {
    Workloads.Raytrace.default with
    Workloads.Raytrace.scene_pages = 64;
    tile_pages = 16;
    compute_ns = 200_000_000L;
    build_ns = 20_000_000L;
  }

let boot () =
  let eng = Sim.Engine.create () in
  Hive.System.boot ~ncells:4 ~wax:false eng

let check_all_match name verify =
  List.iter
    (fun (path, v) ->
      Alcotest.(check string)
        (Printf.sprintf "%s output %s" name path)
        "match"
        (Workloads.Workload.verify_outcome_to_string v))
    verify

let test_pmake_completes_and_verifies () =
  let sys = boot () in
  Workloads.Pmake.setup sys small_pmake;
  let result, _ = Workloads.Pmake.run ~cfg:small_pmake sys in
  Alcotest.(check bool) "completed" true result.Workloads.Workload.completed;
  check_all_match "pmake" (Workloads.Pmake.verify ~cfg:small_pmake sys)

let test_ocean_completes_and_verifies () =
  let sys = boot () in
  Workloads.Ocean.setup sys small_ocean;
  let result, _ = Workloads.Ocean.run ~cfg:small_ocean sys in
  Alcotest.(check bool) "completed" true result.Workloads.Workload.completed;
  check_all_match "ocean" (Workloads.Ocean.verify ~cfg:small_ocean sys)

let test_raytrace_completes_and_verifies () =
  let sys = boot () in
  let result, _ = Workloads.Raytrace.run ~cfg:small_ray sys in
  Alcotest.(check bool) "completed" true result.Workloads.Workload.completed;
  check_all_match "raytrace" (Workloads.Raytrace.verify ~cfg:small_ray sys)

let test_pmake_deterministic () =
  (* Two separately-booted systems produce identical outputs and identical
     simulated completion times: the whole stack is deterministic. *)
  let run () =
    let sys = boot () in
    Workloads.Pmake.setup sys small_pmake;
    let result, _ = Workloads.Pmake.run ~cfg:small_pmake sys in
    (result.Workloads.Workload.elapsed_ns,
     Workloads.Workload.stable_content sys "/tmp/chess0.o")
  in
  let t1, o1 = run () in
  let t2, o2 = run () in
  Alcotest.(check int64) "same simulated duration" t1 t2;
  Alcotest.(check bool) "same outputs" true (o1 = o2)

let test_raytrace_detects_scene_corruption () =
  (* If a wild write silently corrupted the scene, the output checksum
     would differ from the reference: verify the oracle notices. *)
  let sys = boot () in
  let eng = sys.Hive.Types.eng in
  (* Corrupt one scene page mid-run by granting ourselves access. *)
  ignore
    (Sim.Engine.spawn eng ~name:"corruptor" (fun () ->
         Sim.Engine.delay 50_000_000L;
         (* Find an anon frame of the driver and scribble on it. *)
         match Hashtbl.fold (fun _ p acc -> p :: acc) sys.Hive.Types.proc_table [] with
         | [] -> ()
         | procs ->
           List.iter
             (fun (p : Hive.Types.process) ->
               Hashtbl.iter
                 (fun _ (m : Hive.Types.mapping) ->
                   match m.Hive.Types.map_lid.Hive.Types.tag with
                   | Hive.Types.Anon_obj _ ->
                     let addr =
                       Flash.Addr.addr_of_pfn sys.Hive.Types.mcfg
                         m.Hive.Types.map_pf.Hive.Types.pfn
                     in
                     Flash.Memory.poke
                       (Flash.Machine.memory sys.Hive.Types.machine)
                       addr (Bytes.make 8 '\xEE')
                   | _ -> ())
                 p.Hive.Types.mappings)
             procs));
  ignore (Workloads.Raytrace.run ~cfg:small_ray sys);
  let any_mismatch =
    List.exists
      (fun (_, v) -> v <> Workloads.Workload.Match)
      (Workloads.Raytrace.verify ~cfg:small_ray sys)
  in
  Alcotest.(check bool) "corruption detected by verifier" true any_mismatch

(* Table 7.4-style experiments: one paper-size plan through the same
   runner and oracle as a fuzz seed. A test passes when its faults landed,
   the oracle found nothing and only the victims went down. *)
let run_campaign ~seed workload faults =
  let plan = Faultinj.Fuzz.paper_plan ~seed workload faults in
  let r = Faultinj.Fuzz.run_plan plan in
  (r, Faultinj.Fuzz.passed plan r)

let has_violation (r : Faultinj.Fuzz.record) inv =
  List.exists
    (fun v -> String.starts_with ~prefix:(inv ^ ":") v)
    r.Faultinj.Fuzz.r_violations

let test_campaign_node_failure_contained () =
  let r, passed =
    run_campaign ~seed:9L Faultinj.Fuzz.Pmake
      [ Faultinj.Campaign.Node_failure { node = 2; at_ns = 100_000_000L } ]
  in
  Alcotest.(check bool) "passed" true passed;
  (match r.Faultinj.Fuzz.r_detect_ms with
  | Some d -> Alcotest.(check bool) "detection < 100ms" true (d < 100.)
  | None -> Alcotest.fail "no detection");
  (* The recovery master repairs and reboots the failed cell after
     diagnostics, so all four cells are live again by the end. *)
  Alcotest.(check (list int)) "all cells live after reintegration"
    [ 0; 1; 2; 3 ]
    (List.sort compare r.Faultinj.Fuzz.r_survivors)

let test_campaign_cascade_contained () =
  (* Second node killed while the first failure's recovery round is in
     flight: no deadlock, the survivors finish the restarted round, the
     fault stays contained, and the master reintegrates both victims. *)
  let r, passed =
    run_campaign ~seed:21L Faultinj.Fuzz.Pmake
      [ Faultinj.Campaign.Node_failure { node = 2; at_ns = 100_000_000L };
        Faultinj.Campaign.Node_failure_mid_recovery
          { node = 1; at_ns = 100_000_000L } ]
  in
  Alcotest.(check bool) "no deadlock" false
    (has_violation r "deadlock" || has_violation r "quiesce");
  Alcotest.(check bool) "round restarted" true
    (r.Faultinj.Fuzz.r_round_restarts >= 1);
  Alcotest.(check bool) "contained" true r.Faultinj.Fuzz.r_contained;
  Alcotest.(check bool) "both victims reintegrated" true
    (r.Faultinj.Fuzz.r_reintegrations >= 2
    && List.mem 1 r.Faultinj.Fuzz.r_survivors
    && List.mem 2 r.Faultinj.Fuzz.r_survivors);
  Alcotest.(check bool) "check run passed" false (has_violation r "check-run");
  Alcotest.(check bool) "passed overall" true passed

let test_campaign_cow_corruption_contained () =
  let r, passed =
    run_campaign ~seed:11L Faultinj.Fuzz.Raytrace
      [ Faultinj.Campaign.Corrupt_cow
          {
            victim_cell = 1;
            at_ns = 400_000_000L;
            mode = Hive.System.Random_address;
          } ]
  in
  Alcotest.(check bool) "passed" true passed;
  Alcotest.(check (list string)) "victim identified"
    [ "corrupt COW tree on cell 1 @ 400ms -> cell 1" ]
    r.Faultinj.Fuzz.r_injected

let test_campaign_map_corruption_contained () =
  let _, passed =
    run_campaign ~seed:13L Faultinj.Fuzz.Pmake
      [ Faultinj.Campaign.Corrupt_map
          {
            victim_cell = 2;
            at_ns = 200_000_000L;
            mode = Hive.System.Self_pointer;
          } ]
  in
  Alcotest.(check bool) "passed" true passed

(* The Table 7.4 plan lists: 69 plans in full mode (14 sampled in quick
   mode), the paper's five campaigns with their workloads, fault kinds and
   victims (cells 1, 2, 3 in turn; cell 0 hosts the drivers). *)
let test_table_7_4_plans () =
  let kind = function
    | Faultinj.Campaign.Node_failure { node; _ } -> ("node", node)
    | Faultinj.Campaign.Corrupt_map { victim_cell; _ } -> ("map", victim_cell)
    | Faultinj.Campaign.Corrupt_cow { victim_cell; _ } -> ("cow", victim_cell)
    | _ -> ("other", -1)
  in
  let expected =
    [ (Faultinj.Fuzz.Pmake, "node", 20, 4);
      (Faultinj.Fuzz.Raytrace, "node", 9, 2);
      (Faultinj.Fuzz.Pmake, "node", 20, 4);
      (Faultinj.Fuzz.Pmake, "map", 8, 2);
      (Faultinj.Fuzz.Raytrace, "cow", 12, 2) ]
  in
  List.iter
    (fun full ->
      let rows = Bench.Scenarios.table_7_4_plans ~full in
      Alcotest.(check int) "plans" (if full then 69 else 14)
        (List.fold_left (fun n (_, ps) -> n + List.length ps) 0 rows);
      List.iter2
        (fun (label, plans) (workload, k, n_full, n_quick) ->
          Alcotest.(check int) (label ^ ": tests")
            (if full then n_full else n_quick)
            (List.length plans);
          List.iteri
            (fun i (p : Faultinj.Fuzz.plan) ->
              Alcotest.(check bool) (label ^ ": paper-size workload") true
                (p.Faultinj.Fuzz.workload = workload
                && p.Faultinj.Fuzz.sizing = Faultinj.Fuzz.Paper
                && p.Faultinj.Fuzz.ncells = 4);
              Alcotest.(check (list (pair string int)))
                (label ^ ": fault and victim")
                [ (k, 1 + (i mod 3)) ]
                (List.map kind p.Faultinj.Fuzz.faults))
            plans)
        rows expected)
    [ true; false ]

let suite =
  [
    Alcotest.test_case "pmake completes and verifies" `Slow
      test_pmake_completes_and_verifies;
    Alcotest.test_case "ocean completes and verifies" `Slow
      test_ocean_completes_and_verifies;
    Alcotest.test_case "raytrace completes and verifies" `Slow
      test_raytrace_completes_and_verifies;
    Alcotest.test_case "pmake is deterministic" `Slow test_pmake_deterministic;
    Alcotest.test_case "verifier detects real scene corruption" `Slow
      test_raytrace_detects_scene_corruption;
    Alcotest.test_case "campaign: node failure contained" `Slow
      test_campaign_node_failure_contained;
    Alcotest.test_case "campaign: double failure contained" `Slow
      test_campaign_cascade_contained;
    Alcotest.test_case "campaign: COW corruption contained" `Slow
      test_campaign_cow_corruption_contained;
    Alcotest.test_case "campaign: map corruption contained" `Slow
      test_campaign_map_corruption_contained;
    Alcotest.test_case "Table 7.4 plan lists" `Quick test_table_7_4_plans;
  ]
