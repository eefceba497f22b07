(* Bench subsystem tests: typed metrics snapshot round-trip, the nan
   guard on ratio metrics, sweep determinism, and the regression gate. *)

open Bench

let boot_2cell () =
  let eng = Sim.Engine.create () in
  (eng, Hive.System.boot ~ncells:2 ~wax:false eng)

(* Boot a 2-cell system and drive some RPC + sharing traffic so the
   snapshot has non-trivial histograms, counters and a cache hit rate. *)
let driven_system () =
  let eng, sys = boot_2cell () in
  Harness.register_bench_ops ();
  ignore (Harness.avg_rpc_us eng sys ~op:Harness.noop_op ~arg_bytes:16 ~n:50);
  let npages = 8 in
  let path = Harness.make_warm_file sys ~npages in
  let touch_pass () =
    let p =
      Hive.Process.spawn sys sys.Hive.Types.cells.(1) ~name:"reader"
        (fun sys p ->
          let fd = Hive.Syscall.openf sys p path in
          let r = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:false in
          for k = 0 to npages - 1 do
            Hive.Syscall.touch sys p ~vpage:(r.Hive.Types.start_page + k)
              ~write:false
          done)
    in
    ignore
      (Hive.System.run_until_processes_done sys
         ~deadline:(Int64.add (Sim.Engine.now eng) 60_000_000_000L)
         [ p ]);
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng
  in
  touch_pass ();
  touch_pass ();
  sys

let test_snapshot_roundtrip () =
  let sys = driven_system () in
  let snap = Hive.Metrics.capture sys in
  (match snap.Hive.Metrics.Snapshot.cache_hit_rate with
  | Some r -> Alcotest.(check bool) "hit rate in [0,1]" true (r >= 0. && r <= 1.)
  | None -> Alcotest.fail "driven system should have a cache hit rate");
  Alcotest.(check bool) "client histograms present" true
    (snap.Hive.Metrics.Snapshot.rpc_client <> []);
  let s = Hive.Metrics.Snapshot.to_string snap in
  match Hive.Metrics.Snapshot.of_string s with
  | Error e -> Alcotest.failf "of_string failed: %s" e
  | Ok snap' ->
    Alcotest.(check bool) "snapshot round-trips structurally equal" true
      (snap = snap');
    (* And the re-serialization is byte-identical. *)
    Alcotest.(check string) "re-serialization is byte-identical" s
      (Hive.Metrics.Snapshot.to_string snap')

let test_hit_rate_nan_guard () =
  (* An idle system has zero lookups: the ratio must be absent, never
     0/0 = nan. *)
  let _eng, sys = boot_2cell () in
  Alcotest.(check bool) "idle hit rate is None" true
    (Hive.Metrics.cache_hit_rate sys = None);
  let snap = Hive.Metrics.capture sys in
  Alcotest.(check bool) "snapshot hit rate is None" true
    (snap.Hive.Metrics.Snapshot.cache_hit_rate = None);
  let s = Hive.Metrics.to_json sys in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "JSON has no nan" false (contains s "nan");
  Alcotest.(check bool) "JSON omits cache_hit_rate" false
    (contains s "cache_hit_rate");
  match Hive.Metrics.Snapshot.of_string s with
  | Error e -> Alcotest.failf "idle snapshot does not parse: %s" e
  | Ok snap' ->
    Alcotest.(check bool) "idle snapshot round-trips" true (snap = snap')

(* The cheapest real grid row, used for the determinism and gate tests. *)
let quick_rpc_reports () =
  Scenarios.register ();
  Sweep.run ~areas:[ "rpc" ] ~quick:true
    ~dims_filter:(fun d -> d.Scenario.link_ms = 0)
    ~verbose:false ()

let test_sweep_deterministic () =
  let r1 = quick_rpc_reports () in
  let r2 = quick_rpc_reports () in
  let render rs =
    String.concat "\n"
      (List.map
         (fun r -> Sim.Json.to_string ~pretty:true (Sweep.report_to_json r))
         rs)
  in
  Alcotest.(check bool) "sweep produced rows" true
    (List.exists (fun r -> r.Sweep.a_rows <> []) r1);
  Alcotest.(check string) "two sweeps are byte-identical" (render r1)
    (render r2);
  (* And the report itself survives a JSON round trip. *)
  List.iter
    (fun r ->
      match Sweep.report_of_json (Sweep.report_to_json r) with
      | Error e -> Alcotest.failf "report round-trip failed: %s" e
      | Ok r' -> Alcotest.(check bool) "report equal" true (r = r'))
    r1;
  (* A paper reference value is written only where it is set, and read
     back. *)
  let with_paper =
    {
      Sweep.a_area = "t";
      a_rows =
        [
          {
            Sweep.r_scenario = "pagefault";
            r_dims = Scenario.default_dims;
            r_metrics =
              [ Scenario.metric ~paper:50.7 "remote_us" 51.9;
                Scenario.metric "local_us" 6.9 ];
          };
        ];
    }
  in
  let text = Sim.Json.to_string (Sweep.report_to_json with_paper) in
  let occurrences needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length text then acc
      else go (i + 1) (if String.sub text i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "paper written only where set" 1
    (occurrences "\"paper\"");
  match Result.bind (Sim.Json.of_string text) Sweep.report_of_json with
  | Error e -> Alcotest.failf "paper report round-trip failed: %s" e
  | Ok r -> Alcotest.(check bool) "paper value read back" true (r = with_paper)

let scale_lower_better factor (reports : Sweep.report list) =
  List.map
    (fun (r : Sweep.report) ->
      {
        r with
        Sweep.a_rows =
          List.map
            (fun (row : Sweep.row) ->
              {
                row with
                Sweep.r_metrics =
                  List.map
                    (fun (m : Scenario.metric) ->
                      if m.Scenario.m_dir = Scenario.Lower_better then
                        { m with Scenario.m_value = m.Scenario.m_value *. factor }
                      else m)
                    row.Sweep.r_metrics;
              })
            r.Sweep.a_rows;
      })
    reports

let test_diff_gate () =
  let baseline = quick_rpc_reports () in
  (* Unchanged re-run: clean. *)
  let v = Diff.compare_reports ~baseline ~fresh:baseline () in
  Alcotest.(check int) "identical sweep has no regressions" 0
    (List.length v.Diff.regressions);
  Alcotest.(check bool) "metrics were compared" true (v.Diff.compared > 0);
  (* Planted 2x slowdown on every lower-is-better metric: flagged. *)
  let slow = scale_lower_better 2.0 baseline in
  let v = Diff.compare_reports ~baseline ~fresh:slow () in
  Alcotest.(check bool) "2x slowdown is flagged" true
    (v.Diff.regressions <> []);
  List.iter
    (fun (f : Diff.finding) ->
      Alcotest.(check (float 1e-6)) "change is +100%" 100. f.Diff.f_change_pct)
    v.Diff.regressions;
  (* The same movement in the other direction is an improvement. *)
  let fast = scale_lower_better 0.5 baseline in
  let v = Diff.compare_reports ~baseline ~fresh:fast () in
  Alcotest.(check int) "2x speedup is not a regression" 0
    (List.length v.Diff.regressions);
  Alcotest.(check bool) "2x speedup is an improvement" true
    (v.Diff.improvements <> [])

let test_diff_orientation () =
  let mk name dir value =
    {
      Sweep.a_area = "t";
      a_rows =
        [
          {
            Sweep.r_scenario = name;
            r_dims = Scenario.default_dims;
            r_metrics = [ Scenario.metric ~dir name value ];
          };
        ];
    }
  in
  (* Higher-better dropping is a regression; Info never is. *)
  let v =
    Diff.compare_reports
      ~baseline:[ mk "done" Scenario.Higher_better 100. ]
      ~fresh:[ mk "done" Scenario.Higher_better 50. ]
      ()
  in
  Alcotest.(check int) "higher-better drop flagged" 1
    (List.length v.Diff.regressions);
  let v =
    Diff.compare_reports
      ~baseline:[ mk "ctx" Scenario.Info 100. ]
      ~fresh:[ mk "ctx" Scenario.Info 5000. ]
      ()
  in
  Alcotest.(check int) "info metrics never gate" 0
    (List.length v.Diff.regressions);
  (* A quick CI sweep covering a subset of the committed trajectory only
     produces notes for the uncovered rows, not failures. *)
  let base = [ mk "a" Scenario.Lower_better 1.; mk "b" Scenario.Lower_better 1. ] in
  let v =
    Diff.compare_reports ~baseline:base
      ~fresh:[ mk "a" Scenario.Lower_better 1. ]
      ()
  in
  Alcotest.(check int) "subset sweep is clean" 0
    (List.length v.Diff.regressions);
  Alcotest.(check bool) "uncovered rows are noted" true (v.Diff.notes <> [])

let test_scenario_registry () =
  Scenarios.register ();
  Scenarios.register ();
  (* Idempotent registration, and quick grids are subsets of full grids. *)
  let scenarios = Scenario.all () in
  Alcotest.(check bool) "scenarios registered" true (List.length scenarios >= 5);
  List.iter
    (fun (s : Scenario.t) ->
      List.iter
        (fun q ->
          Alcotest.(check bool)
            (s.Scenario.sc_name ^ ": quick point is in the full grid")
            true
            (List.mem q s.Scenario.sc_dims))
        s.Scenario.sc_quick)
    scenarios;
  Alcotest.check_raises "duplicate declaration rejected"
    (Invalid_argument "Scenario.declare: duplicate null-rpc")
    (fun () ->
      ignore
        (Scenario.declare ~name:"null-rpc" ~area:"rpc"
           ~dims:[ Scenario.default_dims ] (fun _ -> [])))

let suite =
  [
    Alcotest.test_case "metrics snapshot JSON round-trips" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "cache hit rate never emits nan" `Quick
      test_hit_rate_nan_guard;
    Alcotest.test_case "sweep output is deterministic" `Slow
      test_sweep_deterministic;
    Alcotest.test_case "diff flags a planted 2x slowdown" `Slow
      test_diff_gate;
    Alcotest.test_case "diff respects metric direction" `Quick
      test_diff_orientation;
    Alcotest.test_case "scenario registry invariants" `Quick
      test_scenario_registry;
  ]
