(* Bench subsystem tests: the metrics snapshot JSON, the nan guard on
   ratio metrics, sweep determinism, and the exact trajectory gate. *)

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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A field of the emitted JSON by path, parsed with the plain JSON
   reader. *)
let json_path j path =
  List.fold_left (fun j k -> Option.bind j (Sim.Json.member k)) (Some j) path

let test_snapshot_json () =
  let sys = driven_system () in
  let snap = Hive.Metrics.capture sys in
  let rate =
    match snap.Hive.Metrics.Snapshot.cache_hit_rate with
    | Some r -> r
    | None -> Alcotest.fail "driven system should have a cache hit rate"
  in
  Alcotest.(check bool) "hit rate in [0,1]" true (rate >= 0. && rate <= 1.);
  let op, h =
    match snap.Hive.Metrics.Snapshot.rpc_client with
    | first :: _ -> first
    | [] -> Alcotest.fail "client histograms missing"
  in
  let s = Hive.Metrics.Snapshot.to_string snap in
  match Sim.Json.of_string s with
  | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e
  | Ok j ->
    let num path =
      match Option.bind (json_path j path) Sim.Json.to_float_opt with
      | Some v -> v
      | None -> Alcotest.failf "no number at %s" (String.concat "." path)
    in
    Alcotest.(check (float 0.)) "cache_hit_rate written" rate
      (num [ "cache_hit_rate" ]);
    Alcotest.(check (float 0.)) "client p99_ns written"
      h.Hive.Metrics.Snapshot.p99_ns
      (num [ "rpc"; "client"; op; "p99_ns" ]);
    Alcotest.(check (float 0.)) "client count written"
      (float_of_int h.Hive.Metrics.Snapshot.count)
      (num [ "rpc"; "client"; op; "count" ]);
    Alcotest.(check (float 0.)) "sim time written"
      (Int64.to_float snap.Hive.Metrics.Snapshot.sim_time_ns)
      (num [ "sim_time_ns" ])

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
  Alcotest.(check bool) "JSON has no nan" false (contains s "nan");
  Alcotest.(check bool) "JSON omits cache_hit_rate" false
    (contains s "cache_hit_rate");
  match Sim.Json.of_string s with
  | Error e -> Alcotest.failf "idle snapshot JSON does not parse: %s" e
  | Ok j ->
    Alcotest.(check bool) "parsed JSON has no cache_hit_rate" true
      (Sim.Json.member "cache_hit_rate" j = None)

(* The cheapest real grid rows, used for the determinism and gate tests. *)
let quick_rpc_reports () =
  Scenarios.register ();
  Sweep.run ~areas:[ "rpc" ] ~quick:true ~verbose:false ()

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

(* Apply [f] to every metric of every row. *)
let map_metrics f (reports : Sweep.report list) =
  List.map
    (fun (r : Sweep.report) ->
      {
        r with
        Sweep.a_rows =
          List.map
            (fun (row : Sweep.row) ->
              { row with Sweep.r_metrics = List.map f row.Sweep.r_metrics })
            r.Sweep.a_rows;
      })
    reports

let scale_lower_better factor =
  map_metrics (fun (m : Scenario.metric) ->
      if m.Scenario.m_dir = Scenario.Lower_better then
        { m with Scenario.m_value = m.Scenario.m_value *. factor }
      else m)

(* Every change is [Changed] and its line carries [needles]. *)
let check_changed what needles (v : Diff.verdict) =
  Alcotest.(check bool) (what ^ " is flagged") true (v.Diff.changes <> []);
  List.iter
    (fun (f : Diff.finding) ->
      (match f.Diff.f_change with
      | Diff.Changed _ -> ()
      | _ -> Alcotest.failf "%s: unexpected %s" what (Diff.describe f));
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S in %S" what n (Diff.describe f))
            true
            (contains (Diff.describe f) n))
        needles)
    v.Diff.changes

let test_diff_gate () =
  let baseline = quick_rpc_reports () in
  (* An identical re-run: clean, every row compared, none skipped. *)
  let v = Diff.compare_reports ~baseline ~fresh:(quick_rpc_reports ()) in
  Alcotest.(check int) "identical re-run has no changes" 0
    (List.length v.Diff.changes);
  Alcotest.(check bool) "rows were compared" true (v.Diff.compared > 0);
  Alcotest.(check int) "no row skipped" 0 v.Diff.skipped;
  (* A 0.15% move of one lower-is-better value is flagged on its own, as
     a worse move. *)
  let planted = ref false in
  let nudged =
    map_metrics
      (fun (m : Scenario.metric) ->
        if !planted || m.Scenario.m_dir <> Scenario.Lower_better then m
        else begin
          planted := true;
          { m with Scenario.m_value = m.Scenario.m_value *. 1.0015 }
        end)
      baseline
  in
  let v = Diff.compare_reports ~baseline ~fresh:nudged in
  Alcotest.(check int) "0.15% move is the one change" 1
    (List.length v.Diff.changes);
  check_changed "0.15% move" [ "+0.15%"; "worse" ] v;
  (* A 2x speed-up is a change too, reported as better. *)
  let v =
    Diff.compare_reports ~baseline ~fresh:(scale_lower_better 0.5 baseline)
  in
  check_changed "2x speed-up" [ "-50%"; "better" ] v;
  (* A --quick sweep against the full grid: the rows it does not run are
     skipped and counted, not flagged. *)
  let full = Sweep.run ~areas:[ "rpc" ] ~verbose:false () in
  let v = Diff.compare_reports ~baseline:full ~fresh:baseline in
  Alcotest.(check int) "quick subset is clean" 0 (List.length v.Diff.changes);
  Alcotest.(check bool) "uncovered rows are counted" true (v.Diff.skipped > 0)

let test_diff_orientation () =
  let report ?(area = "t") rows =
    {
      Sweep.a_area = area;
      a_rows =
        List.map
          (fun (name, metrics) ->
            { Sweep.r_scenario = name; r_dims = Scenario.default_dims;
              r_metrics = metrics })
          rows;
    }
  in
  let one ?area name dir value =
    report ?area [ (name, [ Scenario.metric ~dir name value ]) ]
  in
  let diff baseline fresh =
    Diff.compare_reports ~baseline:[ baseline ] ~fresh:[ fresh ]
  in
  (* Direction decides better or worse. *)
  check_changed "higher-better drop" [ "-50%"; "worse" ]
    (diff (one "done" Scenario.Higher_better 100.)
       (one "done" Scenario.Higher_better 50.));
  check_changed "higher-better rise" [ "+100%"; "better" ]
    (diff (one "done" Scenario.Higher_better 50.)
       (one "done" Scenario.Higher_better 100.));
  (* Info metrics, directions and paper values all count. *)
  check_changed "info move" [ "info" ]
    (diff (one "ctx" Scenario.Info 100.) (one "ctx" Scenario.Info 5000.));
  check_changed "direction flip" [ "better lower -> higher" ]
    (diff (one "x" Scenario.Lower_better 1.)
       (one "x" Scenario.Higher_better 1.));
  check_changed "paper value" [ "paper none -> 2" ]
    (diff
       (report [ ("x", [ Scenario.metric "x" 1. ]) ])
       (report [ ("x", [ Scenario.metric ~paper:2. "x" 1. ]) ]));
  let only what expect (v : Diff.verdict) =
    match v.Diff.changes with
    | [ f ] when expect f.Diff.f_change -> ()
    | _ ->
      Alcotest.failf "%s: got [%s]" what
        (String.concat "; " (List.map Diff.describe v.Diff.changes))
  in
  (* A fresh row with no committed row, in a known area and in an area
     with no committed file. *)
  let lower = Scenario.Lower_better in
  let a_and_b =
    report
      [ ("a", [ Scenario.metric "a" 1. ]); ("b", [ Scenario.metric "b" 1. ]) ]
  in
  only "new row" (( = ) Diff.New_row) (diff (one "a" lower 1.) a_and_b);
  only "new area" (( = ) Diff.New_row)
    (Diff.compare_reports ~baseline:[ one "a" lower 1. ]
       ~fresh:[ one "a" lower 1.; one ~area:"u" "a" lower 1. ]);
  (* Removed and added metrics. *)
  let two =
    report [ ("a", [ Scenario.metric "p50" 1.; Scenario.metric "p99" 2. ]) ]
  in
  let first = report [ ("a", [ Scenario.metric "p50" 1. ]) ] in
  only "removed metric"
    (function Diff.Removed m -> m.Scenario.m_name = "p99" | _ -> false)
    (diff two first);
  only "added metric"
    (function Diff.Added m -> m.Scenario.m_name = "p99" | _ -> false)
    (diff first two);
  (* A subset sweep skips and counts the rows it did not run. *)
  let v = diff a_and_b (one "a" lower 1.) in
  Alcotest.(check int) "subset sweep is clean" 0 (List.length v.Diff.changes);
  Alcotest.(check int) "uncovered row is counted" 1 v.Diff.skipped

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
    Alcotest.test_case "metrics snapshot JSON carries its fields" `Quick
      test_snapshot_json;
    Alcotest.test_case "cache hit rate never emits nan" `Quick
      test_hit_rate_nan_guard;
    Alcotest.test_case "sweep output is deterministic" `Slow
      test_sweep_deterministic;
    Alcotest.test_case "diff flags any move of a real row" `Slow
      test_diff_gate;
    Alcotest.test_case "diff respects metric direction" `Quick
      test_diff_orientation;
    Alcotest.test_case "scenario registry invariants" `Quick
      test_scenario_registry;
  ]
