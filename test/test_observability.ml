(* Observability subsystem tests: event bus spans, ring sink, metrics
   JSON shape, and the recovery phase timeline. *)

let recovery_phases =
  [
    "recovery.hint"; "recovery.agreement"; "recovery.barrier1";
    "recovery.discard"; "recovery.barrier2"; "recovery.resume";
  ]

(* ---------- Event bus and spans ---------- *)

let test_span_nesting () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  let r = Sim.Event.ring ~capacity:64 in
  Sim.Event.attach bus (Sim.Event.ring_sink r);
  ignore
    (Sim.Engine.spawn eng ~name:"worker" (fun () ->
         Sim.Event.span bus ~cat:Sim.Event.Workload "outer" (fun () ->
             Sim.Engine.delay 1_000L;
             Sim.Event.span bus ~cat:Sim.Event.Workload "inner" (fun () ->
                 Sim.Engine.delay 2_000L);
             Sim.Engine.delay 3_000L)));
  Sim.Engine.run eng;
  let evs = Sim.Event.ring_contents r in
  let shape =
    List.map
      (fun (e : Sim.Event.t) ->
        ( e.Sim.Event.name,
          (match e.Sim.Event.phase with
          | Sim.Event.Begin -> "B"
          | Sim.Event.End -> "E"
          | Sim.Event.Instant -> "i"
          | Sim.Event.Counter -> "C"),
          e.Sim.Event.ts ))
      evs
  in
  match shape with
  | [ ("outer", "B", t0); ("inner", "B", t1); ("inner", "E", t2);
      ("outer", "E", t3) ] ->
    Alcotest.(check int64) "inner starts after outer" 1_000L
      (Int64.sub t1 t0);
    Alcotest.(check int64) "inner span duration" 2_000L (Int64.sub t2 t1);
    Alcotest.(check int64) "outer span duration" 6_000L (Int64.sub t3 t0)
  | _ ->
    Alcotest.failf "unexpected event sequence: %s"
      (String.concat "; "
         (List.map (fun (n, p, _) -> n ^ "/" ^ p) shape))

let test_span_closes_on_exception () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  let r = Sim.Event.ring ~capacity:8 in
  Sim.Event.attach bus (Sim.Event.ring_sink r);
  ignore
    (Sim.Engine.spawn eng (fun () ->
         try
           Sim.Event.span bus ~cat:(Sim.Event.Custom "test") "boom" (fun () ->
               failwith "inside span")
         with Failure _ -> ()));
  Sim.Engine.run eng;
  let phases =
    List.map (fun (e : Sim.Event.t) -> e.Sim.Event.phase)
      (Sim.Event.ring_contents r)
  in
  Alcotest.(check bool) "Begin and End both emitted" true
    (phases = [ Sim.Event.Begin; Sim.Event.End ])

let test_ring_overwrites_oldest () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  let r = Sim.Event.ring ~capacity:4 in
  Sim.Event.attach bus (Sim.Event.ring_sink r);
  for i = 1 to 10 do
    Sim.Event.instant bus ~cat:(Sim.Event.Custom "test") (string_of_int i)
  done;
  Alcotest.(check int) "total counts every event" 10 (Sim.Event.ring_total r);
  Alcotest.(check (list string)) "ring keeps the newest"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun (e : Sim.Event.t) -> e.Sim.Event.name)
       (Sim.Event.ring_contents r))

let test_no_sink_is_free () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  Alcotest.(check bool) "disabled without sinks" false
    (Sim.Event.enabled bus);
  (* Must not raise, and spans still return their value. *)
  let v = Sim.Event.span bus ~cat:Sim.Event.Rpc "noop" (fun () -> 41 + 1) in
  Alcotest.(check int) "span returns body value" 42 v

(* ---------- Histograms ---------- *)

let test_histogram_percentiles () =
  let h = Sim.Stats.histogram () in
  for i = 1 to 1000 do
    Sim.Stats.add h (Int64.of_int (i * 1000))
  done;
  Alcotest.(check int) "count" 1000 (Sim.Stats.count h);
  let p50 = Sim.Stats.percentile h 50. in
  let p99 = Sim.Stats.percentile h 99. in
  Alcotest.(check bool) "p50 near median" true
    (p50 >= 490_000. && p50 <= 510_000.);
  Alcotest.(check bool) "p99 near tail" true
    (p99 >= 980_000. && p99 <= 1_000_000.);
  Alcotest.(check (float 0.)) "p100 is the exact max" 1_000_000.
    (Sim.Stats.percentile h 100.);
  Alcotest.(check bool) "buckets cover all samples" true
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Sim.Stats.buckets h)
    = 1000)

let test_constant_series_exact () =
  let h = Sim.Stats.histogram () in
  for _ = 1 to 100_000 do
    Sim.Stats.add h 5_000L
  done;
  Alcotest.(check int) "count tracks all adds" 100_000 (Sim.Stats.count h);
  Alcotest.(check (float 0.)) "constant series percentile" 5_000.
    (Sim.Stats.percentile h 95.)

(* Values below 64 ns get one bucket each, buckets never grow wider than
   1/32 of their lower bound, and values past 2^40 ns share the last
   bucket while max stays exact. *)
let test_bucket_layout () =
  let h = Sim.Stats.histogram () in
  for v = 0 to 63 do
    Sim.Stats.add h (Int64.of_int v)
  done;
  Alcotest.(check bool) "one bucket per value below 64" true
    (Sim.Stats.buckets h
    = List.init 64 (fun v -> (Int64.of_int v, Int64.of_int (v + 1), 1)));
  let h = Sim.Stats.histogram () in
  let v = ref 64 in
  while !v < 1 lsl 40 do
    Sim.Stats.add h (Int64.of_int !v);
    v := !v + 1 + (!v / 40)
  done;
  List.iter
    (fun (lo, hi, _) ->
      if Int64.mul (Int64.sub hi lo) 32L > lo then
        Alcotest.failf "bucket [%Ld, %Ld) wider than 1/32" lo hi)
    (Sim.Stats.buckets h);
  let h = Sim.Stats.histogram () in
  let big = Int64.shift_left 1L 50 in
  Sim.Stats.add h big;
  Alcotest.(check bool) "a value past 2^40 lands in the last bucket" true
    (Sim.Stats.buckets h
    = [ (Int64.shift_left 63L 34, Int64.shift_left 1L 40, 1) ]);
  Alcotest.(check (float 0.)) "max stays exact" (Int64.to_float big)
    (Sim.Stats.max_value h)

(* Sample sets of up to 20 000 values, well past the 4096 samples any
   reservoir of the old design kept: a small-value set, a log-uniform set
   over 10 ns .. 100 s and a Pareto-tailed set. *)
let sample_set_gen =
  let open QCheck.Gen in
  let cap = float_of_int ((1 lsl 40) - 1) in
  let clamp x = int_of_float (Float.min cap x) in
  let small = int_range 0 200 in
  let log_uniform = map (fun e -> clamp (10. ** e)) (float_range 1. 11.) in
  let pareto =
    map (fun u -> clamp (20_000. /. ((1. -. u) ** (1. /. 1.1))))
      (float_bound_exclusive 1.)
  in
  int_range 1 20_000 >>= fun n ->
  oneofl [ small; log_uniform; pareto ] >>= fun value ->
  list_repeat n value

let exact_nearest_rank sorted q =
  let n = Array.length sorted in
  let r = int_of_float ((q /. 100. *. float_of_int (n - 1)) +. 0.5) in
  float_of_int sorted.(max 0 (min (n - 1) r))

let within_bound ~exact est = Float.abs (est -. exact) <= exact /. 64.

(* Perfbench-style merge: sum equal buckets, combine count/min/max. *)
let merge_hists (a : Hive.Metrics.Snapshot.hist)
    (b : Hive.Metrics.Snapshot.hist) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (lo, hi, n) ->
      Hashtbl.replace tbl (lo, hi)
        (n + Option.value ~default:0 (Hashtbl.find_opt tbl (lo, hi))))
    (a.buckets @ b.buckets);
  let nonempty (h : Hive.Metrics.Snapshot.hist) = h.count > 0 in
  let side f = List.map f (List.filter nonempty [ a; b ]) in
  {
    a with
    count = a.count + b.count;
    min_ns = List.fold_left Float.min infinity (side (fun h -> h.min_ns));
    max_ns = List.fold_left Float.max 0. (side (fun h -> h.max_ns));
    buckets =
      List.sort compare
        (Hashtbl.fold (fun (lo, hi) n acc -> (lo, hi, n) :: acc) tbl []);
  }

let qcheck_quantile_error_bound =
  QCheck.Test.make ~count:60
    ~name:"histogram quantiles stay within 1/64 of exact nearest rank"
    (QCheck.make sample_set_gen ~print:(fun l ->
         Printf.sprintf "%d values: %s" (List.length l)
           (String.concat "," (List.map string_of_int l))))
    (fun values ->
      let whole = Sim.Stats.histogram () in
      let halves = [| Sim.Stats.histogram (); Sim.Stats.histogram () |] in
      List.iteri
        (fun i v ->
          Sim.Stats.add whole (Int64.of_int v);
          Sim.Stats.add halves.(i land 1) (Int64.of_int v))
        values;
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      let snap = Hive.Metrics.hist_of_stats whole in
      let merged =
        merge_hists (Hive.Metrics.hist_of_stats halves.(0))
          (Hive.Metrics.hist_of_stats halves.(1))
      in
      List.for_all
        (fun q ->
          let exact = exact_nearest_rank sorted q in
          let live = Sim.Stats.percentile whole q in
          within_bound ~exact live
          && Hive.Metrics.Snapshot.hist_quantile snap q = live
          && within_bound ~exact (Hive.Metrics.Snapshot.hist_quantile merged q))
        [ 50.; 95.; 99.; 99.9 ]
      && snap.Hive.Metrics.Snapshot.p999_ns = Sim.Stats.percentile whole 99.9)

(* ---------- Metrics JSON shape ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let boot_sys ?(ncells = 4) () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells ~wax:false eng in
  (eng, sys)

let test_metrics_json_shape () =
  let eng, sys = boot_sys () in
  (* Drive one real RPC so the per-op histograms are non-empty. *)
  ignore
    (Sim.Engine.spawn eng (fun () ->
         ignore
           (Hive.Rpc.call sys ~from:sys.Hive.Types.cells.(0) ~target:1
              ~op:Hive.Agreement.ping_op Hive.Types.P_unit)));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
  let json = Hive.Metrics.to_json sys in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics JSON has " ^ needle) true
        (contains ~needle json))
    [
      "\"sim_time_ns\""; "\"rpc\""; "\"client\""; "\"server\"";
      "\"agree.ping\""; "\"count\":1"; "\"p50_ns\""; "\"p95_ns\"";
      "\"p99_ns\""; "\"buckets\""; "\"cells\""; "\"id\":3";
      "\"status\":\"up\""; "\"live_set\""; "\"counters\"";
      "\"system_counters\""; "\"recovery_timeline\"";
    ]

(* ---------- Recovery timeline ---------- *)

let await_recovery sys =
  Hive.System.run_until sys
    ~deadline:(Int64.add (Sim.Engine.now sys.Hive.Types.eng) 3_000_000_000L)
    (fun () ->
      (not sys.Hive.Types.recovery_in_progress)
      && sys.Hive.Types.recovery_events <> [])

(* [phases] must appear in [timeline] in order (other entries may be
   interleaved), with non-decreasing timestamps. *)
let assert_ordered_subsequence timeline phases =
  let rec go entries expect last_ts =
    match expect with
    | [] -> ()
    | phase :: rest -> (
      match entries with
      | [] -> Alcotest.failf "phase %s missing from timeline" phase
      | (p, ts) :: tl when p = phase ->
        Alcotest.(check bool)
          (Printf.sprintf "%s not before its predecessor" phase)
          true
          (Int64.compare ts last_ts >= 0);
        go tl rest ts
      | _ :: tl -> go tl expect last_ts)
  in
  go timeline phases 0L

let test_recovery_timeline_phases () =
  let eng, sys = boot_sys () in
  let r = Sim.Event.ring ~capacity:4096 in
  Sim.Event.attach sys.Hive.Types.events (Sim.Event.ring_sink r);
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng;
  Hive.System.inject_node_failure sys 2;
  Alcotest.(check bool) "recovery completed" true (await_recovery sys);
  (* The structured timeline records all six phases in order. *)
  assert_ordered_subsequence sys.Hive.Types.recovery_timeline recovery_phases;
  (* And the same six phases reached the event bus as Recovery instants. *)
  let recovery_events =
    List.filter_map
      (fun (e : Sim.Event.t) ->
        if e.Sim.Event.cat = Sim.Event.Recovery then
          Some (e.Sim.Event.name, e.Sim.Event.ts)
        else None)
      (Sim.Event.ring_contents r)
  in
  assert_ordered_subsequence recovery_events recovery_phases

(* ---------- Chrome trace file ---------- *)

(* A 2-cell run with a node failure, traced to a Chrome trace_event
   file: the file must parse as one JSON array, every span must close on
   its (pid, tid) track, and the kernel-log instants of the failure path
   must be there. *)
let test_chrome_trace_file () =
  let eng, sys = boot_sys ~ncells:2 () in
  let path = Filename.temp_file "hive-trace" ".json" in
  let sink, close = Sim.Event.chrome_file path in
  Sim.Event.attach sys.Hive.Types.events sink;
  (* Cell 0 pings cell 1 every 5 ms across the failure, so RPC spans are
     open when the node dies. *)
  ignore
    (Sim.Engine.spawn eng (fun () ->
         for _ = 1 to 20 do
           (try
              ignore
                (Hive.Rpc.call sys ~from:sys.Hive.Types.cells.(0) ~target:1
                   ~op:Hive.Agreement.ping_op Hive.Types.P_unit)
            with _ -> ());
           Sim.Engine.delay 5_000_000L
         done));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng;
  Hive.System.inject_node_failure sys 1;
  Alcotest.(check bool) "recovery completed" true (await_recovery sys);
  close ();
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let events =
    match Sim.Json.of_string text with
    | Ok (Sim.Json.Arr evs) -> evs
    | Ok _ -> Alcotest.fail "trace is not one JSON array"
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let str k e = Option.bind (Sim.Json.member k e) Sim.Json.to_string_opt in
  let int k e = Option.bind (Sim.Json.member k e) Sim.Json.to_int_opt in
  let depth = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let track = (int "pid" e, int "tid" e) in
      let d = Option.value ~default:0 (Hashtbl.find_opt depth track) in
      match str "ph" e with
      | Some "B" -> Hashtbl.replace depth track (d + 1)
      | Some "E" ->
        if d = 0 then Alcotest.fail "E without a matching B";
        Hashtbl.replace depth track (d - 1)
      | _ -> ())
    events;
  Alcotest.(check bool) "trace has spans" true (Hashtbl.length depth > 0);
  Hashtbl.iter
    (fun _ d -> Alcotest.(check int) "every B has its E" 0 d)
    depth;
  let instants =
    List.filter_map
      (fun e -> if str "ph" e = Some "i" then str "name" e else None)
      events
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " instant present") true
        (List.mem name instants))
    [ "failure.suspect"; "agreement.accuse"; "recovery.discarded" ]

let suite =
  [
    Alcotest.test_case "span nesting and timestamps" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "ring keeps newest events" `Quick
      test_ring_overwrites_oldest;
    Alcotest.test_case "no sink means no overhead, same results" `Quick
      test_no_sink_is_free;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "constant series is exact" `Quick
      test_constant_series_exact;
    Alcotest.test_case "log-linear bucket layout" `Quick test_bucket_layout;
    QCheck_alcotest.to_alcotest qcheck_quantile_error_bound;
    Alcotest.test_case "metrics JSON shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "recovery timeline has six ordered phases" `Quick
      test_recovery_timeline_phases;
    Alcotest.test_case "chrome trace parses and balances" `Quick
      test_chrome_trace_file;
  ]
