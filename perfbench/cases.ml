(* The benchmark's three workloads. Each one runs a complete unit of work
   through the public functions `hive_sim fault`, `server` and `fuzz`
   call, timing its set-up and measured phases on the host clock and
   wrapping every call into a layer in a span. What a run returns besides
   the clock is simulated, so it must repeat exactly. *)

module Snap = Hive.Metrics.Snapshot

type clock = { mutable setup_s : float; mutable wall_s : float }

(* One unit of a workload's work, minus the host clock. *)
type outcome = {
  sim : (string * float) list;
      (** simulated end-to-end metrics the workload defines *)
  counts : (string * float) list;  (** simulated per-layer values *)
  fingerprint : string;
      (** digest of every snapshot or fuzz record the work produced *)
  checks : int;  (** correctness checks made *)
  failures : string list;  (** checks that failed, with what was seen *)
  findings : string list;
      (** what the program's own oracles flagged: reported, not a failed
          check of the benchmark *)
}

let ms_ns ms = Int64.mul (Int64.of_int ms) 1_000_000L
let ns_ms ns = Int64.to_float ns /. 1e6
let f = float_of_int

let phase clock ~setup fn =
  let t0 = Span.now () in
  let v = Span.record (if setup then "setup" else "measured") fn in
  let dt = Span.now () -. t0 in
  if setup then clock.setup_s <- clock.setup_s +. dt
  else clock.wall_s <- clock.wall_s +. dt;
  v

(* Drain for 1 s of simulated time, run the invariant oracle with the
   fault victims exempt, and capture and encode the metrics snapshot:
   the tail every workload run ends with. *)
let drain_check_capture eng sys ~exempt =
  Span.record ~eng "sim.engine.run" (fun () ->
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng);
  let violations =
    Span.record "hive.invariants.check" (fun () ->
        Hive.Invariants.check ~exempt sys)
  in
  let snap = Span.record "hive.metrics.capture" (fun () -> Hive.Metrics.capture sys) in
  let text = Span.record "sim.json.encode" (fun () -> Snap.to_string snap) in
  (violations, snap, text)

(* ---- reading a snapshot ---- *)

let cell_total (s : Snap.t) name =
  List.fold_left
    (fun acc (c : Snap.cell) ->
      acc + Option.value ~default:0 (List.assoc_opt name c.Snap.counters))
    0 s.Snap.cells

let sys_total (s : Snap.t) name =
  Option.value ~default:0 (List.assoc_opt name s.Snap.system_counters)

(* Time from the injection to the first [phase] entry at or after it. *)
let since_fault (s : Snap.t) ~t_fault phase =
  List.find_map
    (fun (p, t) ->
      if p = phase && Int64.compare t t_fault >= 0 then
        Some (ns_ms (Int64.sub t t_fault))
      else None)
    s.Snap.recovery_timeline

let recovery_phases =
  [ ("hive.agreement.agree_ms", "recovery.agreement");
    ("hive.recovery.detect_ms", "recovery.hint");
    ("hive.recovery.barrier1_ms", "recovery.barrier1");
    ("hive.recovery.discard_ms", "recovery.discard");
    ("hive.recovery.resume_ms", "recovery.resume");
    ("hive.recovery.reintegrate_ms", "recovery.reintegrate") ]

let rpc_ops =
  [ "fs.lookup"; "fs.locate"; "server.read"; "share.release_batch";
    "agree.vote" ]

(* Per-layer counts of one system: sharing, RPC, interconnect, VM and the
   recovery timeline measured from the injection. *)
let layer_counts (s : Snap.t) ~t_fault =
  let share n = f (Snap.sharing_total s n) in
  let cells n = f (cell_total s n) in
  let hits = Snap.sharing_total s "share.cache_hits" in
  let locates = Snap.sharing_total s "fs.remote_locates" in
  [ ("hive.share.imports", share "share.imports");
    ("hive.share.cache_hits", f hits);
    ("hive.share.remote_locates", f locates);
    ("hive.share.readahead_pages", share "fs.readahead_pages");
    ("hive.share.releases", share "share.releases");
    ("hive.share.cache_evictions", share "share.cache_evictions");
    ("hive.share.cache_hit_rate", Option.value ~default:0. s.Snap.cache_hit_rate);
    ("hive.share.cache_hit_base", f (hits + locates)) ]
  @ List.map
      (fun n -> ("hive.rpc." ^ n, cells ("rpc." ^ n)))
      [ "calls"; "queued"; "served"; "retransmits"; "expired";
        "deadline_exceeded"; "shed" ]
  @ List.concat_map
      (fun op ->
        let p50, p99 =
          match Snap.client_hist s op with
          | Some h -> (h.Snap.p50_ns /. 1e3, h.Snap.p99_ns /. 1e3)
          | None -> (0., 0.)
        in
        [ ("hive.rpc." ^ op ^ ".p50_us", p50); ("hive.rpc." ^ op ^ ".p99_us", p99) ])
      rpc_ops
  @ [ ("flash.sips.sends", f s.Snap.sips.Snap.sends);
      ("flash.firewall.changes", cells "firewall.changes");
      ("hive.vm.faults", cells "vm.faults");
      ("hive.careful_ref.enter", cells "careful_ref.enter");
      ("hive.recovery.round_restarts", f (sys_total s "recovery.round_restarts")) ]
  @ List.map
      (fun (name, p) ->
        (name, Option.value ~default:0. (since_fault s ~t_fault p)))
      recovery_phases

(* A failure that was injected must be seen through to survivors serving
   again; anything less fails loudly. *)
let recovery_check (s : Snap.t) ~t_fault ~what =
  List.filter_map
    (fun p ->
      match since_fault s ~t_fault p with
      | Some _ -> None
      | None -> Some (Printf.sprintf "%s: no %s after the injection" what p))
    [ "recovery.hint"; "recovery.resume" ]

(* ---- pmake64_fault ---- *)

let pmake_cells = 64
let pmake_nodes = 128
let pmake_victim_node = 126
let pmake_fault_ms = 500

let pmake64_fault clock =
  let eng, sys =
    phase clock ~setup:true (fun () ->
        let eng = Sim.Engine.create () in
        let sys =
          Span.record ~eng "hive.system.boot" (fun () ->
              Hive.System.boot
                ~mcfg:(Flash.Config.with_nodes Flash.Config.default pmake_nodes)
                ~ncells:pmake_cells ~wax:false eng)
        in
        Span.record ~eng "workloads.pmake.setup" (fun () ->
            Workloads.Pmake.setup sys Workloads.Pmake.default);
        (eng, sys))
  in
  let victim = (Hive.Types.cell_of_node sys pmake_victim_node).Hive.Types.cell_id in
  let result, t_fault, outputs, violations, snap, text =
    phase clock ~setup:false (fun () ->
        let t_fault = ref 0L in
        ignore
          (Sim.Engine.spawn eng ~name:"injector" (fun () ->
               Sim.Engine.delay (ms_ns pmake_fault_ms);
               t_fault := Sim.Engine.time ();
               Hive.System.inject_node_failure sys pmake_victim_node));
        let result, _ =
          Span.record ~eng "workloads.pmake.run" (fun () ->
              Workloads.Pmake.run sys)
        in
        ignore
          (Span.record ~eng "hive.system.run_until" (fun () ->
               Hive.System.run_until sys
                 ~deadline:(Int64.add (Sim.Engine.now eng) 2_000_000_000L)
                 (fun () -> not sys.Hive.Types.recovery_in_progress)));
        let outputs =
          Span.record ~eng "workloads.pmake.verify" (fun () ->
              Workloads.Pmake.verify sys)
        in
        let violations, snap, text =
          drain_check_capture eng sys ~exempt:[ victim ]
        in
        (result, !t_fault, outputs, violations, snap, text))
  in
  let opt = Option.value ~default:0. in
  let mismatched =
    List.filter (fun (_, v) -> v <> Workloads.Workload.Match) outputs
  in
  {
    sim =
      [ ("sim_build_s", Workloads.Workload.ns_to_s result.Workloads.Workload.elapsed_ns);
        ("sim_detect_ms", opt (since_fault snap ~t_fault "recovery.hint"));
        ("sim_recovery_ms", opt (since_fault snap ~t_fault "recovery.resume"));
        ("fail_frac", f (List.length mismatched) /. f (List.length outputs));
        ("oracle_violations", f (List.length violations)) ];
    counts =
      layer_counts snap ~t_fault
      @ [ ("sim.engine.events", f (Sim.Engine.events_scheduled eng));
          ("hive.invariants.violations", f (List.length violations)) ];
    fingerprint = Digest.to_hex (Digest.string text);
    checks = List.length outputs + 1;
    failures =
      (if result.Workloads.Workload.completed then []
       else [ "pmake64_fault: the build driver did not complete" ])
      @ List.map
          (fun (path, v) ->
            Printf.sprintf "pmake64_fault: output %s: %s" path
              (Workloads.Workload.verify_outcome_to_string v))
          mismatched
      @ recovery_check snap ~t_fault ~what:"pmake64_fault";
    findings =
      List.map
        (fun v -> "pmake64_fault: invariant " ^ Hive.Invariants.to_string v)
        violations;
  }

(* ---- server_kill ---- *)

let server_cells = 4
let server_kill_cell = 2
let server_kill_ms = 10_000
let server_duration_ms = 30_000
let server_rates = [ 40; 80; 120; 160; 240; 320 ]
let server_reference_rate = 160
let server_limit_ns = 100_000_000.
let server_goal = 0.99

let server_cfg ~seed rate =
  {
    Workloads.Server.default with
    duration_ms = server_duration_ms;
    rate_rps = f rate;
    zipf_s = 1.1;
    churn_pct = 10;
    deadline_ms = 250;
    fault =
      Some { Workloads.Server.kill_cell = server_kill_cell; at_ms = server_kill_ms };
    seed;
  }

(* Sum the log-scale latency buckets of every phase of the given request
   classes into one histogram. *)
let merged_hist (s : Snap.t) classes =
  let hs =
    List.filter_map
      (fun (key, h) ->
        match String.index_opt key '|' with
        | Some i when List.mem (String.sub key 0 i) classes -> Some h
        | _ -> None)
      s.Snap.ops
  in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (h : Snap.hist) ->
      List.iter
        (fun (lo, hi, n) ->
          Hashtbl.replace tbl (lo, hi)
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl (lo, hi))))
        h.Snap.buckets)
    hs;
  let fold g z = List.fold_left (fun acc (h : Snap.hist) -> g acc h) z hs in
  {
    Snap.count = fold (fun acc h -> acc + h.Snap.count) 0;
    mean_ns = 0.;
    min_ns = fold (fun acc h -> Float.min acc h.Snap.min_ns) infinity;
    max_ns = fold (fun acc h -> Float.max acc h.Snap.max_ns) 0.;
    p50_ns = 0.;
    p95_ns = 0.;
    p99_ns = 0.;
    p999_ns = 0.;
    buckets =
      List.sort compare (Hashtbl.fold (fun (lo, hi) n acc -> (lo, hi, n) :: acc) tbl []);
  }

(* How many samples of [h] took at most [limit_ns], interpolating linearly
   inside the bucket the limit falls in (as [Snapshot.hist_quantile]). *)
let count_within (h : Snap.hist) limit_ns =
  if h.Snap.count = 0 || h.Snap.min_ns > limit_ns then 0.
  else if h.Snap.max_ns <= limit_ns then f h.Snap.count
  else
    List.fold_left
      (fun acc (lo, hi, n) ->
        let lo = Int64.to_float lo and hi = Int64.to_float hi in
        if hi <= limit_ns then acc +. f n
        else if lo >= limit_ns then acc
        else acc +. (f n *. (limit_ns -. lo) /. (hi -. lo)))
      0. h.Snap.buckets

let served_reads = [ "server.read"; "server.read_redirected" ]
let succeeded = "server.churn" :: served_reads

type rung = {
  rate : int;
  stats : Workloads.Server.stats;
  snap : Snap.t;
  violations : Hive.Invariants.violation list;
  events : int;
  completed : bool;
  text : string;
}

let server_rung clock ~seed rate =
  let eng, sys =
    phase clock ~setup:true (fun () ->
        let eng = Sim.Engine.create () in
        let sys =
          Span.record ~eng "hive.system.boot" (fun () ->
              Hive.System.boot ~ncells:server_cells eng)
        in
        (eng, sys))
  in
  phase clock ~setup:false (fun () ->
      let result, stats =
        Span.record ~eng "workloads.server.run" (fun () ->
            Workloads.Server.run ~cfg:(server_cfg ~seed rate) sys)
      in
      let violations, snap, text =
        drain_check_capture eng sys ~exempt:[ server_kill_cell ]
      in
      {
        rate;
        stats;
        snap;
        violations;
        events = Sim.Engine.events_scheduled eng;
        completed = result.Workloads.Workload.completed;
        text;
      })

let server_kill ~seed clock =
  let rungs = List.map (server_rung clock ~seed) server_rates in
  let at rate = List.find (fun r -> r.rate = rate) rungs in
  let reads_ms rate q =
    Snap.hist_quantile (merged_hist (at rate).snap served_reads) q /. 1e6
  in
  let success_frac r =
    count_within (merged_hist r.snap succeeded) server_limit_ns
    /. f (max 1 r.stats.Workloads.Server.arrivals)
  in
  let max_rate =
    List.fold_left
      (fun acc r -> if success_frac r >= server_goal then max acc r.rate else acc)
      0 rungs
  in
  let sum g = List.fold_left (fun acc r -> acc + g r) 0 rungs in
  let arrivals = sum (fun r -> r.stats.Workloads.Server.arrivals) in
  let ok =
    sum (fun r ->
        let s = r.stats in
        s.Workloads.Server.reads_served + s.Workloads.Server.reads_redirected
        + s.Workloads.Server.churn_ok)
  in
  let violations = sum (fun r -> List.length r.violations) in
  let ref_rung = at server_reference_rate in
  let t_fault =
    Option.value ~default:0L ref_rung.stats.Workloads.Server.fault_at_ns
  in
  let per_rung r =
    let s = r.stats in
    List.map
      (fun (k, v) -> (Printf.sprintf "workloads.server.%s.r%d" k r.rate, f v))
      [ ("arrivals", s.Workloads.Server.arrivals);
        ("served", s.Workloads.Server.reads_served);
        ("redirected", s.Workloads.Server.reads_redirected);
        ("fail_fast", s.Workloads.Server.fail_fast);
        ("deadline_exceeded", s.Workloads.Server.deadline_exceeded);
        ("client_lost", s.Workloads.Server.client_lost);
        ("shed_legs", s.Workloads.Server.shed_legs) ]
  in
  let opt = Option.value ~default:0. in
  {
    sim =
      [ ("sim_detect_ms", opt (since_fault ref_rung.snap ~t_fault "recovery.hint"));
        ("sim_recovery_ms", opt (since_fault ref_rung.snap ~t_fault "recovery.resume"));
        ("read_p50_ms_80rps", reads_ms 80 50.);
        ("read_p99_ms_80rps", reads_ms 80 99.);
        ("read_p50_ms_160rps", reads_ms 160 50.);
        ("read_p99_ms_160rps", reads_ms 160 99.);
        ("max_rate_rps", f max_rate);
        ("fail_frac", f (arrivals - ok) /. f (max 1 arrivals));
        ("oracle_violations", f violations) ];
    counts =
      layer_counts ref_rung.snap ~t_fault
      @ List.concat_map per_rung rungs
      @ List.map
          (fun r ->
            (Printf.sprintf "workloads.server.within_100ms.r%d" r.rate, success_frac r))
          rungs
      @ [ ("sim.engine.events", f (sum (fun r -> r.events)));
          ("hive.invariants.violations", f violations) ];
    fingerprint =
      Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun r -> r.text) rungs)));
    checks = List.length rungs;
    failures =
      List.concat_map
        (fun r ->
          let s = r.stats in
          (if r.completed then []
           else [ Printf.sprintf "server_kill %d req/s: traffic did not complete" r.rate ])
          @ (if s.Workloads.Server.client_lost = 0 then []
             else
               [ Printf.sprintf "server_kill %d req/s: %d client(s) lost" r.rate
                   s.Workloads.Server.client_lost ])
          @ recovery_check r.snap
              ~t_fault:(Option.value ~default:0L s.Workloads.Server.fault_at_ns)
              ~what:(Printf.sprintf "server_kill %d req/s" r.rate))
        rungs;
    findings =
      List.concat_map
        (fun r ->
          List.map
            (fun v ->
              Printf.sprintf "server_kill %d req/s: invariant %s" r.rate
                (Hive.Invariants.to_string v))
            r.violations)
        rungs;
  }

(* ---- fuzz_serial ---- *)

let fuzz_campaigns = 50

let plan_kind (p : Faultinj.Fuzz.plan) =
  match p.Faultinj.Fuzz.traffic, p.Faultinj.Fuzz.workload with
  | Some _, _ -> "traffic"
  | None, Faultinj.Fuzz.Pmake -> "pmake"
  | None, Faultinj.Fuzz.Ocean -> "ocean"
  | None, Faultinj.Fuzz.Raytrace -> "raytrace"

let fuzz_serial ~base clock =
  let plans =
    phase clock ~setup:true (fun () ->
        Span.record "faultinj.fuzz.plan" (fun () ->
            Array.init fuzz_campaigns (fun i ->
                Faultinj.Fuzz.plan_of_seed (Int64.add base (Int64.of_int i)))))
  in
  let records =
    phase clock ~setup:false (fun () ->
        Array.map
          (fun p ->
            Span.record ("faultinj.fuzz.run_plan." ^ plan_kind p) (fun () ->
                Faultinj.Fuzz.run_plan p))
          plans)
  in
  let records = Array.to_list records in
  let count g = List.fold_left (fun acc r -> acc + g r) 0 records in
  let failed = count (fun r -> if Faultinj.Fuzz.failed r then 1 else 0) in
  let violations = count (fun r -> List.length r.Faultinj.Fuzz.r_violations) in
  let events = count (fun r -> r.Faultinj.Fuzz.r_events) in
  {
    sim =
      [ ("fail_frac", f failed /. f fuzz_campaigns);
        ("oracle_violations", f violations) ];
    counts =
      [ ("sim.engine.events", f events);
        ("faultinj.fuzz.events_per_campaign", f events /. f fuzz_campaigns);
        ("faultinj.fuzz.failed", f failed);
        ("hive.invariants.violations", f violations) ];
    fingerprint =
      Digest.to_hex
        (Digest.string
           (String.concat "\n" (List.map Faultinj.Fuzz.record_to_json records)));
    checks = fuzz_campaigns;
    failures = [];
    findings =
      List.filter_map
        (fun r ->
          if Faultinj.Fuzz.failed r then
            Some ("fuzz_serial: failing campaign " ^ Faultinj.Fuzz.record_to_json r)
          else None)
        records;
  }
