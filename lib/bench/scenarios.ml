(* The shipped sweep scenarios. Every metric here is a function of
   simulated time and kernel counters only — no wall clock — so each
   (scenario × dims) point is byte-identical across runs and machines.
   That determinism is what the committed BENCH_<area>.json trajectory
   and the CI diff gate stand on. *)

open Scenario

(* Boot a system for one grid point; [params] is the base the cache
   dimension applies to. *)
let boot_dims ?(params = Hive.Params.default) (dims : dims) =
  let eng = Sim.Engine.create () in
  let mcfg = Flash.Config.with_nodes Flash.Config.default dims.nodes in
  let mcfg =
    if dims.smp then { mcfg with Flash.Config.firewall_enabled = false }
    else mcfg
  in
  let params =
    if dims.import_cache then params else Hive.Params.legacy_sharing params
  in
  let sys =
    Hive.System.boot ~mcfg ~params ~ncells:dims.cells
      ~multicellular:(not dims.smp) ~wax:false eng
  in
  (eng, sys)

(* Arm a deterministic 25% drop/dup/delay window into cell 1's boss node
   for [link_ms] (the Sips.degrade fault model the fuzzer uses). The
   agreement hint path is detached so the row isolates the transport. *)
let degrade_link sys (dims : dims) =
  if dims.link_ms > 0 then begin
    sys.Hive.Types.on_hint <- None;
    Flash.Sips.degrade
      (Flash.Machine.sips sys.Hive.Types.machine)
      ~rng:(Sim.Prng.create 42)
      {
        Flash.Sips.deg_from = -1;
        deg_to = sys.Hive.Types.cells.(1).Hive.Types.boss_node;
        from_ns = 0L;
        until_ns = Int64.of_int (dims.link_ms * 1_000_000);
        drop_pct = 25;
        dup_pct = 25;
        delay_pct = 25;
        max_delay_ns = 1_000_000L;
      }
  end

let hit_rate_pct (snap : Hive.Metrics.Snapshot.t) =
  100. *. Option.value ~default:0. snap.Hive.Metrics.Snapshot.cache_hit_rate

let client_hist_exn snap op =
  match Hive.Metrics.Snapshot.client_hist snap op with
  | Some h -> h
  | None -> failwith (Printf.sprintf "scenario: no %s calls recorded" op)

(* ---------- area rpc ---------- *)

let run_rpc ~op ~opname (dims : dims) =
  let eng, sys = boot_dims dims in
  Harness.register_bench_ops ();
  degrade_link sys dims;
  let n = 400 in
  let ok = ref 0 and gave_up = ref 0 in
  ignore
    (Harness.timed_in_thread eng (fun () ->
         for _ = 1 to n do
           match
             Hive.Rpc.call sys ~from:sys.Hive.Types.cells.(0) ~target:1 ~op
               ?timeout_ns:(if dims.link_ms > 0 then Some 2_000_000L else None)
               Hive.Types.P_unit
           with
           | Ok _ -> incr ok
           | Error _ -> incr gave_up
         done));
  let snap = Hive.Metrics.capture sys in
  let h = client_hist_exn snap opname in
  let per name =
    Array.fold_left
      (fun acc (c : Hive.Types.cell) ->
        acc + Sim.Stats.value c.Hive.Types.counters name)
      0 sys.Hive.Types.cells
  in
  [
    metric "p50_ns" h.Hive.Metrics.Snapshot.p50_ns;
    metric "p95_ns" h.Hive.Metrics.Snapshot.p95_ns;
    metric "p99_ns" h.Hive.Metrics.Snapshot.p99_ns;
    metric "mean_ns" h.Hive.Metrics.Snapshot.mean_ns;
    metric ~dir:Higher_better "completed" (float_of_int !ok);
    metric ~dir:Info "retransmits" (float_of_int (per "rpc.retransmits"));
    metric ~dir:Info "dup_suppressed"
      (float_of_int (per "rpc.dup_suppressed"));
  ]

let rpc_base = { default_dims with workload = "rpc"; cells = 2; nodes = 4 }

let declare_rpc () =
  (* 400 interrupt-level null RPCs cell 0 -> 1; client-side latency
     percentiles, optionally through a degraded link. *)
  ignore
    (declare ~name:"null-rpc" ~area:"rpc"
       ~dims:
         [
           rpc_base;
           { rpc_base with cells = 4 };
           { rpc_base with cells = 2; nodes = 2 };
           { rpc_base with link_ms = 300 };
           { rpc_base with cells = 4; link_ms = 300 };
         ]
       ~quick:[ rpc_base; { rpc_base with link_ms = 300 } ]
       (run_rpc ~op:Harness.noop_op ~opname:"bench.noop"));
  (* 400 null RPCs through the queued service and server pool. *)
  ignore
    (declare ~name:"queued-rpc" ~area:"rpc"
       ~dims:[ rpc_base; { rpc_base with cells = 4 } ]
       ~quick:[ rpc_base ]
       (run_rpc ~op:Harness.noop_queued_op ~opname:"bench.noop_queued"))

(* Map the first [npages] of [path] read-only on [cell] and read-fault
   each page once, adding every fault's latency to [acc]. *)
let touch_pages sys ~cell ~path ~npages acc =
  let p =
    Hive.Process.spawn sys sys.Hive.Types.cells.(cell) ~name:"pass"
      (fun sys p ->
        let fd = Hive.Syscall.openf sys p path in
        let r = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:false in
        for k = 0 to npages - 1 do
          let t0 = Sim.Engine.time () in
          Hive.Syscall.touch sys p ~vpage:(r.Hive.Types.start_page + k)
            ~write:false;
          Sim.Stats.add acc (Int64.sub (Sim.Engine.time ()) t0)
        done)
  in
  ignore
    (Hive.System.run_until_processes_done sys
       ~deadline:
         (Int64.add (Sim.Engine.now sys.Hive.Types.eng) 400_000_000_000L)
       [ p ])

(* ---------- area sharing ---------- *)

(* Remote read faults from cell 1 against a file homed on cell 0: a cold
   pass, then a second pass that must be served by the import cache when
   it is enabled. *)
let run_remote_read (dims : dims) =
  let eng, sys = boot_dims dims in
  let npages = dims.ws_pages in
  let path = Harness.make_warm_file sys ~npages in
  let touch_pass () =
    let acc = Sim.Stats.histogram () in
    touch_pages sys ~cell:1 ~path ~npages acc;
    (* Drain the reaper so exit-time releases park their bindings. *)
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
    acc
  in
  let cold = touch_pass () in
  let second = touch_pass () in
  let snap = Hive.Metrics.capture sys in
  let get = Hive.Metrics.Snapshot.sharing_total snap in
  [
    metric "cold_p50_us" (Sim.Stats.percentile cold 50. /. 1e3);
    metric "second_p50_us" (Sim.Stats.percentile second 50. /. 1e3);
    metric "locate_rpcs" (float_of_int (get "fs.remote_locates"));
    metric ~dir:Higher_better "hit_rate_pct" (hit_rate_pct snap);
    metric ~dir:Info "cache_hits" (float_of_int (get "share.cache_hits"));
    metric ~dir:Info "readahead_pages"
      (float_of_int (get "fs.readahead_pages"));
  ]

(* Full pmake with the sharing protocol of the grid point; demands
   byte-identical workload output and reports sharing RPCs per remotely
   accessed page — the number PR 5 moved from 1.907 to 0.245. *)
let run_pmake_sharing (dims : dims) =
  let eng, sys = boot_dims dims in
  Workloads.Pmake.setup sys Workloads.Pmake.default;
  let result, _ = Workloads.Pmake.run sys in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 300_000_000L) eng;
  let bad =
    List.filter
      (fun (_, v) -> v <> Workloads.Workload.Match)
      (Workloads.Pmake.verify sys)
  in
  if bad <> [] then
    failwith
      (Printf.sprintf "pmake-sharing: output not byte-identical (%s)"
         (String.concat ", " (List.map fst bad)));
  let snap = Hive.Metrics.capture sys in
  let hist_count op =
    match Hive.Metrics.Snapshot.client_hist snap op with
    | Some h -> h.Hive.Metrics.Snapshot.count
    | None -> 0
  in
  let rpcs =
    hist_count "fs.locate" + hist_count "share.release"
    + hist_count "share.release_batch"
    + hist_count "share.invalidate"
  in
  let get = Hive.Metrics.Snapshot.sharing_total snap in
  let pages = get "share.imports" + get "share.cache_hits" in
  [
    metric "elapsed_ms"
      (Int64.to_float result.Workloads.Workload.elapsed_ns /. 1e6);
    metric "rpcs_per_page" (float_of_int rpcs /. float_of_int (max 1 pages));
    metric ~dir:Higher_better "hit_rate_pct" (hit_rate_pct snap);
    metric ~dir:Info "sharing_rpcs" (float_of_int rpcs);
    metric ~dir:Info "remote_pages" (float_of_int pages);
  ]

let read_base =
  { default_dims with workload = "read"; cells = 2; nodes = 4; ws_pages = 64 }

let pmake_share_base =
  { default_dims with workload = "pmake"; cells = 4; nodes = 4 }

let declare_sharing () =
  (* Sequential remote read faults against a warm data home; second pass
     must hit the import cache when enabled. *)
  ignore
    (declare ~name:"remote-read" ~area:"sharing"
       ~dims:
         [
           read_base;
           { read_base with ws_pages = 256 };
           { read_base with import_cache = false };
           { read_base with ws_pages = 256; import_cache = false };
           { read_base with nodes = 2 };
         ]
       ~quick:[ read_base; { read_base with import_cache = false } ]
       run_remote_read);
  (* Full pmake; sharing RPCs per remotely accessed page with the import
     cache on/off, output verified byte-identical. *)
  ignore
    (declare ~name:"pmake-sharing" ~area:"sharing"
       ~dims:
         [
           pmake_share_base;
           { pmake_share_base with import_cache = false };
           { pmake_share_base with cells = 2 };
           { pmake_share_base with cells = 2; import_cache = false };
         ]
       ~quick:
         [
           { pmake_share_base with cells = 2 };
           { pmake_share_base with cells = 2; import_cache = false };
         ]
       run_pmake_sharing)

(* ---------- workload runs ---------- *)

let setup_workload sys = function
  | "pmake" -> Workloads.Pmake.setup sys Workloads.Pmake.default
  | "ocean" -> Workloads.Ocean.setup sys Workloads.Ocean.default
  | "raytrace" -> ()
  | other -> failwith ("unknown workload " ^ other)

let run_workload sys name =
  fst
    (match name with
    | "pmake" -> Workloads.Pmake.run sys
    | "ocean" -> Workloads.Ocean.run sys
    | _ -> Workloads.Raytrace.run sys)

(* One paper-size run of the grid point's workload. *)
let workload_result (dims : dims) =
  let _eng, sys = boot_dims dims in
  setup_workload sys dims.workload;
  run_workload sys dims.workload

(* ---------- area fuzz ---------- *)

(* Deterministic profile of a fixed fuzz-seed batch. Wall-clock
   throughput is perfbench's job (never committed); every
   metric here is a pure function of the seeds, so the committed
   BENCH_fuzz.json is byte-stable and the diff gate catches behavioral
   drift in the DES hot paths — an engine change that alters verdicts,
   fault landings or event-queue traffic trips it. The batch size rides
   in the [ws_pages] dimension. *)
let fuzz_seed_batch n = Array.init n (fun i -> Int64.of_int (i + 1))

let fuzz_records seeds =
  Array.to_list
    (Array.map
       (fun s -> Faultinj.Fuzz.run_plan (Faultinj.Fuzz.plan_of_seed s))
       seeds)

let run_fuzz_batch (dims : dims) =
  let records = fuzz_records (fuzz_seed_batch dims.ws_pages) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 records in
  let clean =
    List.length (List.filter (fun r -> not (Faultinj.Fuzz.failed r)) records)
  in
  let sim_ns =
    List.fold_left
      (fun acc r -> Int64.add acc r.Faultinj.Fuzz.r_sim_ns)
      0L records
  in
  [
    metric ~dir:Higher_better "clean_seeds" (float_of_int clean);
    metric "events_scheduled"
      (float_of_int (sum (fun r -> r.Faultinj.Fuzz.r_events)));
    metric ~dir:Info "faults_injected"
      (float_of_int (sum (fun r -> List.length r.Faultinj.Fuzz.r_injected)));
    metric ~dir:Info "sim_s_total" (Int64.to_float sim_ns /. 1e9);
  ]

(* Serial and two-domain runs of the same batch must merge to the same
   record stream, byte for byte. *)
let run_fuzz_parallel_merge (dims : dims) =
  let seeds = fuzz_seed_batch dims.ws_pages in
  let jsonl records =
    String.concat "\n" (List.map Faultinj.Fuzz.record_to_json records)
  in
  let serial = jsonl (fuzz_records seeds) in
  let out = ref [] in
  Faultinj.Campaign.run_parallel ~jobs:2 ~seeds
    ~run:(fun s -> Faultinj.Fuzz.run_plan (Faultinj.Fuzz.plan_of_seed s))
    ~on_record:(fun _ r -> out := r :: !out);
  let parallel = jsonl (List.rev !out) in
  [
    metric ~dir:Higher_better "merged_identical"
      (if String.equal serial parallel then 1. else 0.);
    metric ~dir:Info "records" (float_of_int (Array.length seeds));
  ]

let declare_fuzz () =
  let base = { default_dims with workload = "fuzz"; cells = 4; nodes = 8 } in
  (* Verdict and event-traffic profile of a fixed seed batch (ws = seeds);
     deterministic, so the trajectory gates DES hot-path changes. *)
  ignore
    (declare ~name:"fuzz_batch" ~area:"fuzz"
       ~dims:
         [ { base with ws_pages = 8 }; { base with ws_pages = 16 } ]
       ~quick:[ { base with ws_pages = 8 } ]
       run_fuzz_batch);
  (* Serial vs two-domain merge identity of the same seed batch (must be
     1). *)
  ignore
    (declare ~name:"fuzz_parallel" ~area:"fuzz"
       ~dims:[ { base with ws_pages = 8 } ]
       run_fuzz_parallel_merge)

(* ---------- area resilience ---------- *)

(* Partition-and-heal profile and the memory-salvage A/B. Both rows are
   pure functions of simulated time and counters, like everything else in
   the sweep, so the committed BENCH_resilience.json trajectory gates the
   partition fault model and the salvage path against drift. *)

let settle_ns = 50_000_000L

let run_in_thread eng f =
  let out = ref None in
  ignore (Sim.Engine.spawn eng ~name:"bench" (fun () -> out := Some (f ())));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 30_000_000_000L) eng;
  match !out with
  | Some v -> v
  | None -> failwith "resilience: bench thread did not finish"

let raise_hint sys ~by ~suspect =
  match sys.Hive.Types.on_hint with
  | Some f ->
    f sys.Hive.Types.cells.(by) ~suspect ~reason:"bench fault injection"
  | None -> failwith "resilience: no hint handler installed"

(* Black out one cell for link_ms, let agreement excise it, and measure
   the path back to a single unified live set after the deterministic
   heal: the victim is still running behind the blackout, so reclamation
   defers, the heal stops it, and reintegration reunifies the machine. *)
let run_partition_heal (dims : dims) =
  let eng = Sim.Engine.create () in
  let mcfg = Flash.Config.with_nodes Flash.Config.default dims.nodes in
  let sys = Hive.System.boot ~mcfg ~ncells:dims.cells ~wax:false eng in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) settle_ns) eng;
  let victim = dims.cells - 1 in
  let t0 = Sim.Engine.now eng in
  let heal_ns = Int64.add t0 (Int64.of_int (dims.link_ms * 1_000_000)) in
  Faultinj.Campaign.sever_cell sys ~cell:victim ~from_ns:t0 ~until_ns:heal_ns
    ~one_way:false;
  raise_hint sys ~by:0 ~suspect:victim;
  let unified () =
    Array.for_all
      (fun (c : Hive.Types.cell) ->
        Hive.Types.cell_alive c
        && List.length c.Hive.Types.live_set = dims.cells)
      sys.Hive.Types.cells
  in
  (* Only a unified live set *after* the heal counts: short windows ride
     through on retransmission (the alert is dismissed), long windows
     excise the victim and reunify through reintegration. *)
  let reunified =
    Hive.System.run_until sys
      ~deadline:(Int64.add heal_ns 6_000_000_000L)
      (fun () ->
        Int64.compare (Sim.Engine.now eng) heal_ns >= 0 && unified ())
  in
  let reunify_ms =
    Int64.to_float (Int64.sub (Sim.Engine.now eng) t0) /. 1e6
  in
  let single_master_ok =
    sys.Hive.Types.master_overlaps = []
    && Hive.Invariants.check_single_master sys = []
  in
  let deferred =
    List.length
      (List.filter
         (fun (p, _) -> p = "recovery.reclaim_deferred")
         sys.Hive.Types.recovery_timeline)
  in
  let sysc name = float_of_int (Sim.Stats.value sys.Hive.Types.sys_counters name) in
  [
    metric ~dir:Higher_better "reunified" (if reunified then 1. else 0.);
    metric ~dir:Higher_better "single_master_ok"
      (if single_master_ok then 1. else 0.);
    metric "reunify_ms" reunify_ms;
    metric ~dir:Info "blocked_envelopes"
      (float_of_int
         (Flash.Sips.partition_blocked_count
            (Flash.Machine.sips sys.Hive.Types.machine)));
    metric ~dir:Info "agreement_rounds" (sysc "agreement.rounds");
    metric ~dir:Info "excisions_confirmed" (sysc "agreement.confirmed");
    metric ~dir:Info "alerts_dismissed" (sysc "agreement.dismissed");
    metric ~dir:Info "reintegrations" (sysc "cell.reintegrations");
    metric ~dir:Info "reclaims_deferred" (float_of_int deferred);
  ]

(* CXL-style memory salvage A/B: import ws clean pages from a remote home,
   halt the home's processors with its memory alive, and count how many
   survive recovery locally (salvage on) versus being discarded and lost
   to EIO (salvage off, the [import_cache] dimension reused as the knob). *)
let run_salvage_ab (dims : dims) =
  let eng = Sim.Engine.create () in
  let mcfg = Flash.Config.with_nodes Flash.Config.default dims.nodes in
  (* auto_reintegrate off: the home stays down, so a discarded page is
     genuinely unreadable rather than quietly refetched from the reboot. *)
  let params =
    {
      Hive.Params.default with
      Hive.Params.enable_salvage = dims.import_cache;
      auto_reintegrate = false;
    }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells:dims.cells ~wax:false eng in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) settle_ns) eng;
  let c0 = sys.Hive.Types.cells.(0) in
  let home = 1 in
  let path =
    let rec go k =
      let p = Printf.sprintf "/cxl/bench.%d" k in
      if Hive.Fs.home_of_path sys p = home then p else go (k + 1)
    in
    go 0
  in
  let psize = Hive.Types.page_size sys in
  let npages = dims.ws_pages in
  let content =
    Workloads.Workload.synth_content ~tag:path ~bytes:(npages * psize)
  in
  let vn, gen =
    run_in_thread eng (fun () ->
        match Hive.Fs.create_file sys c0 ~path ~content with
        | Error _ -> failwith "resilience: create failed"
        | Ok _ -> (
          Hive.Fs.sync_cell sys sys.Hive.Types.cells.(home);
          match Hive.Fs.open_file sys c0 ~path with
          | Ok (vn, gen) -> (vn, gen)
          | Error _ -> failwith "resilience: open failed"))
  in
  let imported =
    run_in_thread eng (fun () ->
        let n = ref 0 in
        for page = 0 to npages - 1 do
          match
            Hive.Fs.get_page sys c0 vn ~page ~writable:false ~opened_gen:gen
              ~usage:`Syscall
          with
          | Ok _ -> incr n
          | Error _ -> ()
        done;
        !n)
  in
  List.iter
    (fun node -> Hive.System.inject_cpu_failure sys node)
    sys.Hive.Types.cells.(home).Hive.Types.cell_nodes;
  raise_hint sys ~by:0 ~suspect:home;
  ignore
    (Hive.System.run_until sys
       ~deadline:(Int64.add (Sim.Engine.now eng) 5_000_000_000L)
       (fun () ->
         (not sys.Hive.Types.recovery_in_progress)
         && sys.Hive.Types.recovery_events <> []));
  let salvaged =
    Sim.Stats.value c0.Hive.Types.counters "vm.salvaged_pages"
  in
  (* Post-failure reads: a salvaged page is served locally and must be
     byte-identical to what the dead home exported; a discarded page is
     lost until the home reboots. *)
  let readable, identical =
    run_in_thread eng (fun () ->
        let readable = ref 0 and identical = ref 0 in
        let mem = Flash.Machine.memory sys.Hive.Types.machine in
        for page = 0 to npages - 1 do
          match
            Hive.Fs.get_page sys c0 vn ~page ~writable:false ~opened_gen:gen
              ~usage:`Syscall
          with
          | Error _ -> ()
          | Ok pf ->
            incr readable;
            let got =
              Flash.Memory.peek mem
                (Hive.Fs.frame_addr sys pf.Hive.Types.pfn)
                psize
            in
            if Bytes.equal got (Bytes.sub content (page * psize) psize) then
              incr identical
        done;
        (!readable, !identical))
  in
  [
    metric ~dir:Higher_better "readable_after_failure"
      (float_of_int readable);
    metric "discarded_pages" (float_of_int (imported - readable));
    metric ~dir:Higher_better "byte_identical" (float_of_int identical);
    metric ~dir:Info "salvaged_pages" (float_of_int salvaged);
    metric ~dir:Info "imported_pages" (float_of_int imported);
  ]

let declare_resilience () =
  let part_base =
    { default_dims with workload = "partition"; cells = 4; nodes = 4 }
  in
  (* Black out one cell for link_ms, excise it under quorum agreement, and
     measure reunification after the deterministic heal (single-master
     invariant checked per row). *)
  ignore
    (declare ~name:"partition-heal" ~area:"resilience"
       ~dims:
         [
           { part_base with link_ms = 200 };
           { part_base with link_ms = 800 };
           { part_base with link_ms = 3000 };
         ]
       ~quick:[ { part_base with link_ms = 200 } ]
       run_partition_heal);
  let salv_base =
    { default_dims with workload = "salvage"; cells = 2; nodes = 4 }
  in
  (* Memory salvage A/B: clean pages imported from a cpu-dead mem-alive home
     that survive recovery locally vs discarded (cache dimension = salvage
     knob). *)
  ignore
    (declare ~name:"salvage-ab" ~area:"resilience"
       ~dims:
         [
           { salv_base with ws_pages = 16 };
           { salv_base with ws_pages = 16; import_cache = false };
           { salv_base with ws_pages = 64 };
           { salv_base with ws_pages = 64; import_cache = false };
         ]
       ~quick:
         [
           { salv_base with ws_pages = 16 };
           { salv_base with ws_pages = 16; import_cache = false };
         ]
       run_salvage_ab)

(* ---------- area traffic ---------- *)

(* Serve-through-failure: interactive Poisson/Zipf traffic with a cell
   killed mid-run. The committed rows quantify the paper's availability
   claim as a trajectory: the surviving cells' served-read p99.9 during
   cell death and recovery stays within a small factor of the pre-failure
   baseline, and clients of the dead cell's data fail fast inside their
   deadline budget instead of hanging. All metrics are functions of
   simulated time, so the rows are byte-stable and diff-gated. *)

let traffic_duration_ms = 5_000

let run_traffic (dims : dims) =
  let _eng, sys = boot_dims dims in
  let cfg =
    {
      Workloads.Server.default with
      Workloads.Server.duration_ms = traffic_duration_ms;
      rate_rps = float_of_int dims.rate;
      zipf_s = float_of_int dims.zipf_pct /. 100.;
      fault =
        (if dims.fault_ms > 0 then
           Some
             { Workloads.Server.kill_cell = dims.cells - 1;
               at_ms = dims.fault_ms }
         else None);
    }
  in
  let result, stats = Workloads.Server.run ~cfg sys in
  let snap = Hive.Metrics.capture sys in
  let p999 key =
    match Hive.Metrics.Snapshot.op_hist snap key with
    | Some h when h.Hive.Metrics.Snapshot.count > 0 ->
      Some h.Hive.Metrics.Snapshot.p999_ns
    | _ -> None
  in
  let before_p999 =
    match p999 "server.read|before" with
    | Some v -> v
    | None -> failwith "traffic: no served reads before the fault"
  in
  (* Ratio of clean served-read p99.9 during the outage to the
     pre-failure baseline — the headline containment number. 1.0 on
     no-fault rows (there is no "during" phase). *)
  let during_ratio =
    match p999 "server.read|during" with
    | Some v -> v /. before_p999
    | None -> 1.0
  in
  let deadline_ns = float_of_int cfg.Workloads.Server.deadline_ms *. 1e6 in
  let recovery_ms =
    match (stats.Workloads.Server.fault_at_ns, stats.Workloads.Server.recovered_at_ns) with
    | Some tf, Some tr -> Int64.to_float (Int64.sub tr tf) /. 1e6
    | _ -> 0.
  in
  [
    metric "during_over_before_p999" during_ratio;
    metric "before_p999_ms" (before_p999 /. 1e6);
    metric "fail_fast_max_ms"
      (Int64.to_float stats.Workloads.Server.fail_fast_max_ns /. 1e6);
    metric ~dir:Higher_better "fail_fast_within_budget"
      (if Int64.to_float stats.Workloads.Server.fail_fast_max_ns
          <= deadline_ns
       then 1.
       else 0.);
    metric ~dir:Higher_better "completed"
      (if result.Workloads.Workload.completed then 1. else 0.);
    metric ~dir:Info "served" (float_of_int stats.Workloads.Server.reads_served);
    metric ~dir:Info "redirected"
      (float_of_int stats.Workloads.Server.reads_redirected);
    metric ~dir:Info "shed_legs" (float_of_int stats.Workloads.Server.shed_legs);
    metric ~dir:Info "deadline_exceeded"
      (float_of_int stats.Workloads.Server.deadline_exceeded);
    metric ~dir:Info "fail_fast" (float_of_int stats.Workloads.Server.fail_fast);
    metric ~dir:Info "client_lost"
      (float_of_int stats.Workloads.Server.client_lost);
    metric ~dir:Info "recovery_ms" recovery_ms;
  ]

let declare_traffic () =
  let base =
    {
      default_dims with
      workload = "server";
      cells = 4;
      nodes = 4;
      rate = 80;
      zipf_pct = 110;
    }
  in
  (* Interactive Poisson/Zipf traffic with a cell killed mid-run:
     surviving-cell served-read p99.9 during death+recovery vs the
     pre-failure baseline, and fail-fast latency vs the deadline budget. *)
  ignore
    (declare ~name:"serve-through-failure" ~area:"traffic"
       ~dims:
         [
           base;
           { base with fault_ms = 2_000 };
           { base with rate = 160; fault_ms = 2_000 };
           { base with rate = 40; fault_ms = 2_000 };
           { base with cells = 2; fault_ms = 2_000 };
           { base with zipf_pct = 1; fault_ms = 2_000 };
         ]
       ~quick:
         [
           { base with fault_ms = 2_000 };
           { base with rate = 160; fault_ms = 2_000 };
         ]
       run_traffic)

(* ---------- area scale ---------- *)

(* The paper's full envelope: 4 to 64 cells over 8 to 128 nodes, with Wax
   installed and driving placement through validated hints. Each row boots
   the machine (per-node memory in the [ws_pages] dimension, kept small so
   the big rows stay fast), runs a pmake sized to the cell count, fail-stops
   the last cell mid-compile, and waits for automatic recovery plus
   reintegration to reunify the live set. Committed rows gate the scaling
   behavior: boot and recovery must grow sub-quadratically in cells, RPCs
   per compile must stay flat, and the invariant checkers must come back
   clean on every shape. *)

let run_scale (dims : dims) =
  let eng = Sim.Engine.create () in
  let mcfg =
    {
      (Flash.Config.with_nodes Flash.Config.default dims.nodes) with
      Flash.Config.mem_pages_per_node = dims.ws_pages;
    }
  in
  let sys = Hive.System.boot ~mcfg ~ncells:dims.cells ~wax:true eng in
  let boot_ms = Int64.to_float sys.Hive.Types.last_boot_ns /. 1e6 in
  (* Let Wax publish stats and run a few policy passes before loading. *)
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 400_000_000L) eng;
  let pcfg =
    {
      Workloads.Pmake.default with
      Workloads.Pmake.files = 2 * dims.cells;
      jobs = max 4 dims.cells;
      anon_pages = 64;
    }
  in
  Workloads.Pmake.setup sys pcfg;
  (* Fail-stop the last cell 500 ms into the build; detection runs off the
     published-clock stall, recovery excises the cell, auto-reintegration
     brings it back while the surviving compiles keep going. *)
  let victim = dims.cells - 1 in
  let t_fault = ref 0L in
  let t_reunified = ref 0L in
  let unified () =
    (not sys.Hive.Types.recovery_in_progress)
    && Array.for_all
         (fun (c : Hive.Types.cell) ->
           Hive.Types.cell_alive c
           && List.length c.Hive.Types.live_set = dims.cells)
         sys.Hive.Types.cells
  in
  ignore
    (Sim.Engine.spawn eng ~name:"scale-fault" (fun () ->
         Sim.Engine.delay 500_000_000L;
         t_fault := Sim.Engine.now eng;
         Hive.System.inject_node_failure sys
           (List.hd sys.Hive.Types.cells.(victim).Hive.Types.cell_nodes)));
  (* The build usually outlives reintegration, so sample the first moment
     the machine is whole again rather than crediting the build tail to
     recovery. *)
  ignore
    (Sim.Engine.spawn eng ~name:"scale-watch" (fun () ->
         while Int64.compare !t_fault 0L = 0 || not (unified ()) do
           Sim.Engine.delay 10_000_000L
         done;
         t_reunified := Sim.Engine.now eng));
  let result, _ = Workloads.Pmake.run ~cfg:pcfg sys in
  let reunified =
    Hive.System.run_until sys
      ~deadline:(Int64.add (Sim.Engine.now eng) 30_000_000_000L)
      unified
  in
  let recovery_ms =
    if reunified && Int64.compare !t_reunified !t_fault > 0 then
      Int64.to_float (Int64.sub !t_reunified !t_fault) /. 1e6
    else 0.
  in
  let snap = Hive.Metrics.capture sys in
  let rpc_calls =
    List.fold_left
      (fun acc (_, (h : Hive.Metrics.Snapshot.hist)) ->
        acc + h.Hive.Metrics.Snapshot.count)
      0 snap.Hive.Metrics.Snapshot.rpc_client
  in
  let per name =
    Array.fold_left
      (fun acc (c : Hive.Types.cell) ->
        acc + Sim.Stats.value c.Hive.Types.counters name)
      0 sys.Hive.Types.cells
  in
  let sysc name = Sim.Stats.value sys.Hive.Types.sys_counters name in
  (* Wax balancing effect: relative spread of free frames across the live
     cells (stddev over mean). The hint loop steers allocation toward the
     emptier cells, so a working Wax keeps this bounded as cells grow. *)
  let free_counts =
    Array.to_list sys.Hive.Types.cells
    |> List.filter Hive.Types.cell_alive
    |> List.map (fun c -> float_of_int (Hive.Page_alloc.free_count c))
  in
  let n = float_of_int (List.length free_counts) in
  let mean = List.fold_left ( +. ) 0. free_counts /. n in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. free_counts /. n
  in
  let spread_pct = if mean > 0. then 100. *. sqrt var /. mean else 0. in
  let invariants_clean = Hive.Invariants.check sys = [] in
  [
    metric "boot_ms" boot_ms;
    metric "recovery_ms" recovery_ms;
    metric "rpcs_per_compile"
      (float_of_int rpc_calls /. float_of_int pcfg.Workloads.Pmake.files);
    metric ~dir:Higher_better "reunified" (if reunified then 1. else 0.);
    metric ~dir:Higher_better "invariants_clean"
      (if invariants_clean then 1. else 0.);
    metric ~dir:Higher_better "wax_incarnations"
      (float_of_int (sysc "wax.incarnations"));
    metric ~dir:Info "free_spread_pct" spread_pct;
    metric ~dir:Info "swap_hints_acted"
      (float_of_int (per "wax.swap_hints_acted"));
    metric ~dir:Info "rejected_hints" (float_of_int (per "wax.rejected_hints"));
    metric ~dir:Info "elapsed_ms"
      (Int64.to_float result.Workloads.Workload.elapsed_ns /. 1e6);
    metric ~dir:Info "compiles" (float_of_int pcfg.Workloads.Pmake.files);
  ]

let declare_scale () =
  let base =
    { default_dims with workload = "scale"; ws_pages = 512 }
  in
  (* Boot N cells over 2N nodes with Wax hints driving placement, run a
     pmake sized to the machine, fail-stop one cell mid-build, and reunify
     through recovery + reintegration (ws = pages per node); gates
     boot/recovery scaling and hint-validation health. *)
  ignore
    (declare ~name:"large-machine" ~area:"scale"
       ~dims:
         [
           { base with cells = 4; nodes = 8 };
           { base with cells = 16; nodes = 32 };
           { base with cells = 32; nodes = 64 };
           { base with cells = 64; nodes = 128 };
         ]
       ~quick:
         [
           { base with cells = 4; nodes = 8 };
           { base with cells = 32; nodes = 64 };
         ]
       run_scale)

(* ---------- area paper ---------- *)

(* The paper's own evaluation (Sections 4.1, 4.2, 5.2, 6 and Tables 5.2,
   7.2-7.4) plus the design ablations, as gated rows. A metric the paper
   also reports carries the published value as [paper]. The machine is
   the paper's four processors, one cell each, unless a row says
   otherwise. *)

(* Section 6: null RPC, the RPC part of a common request (64-byte
   argument), and a null RPC through the queued service. *)
let run_rpc_latency (dims : dims) =
  let eng, sys = boot_dims dims in
  Harness.register_bench_ops ();
  let avg op arg_bytes = Harness.avg_rpc_us eng sys ~op ~arg_bytes ~n:1000 in
  let null_us = avg Harness.noop_op 0 in
  let common_us = avg Harness.noop_op 64 in
  let queued_us = avg Harness.noop_queued_op 0 in
  [
    metric ~paper:7.2 "null_us" null_us;
    metric ~paper:9.6 "common_us" common_us;
    metric ~paper:34. "queued_us" queued_us;
  ]

(* Section 4.1: a peer clock read under the careful reference protocol
   against the same data fetched by a null RPC. *)
let run_careful_ref (dims : dims) =
  let eng, sys = boot_dims dims in
  Harness.register_bench_ops ();
  let n = 1000 in
  let c0 = sys.Hive.Types.cells.(0) in
  let total =
    Harness.timed_in_thread eng (fun () ->
        for _ = 1 to n do
          match Hive.Clock.read_peer_clock sys c0 ~target:1 with
          | Ok _ -> ()
          | Error _ -> failwith "careful-ref: careful read failed"
        done)
  in
  let careful_us = Int64.to_float total /. float_of_int n /. 1e3 in
  let rpc_us =
    Harness.avg_rpc_us eng sys ~op:Harness.noop_op ~arg_bytes:0 ~n
  in
  [
    metric ~paper:1.16 "careful_us" careful_us;
    metric ~paper:7.2 "rpc_us" rpc_us;
    metric ~dir:Higher_better ~paper:6. "speedup" (rpc_us /. careful_us);
  ]

(* Table 5.2 and the page-fault row of Table 7.3: mean latency of
   [ws_pages] read faults that hit the data home's page cache, taken on
   the home cell (local) and on the last cell (remote). *)
let run_pagefault (dims : dims) =
  let _eng, sys = boot_dims dims in
  let npages = dims.ws_pages in
  let path = Harness.make_warm_file sys ~npages in
  let mean_fault_us cell =
    let acc = Sim.Stats.histogram () in
    touch_pages sys ~cell ~path ~npages acc;
    Sim.Stats.mean acc /. 1e3
  in
  let local_us = mean_fault_us 0 in
  let remote_us = mean_fault_us (dims.cells - 1) in
  [
    metric ~paper:6.9 "local_us" local_us;
    metric ~paper:50.7 "remote_us" remote_us;
    metric ~paper:7.4 "remote_over_local" (remote_us /. local_us);
  ]

(* Section 5.2: page-cache faults taken during pmake, how many went
   remote, and their cumulative latency. *)
let run_pagefault_pmake (dims : dims) =
  let _eng, sys = boot_dims dims in
  Workloads.Pmake.setup sys Workloads.Pmake.default;
  let totals () =
    Array.fold_left
      (fun (local, remote, ns) (c : Hive.Types.cell) ->
        let l = c.Hive.Types.fault_in_cache_ns in
        let r = c.Hive.Types.remote_fault_ns in
        ( local + Sim.Stats.count l,
          remote + Sim.Stats.count r,
          ns +. Sim.Stats.sum l +. Sim.Stats.sum r ))
      (0, 0, 0.) sys.Hive.Types.cells
  in
  let l0, r0, ns0 = totals () in
  ignore (run_workload sys "pmake");
  let l1, r1, ns1 = totals () in
  let four v = if dims.cells = 4 then Some v else None in
  [
    metric ?paper:(four 8935.) "faults" (float_of_int (l1 - l0 + (r1 - r0)));
    metric ?paper:(four 4946.) "remote_faults" (float_of_int (r1 - r0));
    metric
      ~paper:(if dims.cells = 4 then 455. else 117.)
      "fault_ms"
      ((ns1 -. ns0) /. 1e6);
  ]

(* Section 4.2, firewall overhead: one remote page write with the
   firewall check on and off. [Memory.access_cost] adds
   [firewall_check_ns] to every line, so the overhead is a property of
   the machine model, the same for any workload. *)
let remote_write_miss_ns ~firewall_enabled =
  let eng = Sim.Engine.create () in
  let cfg = { Flash.Config.default with firewall_enabled } in
  let m = Flash.Machine.create eng cfg in
  let mem = Flash.Machine.memory m in
  Flash.Firewall.grant (Flash.Machine.firewall m) ~by:0 ~pfn:0 ~proc:1;
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Flash.Memory.write eng mem ~by:1 0
           (Bytes.make cfg.Flash.Config.page_size 'x')));
  Sim.Engine.run eng;
  Flash.Memory.remote_write_miss_avg_ns mem

(* Section 4.2, exposure: remotely-writable pages per cell, sampled every
   20 ms for 5 s of execution after a 1 s warm-up. *)
let writable_pages (dims : dims) =
  let eng, sys = boot_dims dims in
  setup_workload sys dims.workload;
  let samples =
    Array.map (fun _ -> Sim.Stats.histogram ()) sys.Hive.Types.cells
  in
  ignore
    (Sim.Engine.spawn eng ~name:"sampler" (fun () ->
         Sim.Engine.delay 1_000_000_000L;
         for _ = 1 to 250 do
           Sim.Engine.delay 20_000_000L;
           Array.iteri
             (fun i c ->
               if Hive.Types.cell_alive c then
                 Sim.Stats.add samples.(i)
                   (Int64.of_int
                      (Hive.Wild_write.remotely_writable_pages sys c)))
             sys.Hive.Types.cells
         done));
  ignore (run_workload sys dims.workload);
  let avg =
    Array.fold_left (fun acc s -> acc +. Sim.Stats.mean s) 0. samples
    /. float_of_int (Array.length samples)
  in
  let peak =
    Array.fold_left (fun acc s -> max acc (Sim.Stats.max_value s)) 0. samples
  in
  let pmake = dims.workload = "pmake" in
  [
    metric ~paper:(if pmake then 15. else 550.) "avg_writable_pages" avg;
    metric ?paper:(if pmake then Some 42. else None) "peak_writable_pages" peak;
  ]

let run_firewall (dims : dims) =
  if dims.workload <> "write-miss" then writable_pages dims
  else
    let on_ns = remote_write_miss_ns ~firewall_enabled:true in
    let off_ns = remote_write_miss_ns ~firewall_enabled:false in
    [
      metric "checked_ns" on_ns;
      metric "unchecked_ns" off_ns;
      (* The paper measures 6.3% under pmake and 4.4% under ocean. *)
      metric ~paper:6.3 "overhead_pct" ((on_ns -. off_ns) /. off_ns *. 100.);
    ]

(* Table 7.2: the workload's run time in IRIX mode (the SMP-OS baseline)
   and its slowdown on 1, 2 and 4 cells. *)
let run_table_7_2 (dims : dims) =
  let run cells smp = workload_result { dims with cells; smp } in
  let irix = run 1 true in
  let c1 = run 1 false in
  let c2 = run 2 false in
  let c4 = run 4 false in
  let secs r = Workloads.Workload.ns_to_s r.Workloads.Workload.elapsed_ns in
  let base = secs irix in
  let slowdown cells r paper =
    metric ~paper
      (Printf.sprintf "slowdown_%dcell_pct" cells)
      ((secs r -. base) /. base *. 100.)
  in
  let p_irix, (p1, p2, p4) =
    match dims.workload with
    | "ocean" -> (6.07, (1., 1., -1.))
    | "raytrace" -> (4.35, (0., 0., 1.))
    | _ -> (5.77, (1., 10., 11.))
  in
  [
    metric ~paper:p_irix "irix_s" base;
    slowdown 1 c1 p1;
    slowdown 2 c2 p2;
    slowdown 4 c4 p4;
    metric ~dir:Higher_better "completed"
      (if
         List.for_all
           (fun r -> r.Workloads.Workload.completed)
           [ irix; c1; c2; c4 ]
       then 1.
       else 0.);
  ]

(* Table 7.3: one kernel operation timed on the home cell of a warm
   [ws_pages] file (local) and on the other cell (remote). *)
let run_table_7_3 (dims : dims) =
  let bytes = dims.ws_pages * Flash.Config.default.Flash.Config.page_size in
  let op sys p path =
    match dims.workload with
    | "read" ->
      let fd = Hive.Syscall.openf sys p path in
      ignore (Hive.Syscall.read sys p ~fd ~len:bytes);
      Hive.Syscall.close sys p ~fd
    | "write" ->
      let fd = Hive.Syscall.creat sys p "/tmp/bench.out" in
      ignore (Hive.Syscall.write sys p ~fd (Bytes.make bytes 'x'));
      Hive.Syscall.close sys p ~fd
    | _ ->
      let fd = Hive.Syscall.openf sys p path in
      Hive.Syscall.close sys p ~fd
  in
  let measure cell =
    let eng, sys = boot_dims dims in
    let path = Harness.make_warm_file sys ~npages:dims.ws_pages in
    let out = ref 0L in
    let p =
      Hive.Process.spawn sys sys.Hive.Types.cells.(cell) ~name:"op"
        (fun sys p ->
          let t0 = Sim.Engine.time () in
          op sys p path;
          out := Int64.sub (Sim.Engine.time ()) t0)
    in
    ignore
      (Hive.System.run_until_processes_done sys
         ~deadline:(Int64.add (Sim.Engine.now eng) 600_000_000_000L)
         [ p ]);
    Int64.to_float !out
  in
  let local = measure 0 in
  let remote = measure 1 in
  let unit_, scale, (p_local, p_remote, p_ratio) =
    match dims.workload with
    | "read" -> ("ms", 1e6, (65.0, 76.2, 1.2))
    | "write" -> ("ms", 1e6, (83.7, 87.3, 1.1))
    | _ -> ("us", 1e3, (148., 580., 3.9))
  in
  [
    metric ~paper:p_local ("local_" ^ unit_) (local /. scale);
    metric ~paper:p_remote ("remote_" ^ unit_) (remote /. scale);
    metric ~paper:p_ratio "remote_over_local" (remote /. local);
  ]

(* The Table 7.4 campaigns as fixed plan lists, judged by the same oracle
   as a fuzz seed: node failure during process creation (pmake), during
   copy-on-write search (raytrace) and at random times (pmake); corrupt
   pointer in a process address map (pmake) and in the copy-on-write tree
   (raytrace). Fault times count from the end of workload setup. The
   sampled lists take a fifth of each campaign, at least two tests. *)
let table_7_4_plans ~full =
  let n k = if full then k else max 2 (k / 5) in
  let modes = Faultinj.Campaign.modes in
  let campaign label k ~seed workload fault =
    ( label,
      List.init (n k) (fun i ->
          Faultinj.Fuzz.paper_plan
            ~seed:(Int64.of_int (seed + i))
            workload [ fault i ]) )
  in
  let victim i = 1 + (i mod 3) in
  let random_at = Sim.Prng.create 42 in
  [
    (* Inject early, while the driver is forking compile jobs. *)
    campaign "node failure during process creation (pmake)" 20 ~seed:100
      Faultinj.Fuzz.Pmake (fun i ->
        Faultinj.Campaign.Node_failure
          { node = victim i; at_ns = Int64.of_int (40_000_000 * (i + 2)) });
    (* Inject while workers fault scene pages through the tree. *)
    campaign "node failure during copy-on-write search (raytrace)" 9
      ~seed:200 Faultinj.Fuzz.Raytrace (fun i ->
        Faultinj.Campaign.Node_failure
          { node = victim i; at_ns = Int64.of_int (15_000_000 * (i + 1)) });
    campaign "node failure at random time (pmake)" 20 ~seed:300
      Faultinj.Fuzz.Pmake (fun i ->
        let at = 50_000_000 + Sim.Prng.int random_at 4_000_000_000 in
        Faultinj.Campaign.Node_failure
          { node = victim i; at_ns = Int64.of_int at });
    campaign "corrupt pointer in process address map (pmake)" 8 ~seed:400
      Faultinj.Fuzz.Pmake (fun i ->
        Faultinj.Campaign.Corrupt_map
          { victim_cell = victim i;
            at_ns = Int64.of_int (120_000_000 * (i + 1));
            mode = modes.(i mod Array.length modes) });
    (* Injected mid-run, so the corruption lies dormant until a later
       copy-on-write search trips it: that is why the paper's detection
       latencies here are an order of magnitude above the clock-monitoring
       bound. *)
    campaign "corrupt pointer in copy-on-write tree (raytrace)" 12 ~seed:500
      Faultinj.Fuzz.Raytrace (fun i ->
        Faultinj.Campaign.Corrupt_cow
          { victim_cell = victim i;
            at_ns = Int64.of_int (300_000_000 + (180_000_000 * i));
            mode = modes.(i mod Array.length modes) });
  ]

(* Metric prefix and the paper's tests and detection avg/max (ms) for
   each campaign of [table_7_4_plans], in the same order. *)
let table_7_4_paper =
  [
    ("fork_node", 20., 16., 21.);
    ("cow_node", 9., 10., 11.);
    ("random_node", 20., 21., 45.);
    ("map_corrupt", 8., 38., 65.);
    ("cow_corrupt", 12., 401., 760.);
  ]

(* Table 7.4: [ws_pages] plans in all, 69 for the full campaigns. A test
   is contained when [Fuzz.passed] holds. *)
let run_table_7_4 (dims : dims) =
  let full = dims.ws_pages = 69 in
  let if_full v = if full then Some v else None in
  let campaigns = table_7_4_plans ~full in
  if
    List.fold_left (fun n (_, plans) -> n + List.length plans) 0 campaigns
    <> dims.ws_pages
  then invalid_arg "table-7.4: ws_pages must be 69 or 14";
  let avg xs =
    if xs = [] then 0.
    else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let contained = ref 0 in
  let rows =
    List.map2
      (fun (_, plans) (key, p_tests, p_avg, p_max) ->
        let records = List.map Faultinj.Fuzz.run_plan plans in
        let ok = List.map2 Faultinj.Fuzz.passed plans records in
        List.iter2
          (fun (r : Faultinj.Fuzz.record) ok ->
            if not ok then
              Printf.eprintf "table-7.4: not contained: %s [%s]\n%!"
                r.Faultinj.Fuzz.r_plan
                (String.concat "; " r.Faultinj.Fuzz.r_violations))
          records ok;
        let n = List.length records in
        let passed = List.length (List.filter Fun.id ok) in
        contained := !contained + passed;
        let det =
          List.filter_map (fun r -> r.Faultinj.Fuzz.r_detect_ms) records
        in
        let recov =
          List.filter_map (fun r -> r.Faultinj.Fuzz.r_recovery_ms) records
        in
        let m ?dir ?paper name v = metric ?dir ?paper (key ^ "." ^ name) v in
        [
          m ~dir:Info ?paper:(if_full p_tests) "tests" (float_of_int n);
          m ~dir:Higher_better "contained" (float_of_int passed);
          m ~paper:p_avg "detect_avg_ms" (avg det);
          m ~paper:p_max "detect_max_ms" (List.fold_left max 0. det);
          m "recovery_avg_ms" (avg recov);
        ])
      campaigns table_7_4_paper
  in
  List.concat rows
  @ [ metric ~dir:Higher_better ?paper:(if_full 69.) "contained"
        (float_of_int !contained) ]

(* Ablation: detection latency of a node failure at clock-monitoring
   tick [tick_ms]. *)
let detect_ms (dims : dims) ~tick_ms =
  let params =
    { Hive.Params.default with tick_ns = Int64.of_int (tick_ms * 1_000_000) }
  in
  let eng, sys = boot_dims ~params dims in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
  let t0 = Sim.Engine.now eng in
  Hive.System.inject_node_failure sys 1;
  ignore
    (Hive.System.run_until sys
       ~deadline:(Int64.add t0 10_000_000_000L)
       (fun () ->
         (not sys.Hive.Types.recovery_in_progress)
         && sys.Hive.Types.recovery_events <> []));
  match Hive.System.detection_latency_ns sys ~t_fault:t0 with
  | Some ns -> Int64.to_float ns /. 1e6
  | None -> failwith "ablations: node failure never detected"

(* Ablation: cell 1 walks a COW node homed on cell 0 by careful
   reference; the paper found no large benefit over an RPC (Section 5.3). *)
let cow_walk_us (dims : dims) =
  let eng, sys = boot_dims dims in
  let node = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         node := Some (Hive.Cow.create_root sys sys.Hive.Types.cells.(0) ())));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000L) eng;
  let node = Option.get !node in
  let t =
    Harness.timed_in_thread eng (fun () ->
        for _ = 1 to 500 do
          ignore (Hive.Cow.lookup sys sys.Hive.Types.cells.(1) node ~page:3)
        done)
  in
  Int64.to_float t /. 500. /. 1e3

(* Ablation: a page of a file homed on cell 0 is scribbled by cell 1's
   wild write just before cell 1 fails; is the corruption visible to a
   fresh open after recovery? Without preemptive discard it survives and
   reads back as good data. *)
let corrupt_visible (dims : dims) ~discard =
  let params =
    { Hive.Params.default with enable_preemptive_discard = discard }
  in
  let _eng, sys = boot_dims ~params dims in
  let path = "/tmp/integrity.dat" in
  let corrupted_seen = ref false in
  let victim =
    Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"victim"
      (fun sys p ->
        ignore
          (Hive.Syscall.creat sys p ~content:(Bytes.make 4096 'G') path);
        Hive.Syscall.sync sys p;
        (* Cell 1 obtains write access... *)
        ignore
          (Hive.Syscall.fork sys p ~on_cell:1 ~name:"writer" (fun sys c ->
               let wfd = Hive.Syscall.openf sys c ~writable:true path in
               ignore
                 (Hive.Syscall.pwrite sys c ~fd:wfd ~pos:0
                    (Bytes.of_string "G"));
               (* ...then its kernel goes wild and scribbles before dying. *)
               (match Hive.Fs.find_local sys.Hive.Types.cells.(0) path with
               | Some f -> (
                 match Hashtbl.find_opt f.Hive.Types.cached_pages 0 with
                 | Some pf -> (
                   let addr =
                     Flash.Addr.addr_of_pfn sys.Hive.Types.mcfg
                       pf.Hive.Types.pfn
                   in
                   try
                     Flash.Memory.poke_wild
                       (Flash.Machine.memory sys.Hive.Types.machine)
                       ~by:(Hive.Types.boss_proc sys.Hive.Types.cells.(1))
                       addr (Bytes.make 64 '\xBB')
                   with Flash.Memory.Bus_error _ -> ())
                 | None -> ())
               | None -> ());
               Hive.Syscall.compute sys c 10_000_000_000L));
        Sim.Engine.delay 100_000_000L;
        Hive.System.inject_node_failure sys
          (Hive.Types.boss_proc sys.Hive.Types.cells.(1));
        Sim.Engine.delay 500_000_000L;
        (* Read through a fresh descriptor after recovery. *)
        let fd = Hive.Syscall.openf sys p path in
        let b = Hive.Syscall.pread sys p ~fd ~pos:0 ~len:64 in
        corrupted_seen := Bytes.exists (fun ch -> ch = '\xBB') b)
  in
  ignore
    (Hive.System.run_until_processes_done sys ~deadline:30_000_000_000L
       [ victim ]);
  if !corrupted_seen then 1. else 0.

let run_ablation (dims : dims) =
  match dims.workload with
  | "tick" ->
    List.map
      (fun tick_ms ->
        metric (Printf.sprintf "detect_ms_tick_%dms" tick_ms)
          (detect_ms dims ~tick_ms))
      [ 2; 10; 50 ]
  | "cow-walk" -> [ metric "careful_us_per_node" (cow_walk_us dims) ]
  | _ ->
    let on = corrupt_visible dims ~discard:true in
    let off = corrupt_visible dims ~discard:false in
    [
      metric "corrupt_visible_discard_on" on;
      (* The ablation shows the defense only while this stays 1. *)
      metric ~dir:Higher_better "corrupt_visible_discard_off" off;
    ]

let declare_paper () =
  (* Every paper row is cheap enough for the reduced grid except the full
     69-test Table 7.4 run. *)
  let paper ~name ?quick dims run =
    let quick = Option.value quick ~default:dims in
    ignore (declare ~name ~area:"paper" ~dims ~quick run)
  in
  let on w = { default_dims with workload = w; cells = 4; nodes = 4 } in
  (* Section 6: null, common-request and queued null RPC latency. *)
  paper ~name:"rpc-latency" [ on "rpc" ] run_rpc_latency;
  (* Section 4.1: careful-reference peer clock read vs the same via RPC. *)
  paper ~name:"careful-ref" [ on "clock" ] run_careful_ref;
  let fault = { (on "fault") with ws_pages = 1024; import_cache = false } in
  (* Table 5.2 (4 cells) and the Table 7.3 fault row (2 cells): local vs
     remote read faults hitting the data home's cache, paper's sharing
     protocol. *)
  paper ~name:"pagefault"
    [ fault; { fault with cells = 2; nodes = 2 } ]
    run_pagefault;
  let pm = { (on "pmake") with import_cache = false } in
  (* Section 5.2: page-cache faults under pmake and their cumulative
     latency, paper's sharing protocol. *)
  paper ~name:"pagefault-pmake"
    [ pm; { pm with cells = 1 } ]
    run_pagefault_pmake;
  (* Section 4.2: firewall check cost on a remote write miss (one on/off
     pair), and remotely-writable pages per cell under pmake and ocean. *)
  paper ~name:"firewall"
    [ on "write-miss"; on "pmake"; on "ocean" ]
    run_firewall;
  (* Table 7.2: IRIX-mode run time and 1/2/4-cell slowdown per workload. *)
  paper ~name:"table-7.2"
    [ on "ocean"; on "raytrace"; on "pmake" ]
    run_table_7_2;
  let t73 w =
    { default_dims with workload = w; cells = 2; nodes = 2; ws_pages = 1024 }
  in
  (* Table 7.3: local vs remote 4 MB read, 4 MB write/extend and open on 2
     processors / 2 cells. *)
  paper ~name:"table-7.3"
    [ t73 "read"; t73 "write"; t73 "open" ]
    run_table_7_3;
  let t74 n = { (on "faultinj") with ws_pages = n } in
  (* Table 7.4: fault-injection campaigns through Fuzz.run_plan (ws = plans:
     69 full, 14 sampled); detection, recovery, containment. *)
  paper ~name:"table-7.4"
    [ t74 69; t74 14 ] ~quick:[ t74 14 ] run_table_7_4;
  (* Design ablations: clock tick vs detection latency, careful-reference
     COW walk, preemptive discard on/off. *)
  paper ~name:"ablations"
    [ on "tick"; on "cow-walk"; { (on "discard") with cells = 2 } ]
    run_ablation

(* ---------- registration ---------- *)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    declare_rpc ();
    declare_sharing ();
    declare_fuzz ();
    declare_resilience ();
    declare_traffic ();
    declare_scale ();
    declare_paper ()
  end
