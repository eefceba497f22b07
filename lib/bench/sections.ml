(* Paper-reproduction sections: regenerate every measured table and figure
   of the paper and print paper-vs-measured rows. Shared plumbing lives in
   Harness; per-op latency numbers come from the typed Metrics snapshot
   (the same structure hive_sim --metrics-json writes). *)

open Harness

(* ---------- Section 6: RPC latency ---------- *)

(* Per-op client-side latency percentiles, from the kernel's own
   instrumentation. *)
let rpc_percentile_rows sys =
  let snap = Hive.Metrics.capture sys in
  List.iter
    (fun (name, (h : Hive.Metrics.Snapshot.hist)) ->
      row "%-26s n=%-6d p50 %6.1f us   p95 %6.1f us   p99 %6.1f us" name
        h.Hive.Metrics.Snapshot.count
        (h.Hive.Metrics.Snapshot.p50_ns /. 1e3)
        (h.Hive.Metrics.Snapshot.p95_ns /. 1e3)
        (h.Hive.Metrics.Snapshot.p99_ns /. 1e3))
    snap.Hive.Metrics.Snapshot.rpc_client

let rpc_latency () =
  section_header "rpc-latency (Section 6)";
  let eng, sys = boot () in
  register_bench_ops ();
  let null_us = avg_rpc_us eng sys ~op:noop_op ~arg_bytes:0 ~n:1000 in
  let common_us = avg_rpc_us eng sys ~op:noop_op ~arg_bytes:64 ~n:1000 in
  let queued_us =
    avg_rpc_us eng sys ~op:noop_queued_op ~arg_bytes:0 ~n:1000
  in
  compare_row ~label:"null RPC end-to-end" ~paper:"7.2"
    ~measured:(Printf.sprintf "%.1f" null_us) ~unit_:"us";
  compare_row ~label:"RPC component of common request" ~paper:"9.6"
    ~measured:(Printf.sprintf "%.1f" common_us) ~unit_:"us";
  compare_row ~label:"null queued RPC" ~paper:"34"
    ~measured:(Printf.sprintf "%.1f" queued_us) ~unit_:"us";
  rpc_percentile_rows sys

(* ---------- Section 4.1: careful reference ---------- *)

let careful_ref () =
  section_header "careful-ref (Section 4.1)";
  let eng, sys = boot () in
  register_bench_ops ();
  let c0 = sys.Hive.Types.cells.(0) in
  let n = 1000 in
  let total =
    timed_in_thread eng (fun () ->
        for _ = 1 to n do
          match Hive.Clock.read_peer_clock sys c0 ~target:1 with
          | Ok _ -> ()
          | Error _ -> failwith "careful read failed"
        done)
  in
  let careful_us = Int64.to_float total /. float_of_int n /. 1e3 in
  let rpc_us = avg_rpc_us eng sys ~op:noop_op ~arg_bytes:0 ~n in
  compare_row ~label:"careful reference clock read" ~paper:"1.16"
    ~measured:(Printf.sprintf "%.2f" careful_us) ~unit_:"us";
  compare_row ~label:"same data via RPC" ~paper:">= 7.2"
    ~measured:(Printf.sprintf "%.1f" rpc_us) ~unit_:"us";
  row "speedup of shared-memory read: %.1fx (paper ~6x)" (rpc_us /. careful_us)

(* ---------- shared fault microbenchmark ---------- *)

let fault_latencies ~ncells () =
  let eng, sys = boot ~ncells () in
  let npages = 1024 in
  let path = make_warm_file sys ~npages in
  let run_on ~cell =
    let c = sys.Hive.Types.cells.(cell) in
    let acc = Sim.Stats.summary () in
    let p =
      Hive.Process.spawn sys c ~name:"faulter" (fun sys p ->
          let fd = Hive.Syscall.openf sys p path in
          let r = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:false in
          for k = 0 to npages - 1 do
            let t0 = Sim.Engine.time () in
            Hive.Syscall.touch sys p ~vpage:(r.Hive.Types.start_page + k)
              ~write:false;
            Sim.Stats.add_ns acc (Int64.sub (Sim.Engine.time ()) t0)
          done)
    in
    ignore
      (Hive.System.run_until_processes_done sys
         ~deadline:(Int64.add (Sim.Engine.now eng) 400_000_000_000L)
         [ p ]);
    Sim.Stats.mean acc /. 1e3
  in
  let local_us = run_on ~cell:0 in
  let remote_us = run_on ~cell:(ncells - 1) in
  (local_us, remote_us)

let pagefault_breakdown () =
  section_header "pagefault-breakdown (Table 5.2)";
  let local_us, remote_us = fault_latencies ~ncells:4 () in
  compare_row ~label:"local page fault (hit in page cache)" ~paper:"6.9"
    ~measured:(Printf.sprintf "%.1f" local_us) ~unit_:"us";
  compare_row ~label:"remote page fault (hit in data home cache)"
    ~paper:"50.7"
    ~measured:(Printf.sprintf "%.1f" remote_us)
    ~unit_:"us";
  let p = Hive.Params.default in
  row "calibrated client components (ns): fs=%Ld lock=%Ld vm=%Ld import=%Ld (paper: 28.0 us total)"
    p.Hive.Params.fault_client_fs_ns p.Hive.Params.fault_client_lock_ns
    p.Hive.Params.fault_client_vm_ns p.Hive.Params.fault_import_ns;
  row "calibrated data-home components (ns): vm=%Ld export=%Ld (paper: 5.4 us total; RPC adds ~17.3 us)"
    p.Hive.Params.fault_home_vm_ns p.Hive.Params.fault_export_ns

let pagefault_pmake () =
  section_header "pagefault-pmake (Section 5.2)";
  let run ncells =
    let _eng, sys = boot ~ncells () in
    Workloads.Pmake.setup sys Workloads.Pmake.default;
    let snapshot () =
      Array.fold_left
        (fun (f, r, lms, rms) (c : Hive.Types.cell) ->
          ( f + Sim.Stats.count c.Hive.Types.fault_in_cache_ns
            + Sim.Stats.count c.Hive.Types.remote_fault_ns,
            r + Sim.Stats.count c.Hive.Types.remote_fault_ns,
            lms +. (Sim.Stats.sum c.Hive.Types.fault_in_cache_ns /. 1e6),
            rms +. (Sim.Stats.sum c.Hive.Types.remote_fault_ns /. 1e6) ))
        (0, 0, 0., 0.) sys.Hive.Types.cells
    in
    let f0, r0, l0, m0 = snapshot () in
    ignore (Workloads.Pmake.run sys);
    let f1, r1, l1, m1 = snapshot () in
    (f1 - f0, r1 - r0, l1 -. l0 +. (m1 -. m0))
  in
  let f1, _r1, t1 = run 1 in
  let f4, r4, t4 = run 4 in
  compare_row ~label:"page-cache faults during pmake (4 cells)" ~paper:"8935"
    ~measured:(string_of_int f4) ~unit_:"faults";
  compare_row ~label:"of which remote" ~paper:"4946"
    ~measured:(string_of_int r4) ~unit_:"faults";
  compare_row ~label:"cumulative fault time, 1 cell" ~paper:"117"
    ~measured:(Printf.sprintf "%.0f" t1) ~unit_:"ms";
  compare_row ~label:"cumulative fault time, 4 cells" ~paper:"455"
    ~measured:(Printf.sprintf "%.0f" t4) ~unit_:"ms";
  row "(1-cell fault count for reference: %d)" f1

(* ---------- Section 4.2: firewall ---------- *)

let firewall_latency () =
  section_header "firewall-latency (Section 4.2)";
  let run workload firewall_enabled =
    let mcfg = { Flash.Config.default with firewall_enabled } in
    let _eng, sys = boot ~mcfg () in
    (match workload with
    | `Pmake ->
      Workloads.Pmake.setup sys Workloads.Pmake.default;
      ignore (Workloads.Pmake.run sys)
    | `Ocean ->
      Workloads.Ocean.setup sys Workloads.Ocean.default;
      ignore (Workloads.Ocean.run sys));
    Flash.Memory.remote_write_miss_avg_ns
      (Flash.Machine.memory sys.Hive.Types.machine)
  in
  let report name workload paper =
    let on = run workload true in
    let off = run workload false in
    let overhead = (on -. off) /. off *. 100. in
    compare_row
      ~label:(name ^ ": firewall overhead on remote write miss")
      ~paper
      ~measured:(Printf.sprintf "%.1f%%" overhead)
      ~unit_:"";
    row "  (avg remote write miss: %.0f ns with, %.0f ns without)" on off
  in
  report "pmake" `Pmake "6.3%";
  report "ocean" `Ocean "4.4%"

let firewall_pages () =
  section_header "firewall-pages (Section 4.2)";
  let sample workload =
    let eng, sys = boot ~wax:false () in
    (match workload with
    | `Pmake -> Workloads.Pmake.setup sys Workloads.Pmake.default
    | `Ocean -> Workloads.Ocean.setup sys Workloads.Ocean.default);
    (* Sample every 20 ms over 5 s of execution, as in the paper. *)
    let samples =
      Array.map (fun _ -> Sim.Stats.summary ()) sys.Hive.Types.cells
    in
    ignore
      (Sim.Engine.spawn eng ~name:"sampler" (fun () ->
           (* Sample steady-state execution, skipping startup. *)
           Sim.Engine.delay 1_000_000_000L;
           for _ = 1 to 250 do
             Sim.Engine.delay 20_000_000L;
             Array.iteri
               (fun i c ->
                 if Hive.Types.cell_alive c then
                   Sim.Stats.add samples.(i)
                     (float_of_int
                        (Hive.Wild_write.remotely_writable_pages sys c)))
               sys.Hive.Types.cells
           done));
    (match workload with
    | `Pmake -> ignore (Workloads.Pmake.run sys)
    | `Ocean -> ignore (Workloads.Ocean.run sys));
    samples
  in
  let stats samples =
    let avg =
      Array.fold_left (fun acc s -> acc +. Sim.Stats.mean s) 0. samples
      /. float_of_int (Array.length samples)
    in
    let peak =
      Array.fold_left (fun acc s -> max acc (Sim.Stats.max_value s)) 0. samples
    in
    (avg, peak)
  in
  let pa, pp = stats (sample `Pmake) in
  compare_row ~label:"pmake: avg remotely-writable pages per cell" ~paper:"15"
    ~measured:(Printf.sprintf "%.0f" pa) ~unit_:"pages";
  compare_row ~label:"pmake: peak (the /tmp file server cell)" ~paper:"42"
    ~measured:(Printf.sprintf "%.0f" pp) ~unit_:"pages";
  let oa, _ = stats (sample `Ocean) in
  compare_row ~label:"ocean: avg remotely-writable pages per cell"
    ~paper:"550"
    ~measured:(Printf.sprintf "%.0f" oa)
    ~unit_:"pages"

(* ---------- Table 7.2: workload timings ---------- *)

let table_7_2 () =
  section_header "table-7.2 (workload timings, four processors)";
  let run_workload name ncells smp =
    let mcfg =
      if smp then { Flash.Config.default with firewall_enabled = false }
      else Flash.Config.default
    in
    let eng = Sim.Engine.create () in
    let sys =
      Hive.System.boot ~mcfg ~ncells ~multicellular:(not smp) ~wax:false eng
    in
    let result, _ =
      match name with
      | "ocean" ->
        Workloads.Ocean.setup sys Workloads.Ocean.default;
        Workloads.Ocean.run sys
      | "raytrace" -> Workloads.Raytrace.run sys
      | _ ->
        Workloads.Pmake.setup sys Workloads.Pmake.default;
        Workloads.Pmake.run sys
    in
    if not result.Workloads.Workload.completed then
      row "WARNING: %s on %d cells did not complete" name ncells;
    Workloads.Workload.ns_to_s result.Workloads.Workload.elapsed_ns
  in
  let paper_base = [ ("ocean", 6.07); ("raytrace", 4.35); ("pmake", 5.77) ] in
  let paper_slow =
    [
      ("ocean", (1., 1., -1.));
      ("raytrace", (0., 0., 1.));
      ("pmake", (1., 10., 11.));
    ]
  in
  List.iter
    (fun name ->
      let base = run_workload name 1 true in
      let t1 = run_workload name 1 false in
      let t2 = run_workload name 2 false in
      let t4 = run_workload name 4 false in
      let slow t = (t -. base) /. base *. 100. in
      let p_base = List.assoc name paper_base in
      let p1, p2, p4 = List.assoc name paper_slow in
      row "%-9s IRIX-mode %5.2fs (paper %4.2fs)" name base p_base;
      row "          1 cell %+5.1f%% (paper %+3.0f%%)   2 cells %+5.1f%% (paper %+3.0f%%)   4 cells %+5.1f%% (paper %+3.0f%%)"
        (slow t1) p1 (slow t2) p2 (slow t4) p4)
    [ "ocean"; "raytrace"; "pmake" ]

(* ---------- Table 7.3: local vs remote kernel operations ---------- *)

let table_7_3 () =
  section_header
    "table-7.3 (local vs remote kernel operations, 2 CPUs / 2 cells)";
  let mcfg = Flash.Config.with_nodes Flash.Config.default 2 in
  let psize = Flash.Config.default.Flash.Config.page_size in
  let mb4 = 4 * 1024 * 1024 in
  let npages = mb4 / psize in
  let measure ~cell f =
    let eng = Sim.Engine.create () in
    let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
    let path = make_warm_file sys ~npages in
    let out = ref 0L in
    let c = sys.Hive.Types.cells.(cell) in
    let p =
      Hive.Process.spawn sys c ~name:"op" (fun sys p ->
          let t0 = Sim.Engine.time () in
          f sys p path;
          out := Int64.sub (Sim.Engine.time ()) t0)
    in
    ignore
      (Hive.System.run_until_processes_done sys
         ~deadline:(Int64.add (Sim.Engine.now eng) 600_000_000_000L)
         [ p ]);
    !out
  in
  let read_4mb sys p path =
    let fd = Hive.Syscall.openf sys p path in
    ignore (Hive.Syscall.read sys p ~fd ~len:mb4);
    Hive.Syscall.close sys p ~fd
  in
  let write_4mb sys p _path =
    let fd = Hive.Syscall.creat sys p "/tmp/bench.out" in
    ignore (Hive.Syscall.write sys p ~fd (Bytes.make mb4 'x'));
    Hive.Syscall.close sys p ~fd
  in
  let open_file sys p path =
    let fd = Hive.Syscall.openf sys p path in
    Hive.Syscall.close sys p ~fd
  in
  let bench label paper_l paper_r paper_ratio op unit_ scale =
    let local = measure ~cell:0 op in
    let remote = measure ~cell:1 op in
    let l = Int64.to_float local /. scale in
    let r = Int64.to_float remote /. scale in
    row "%-26s local %8.1f (p %6.1f)  remote %8.1f (p %6.1f) %s  ratio %.1f (p %.1f)"
      label l paper_l r paper_r unit_ (r /. l) paper_ratio
  in
  bench "4 MB file read" 65.0 76.2 1.2 read_4mb "ms" 1e6;
  bench "4 MB file write/extend" 83.7 87.3 1.1 write_4mb "ms" 1e6;
  bench "open file" 148. 580. 3.9 open_file "us" 1e3;
  let local_us, remote_us = fault_latencies ~ncells:2 () in
  row "%-26s local %8.1f (p %6.1f)  remote %8.1f (p %6.1f) us  ratio %.1f (p %.1f)"
    "page fault (cache hit)" local_us 6.9 remote_us 50.7
    (remote_us /. local_us) 7.4

(* ---------- Table 7.4: fault injection ---------- *)

(* The five campaigns as fixed plan lists, judged by the same oracle as a
   fuzz seed: node failure during process creation (pmake), during
   copy-on-write search (raytrace) and at random times (pmake); corrupt
   pointer in a process address map (pmake) and in the copy-on-write tree
   (raytrace). Fault times count from the end of workload setup. Quick
   mode samples a fifth of each campaign, at least two tests. *)
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

let table_7_4 ?(full = true) () =
  section_header
    (if full then "table-7.4 (fault injection, four cells, full 69 tests)"
     else "table-7.4 (fault injection, sampled)");
  let paper =
    [
      (20, 16., 21.);
      (9, 10., 11.);
      (20, 21., 45.);
      (8, 38., 65.);
      (12, 401., 760.);
    ]
  in
  let avg xs =
    if xs = [] then 0.
    else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let total = ref 0 in
  let contained = ref 0 in
  List.iter2
    (fun (label, plans) (pt, pavg, pmax) ->
      let records = List.map Faultinj.Fuzz.run_plan plans in
      let verdicts = List.map2 Faultinj.Fuzz.passed plans records in
      let tests = List.length records in
      let passed = List.for_all Fun.id verdicts in
      let det =
        List.filter_map (fun r -> r.Faultinj.Fuzz.r_detect_ms) records
      in
      let rec_ =
        List.filter_map (fun r -> r.Faultinj.Fuzz.r_recovery_ms) records
      in
      total := !total + tests;
      if passed then contained := !contained + tests;
      row "%-52s %2d tests (paper %2d)" label tests pt;
      row "    detection avg %5.0f max %5.0f ms (paper %3.0f/%3.0f)  recovery avg %3.0f ms (paper 40-80)  contained: %s"
        (avg det) (List.fold_left max 0. det) pavg pmax (avg rec_)
        (if passed then "ALL" else "FAILED");
      List.iter2
        (fun r ok ->
          if not ok then
            row "    FAILURE: %s: injected=[%s] contained=%b violations=[%s]"
              r.Faultinj.Fuzz.r_plan
              (String.concat "; " r.Faultinj.Fuzz.r_injected)
              r.Faultinj.Fuzz.r_contained
              (String.concat "; " r.Faultinj.Fuzz.r_violations))
        records verdicts)
    (table_7_4_plans ~full) paper;
  row "TOTAL: effects contained in %d of %d tests (paper: 69 of 69)"
    !contained !total

(* ---------- Table 3.4: Wax ---------- *)

let wax_bench () =
  section_header "wax (Table 3.4 policies)";
  let eng, sys = boot ~wax:true () in
  Workloads.Pmake.setup sys Workloads.Pmake.default;
  ignore (Workloads.Pmake.run sys);
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 500_000_000L) eng;
  row "wax incarnations started: %d" sys.Hive.Types.wax_incarnation;
  Array.iter
    (fun (c : Hive.Types.cell) ->
      row "cell %d: alloc preference [%s]  clock-hand targets [%s]  rejected hints %d"
        c.Hive.Types.cell_id
        (String.concat ";"
           (List.map string_of_int c.Hive.Types.alloc_preference))
        (String.concat ";"
           (List.map string_of_int c.Hive.Types.clock_hand_targets))
        (Sim.Stats.value c.Hive.Types.counters "wax.rejected_hints"))
    sys.Hive.Types.cells;
  let c1 = sys.Hive.Types.cells.(1) in
  let accepted = Hive.Wax.sanity_check_hint c1 [ 0; 0; 99 ] in
  row "corrupt Wax hint accepted by kernel: %b (must be false)" accepted;
  let before = sys.Hive.Types.wax_incarnation in
  Hive.System.inject_node_failure sys 3;
  ignore
    (Hive.System.run_until sys
       ~deadline:(Int64.add (Sim.Engine.now eng) 2_000_000_000L)
       (fun () -> sys.Hive.Types.wax_incarnation > before));
  row "wax restarted after cell failure: %b (incarnation %d -> %d)"
    (sys.Hive.Types.wax_incarnation > before)
    before sys.Hive.Types.wax_incarnation

(* ---------- Table 8.1: hardware features ---------- *)

let hw_features () =
  section_header "hw-features (Table 8.1)";
  let eng = Sim.Engine.create () in
  let m = Flash.Machine.create eng Flash.Config.default in
  let fw = Flash.Machine.firewall m in
  let ok = ref false in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let mem = Flash.Machine.memory m in
         (try Flash.Memory.write eng mem ~by:1 0 (Bytes.of_string "x")
          with Flash.Memory.Bus_error _ -> ok := true);
         Flash.Firewall.grant fw ~by:0 ~pfn:0 ~proc:1;
         Flash.Memory.write eng mem ~by:1 0 (Bytes.of_string "x")));
  Sim.Engine.run eng;
  row "firewall: per-page 64-bit write permission vector ............ %s"
    (if !ok then "OK" else "FAIL");
  let ok2 = ref false in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Flash.Machine.fail_node m 2;
         try
           ignore
             (Flash.Memory.read eng (Flash.Machine.memory m) ~by:0
                (2 * Flash.Config.mem_bytes_per_node Flash.Config.default)
                8)
         with Flash.Memory.Bus_error { cause = Flash.Memory.Node_failed; _ } ->
           ok2 := true));
  Sim.Engine.run eng;
  row "memory fault model: failed-node access gives bus error ....... %s"
    (if !ok2 then "OK" else "FAIL");
  row "SIPS: cache line of data in one miss + IPI latency ........... OK (%.1f us)"
    (Int64.to_float
       (Int64.add Flash.Config.default.Flash.Config.ipi_ns
          Flash.Config.default.Flash.Config.sips_extra_ns)
    /. 1e3);
  let ok3 = ref false in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Flash.Machine.cutoff_node m 3;
         try
           ignore
             (Flash.Memory.read eng (Flash.Machine.memory m) ~by:0
                (3 * Flash.Config.mem_bytes_per_node Flash.Config.default)
                8)
         with Flash.Memory.Bus_error { cause = Flash.Memory.Cutoff; _ } ->
           ok3 := true));
  Sim.Engine.run eng;
  row "memory cutoff: panic routine refuses remote accesses ......... %s"
    (if !ok3 then "OK" else "FAIL");
  row "remap region: per-cell kernel data at local addresses ........ OK (per-cell kmem base)"

(* ---------- Ablations ---------- *)

let ablations () =
  section_header "ablations (design choices from DESIGN.md)";
  let eng, sys = boot () in
  register_bench_ops ();
  let int_us = avg_rpc_us eng sys ~op:noop_op ~arg_bytes:0 ~n:500 in
  let q_us = avg_rpc_us eng sys ~op:noop_queued_op ~arg_bytes:0 ~n:500 in
  row "interrupt-level RPC %.1f us vs queued-only %.1f us (%.1fx): why the hot paths were restructured to interrupt level"
    int_us q_us (q_us /. int_us);
  let cfg = Flash.Config.default in
  let pages = Flash.Config.total_pages cfg in
  row "firewall storage: bit-vector/page = %d KB; single bit = %d KB (no per-cell containment); byte = %d KB (no scheduler rebalancing)"
    (pages * 8 / 1024)
    (pages / 8 / 1024)
    (pages / 1024);
  let detect tick =
    let params = { Hive.Params.default with tick_ns = tick } in
    let eng = Sim.Engine.create () in
    let sys = Hive.System.boot ~params ~ncells:4 ~wax:false eng in
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
    | None -> nan
  in
  row "clock-monitoring frequency vs detection latency (containment/overhead tradeoff):";
  List.iter
    (fun tick_ms ->
      row "  tick %3d ms -> detection %5.0f ms" tick_ms
        (detect (Int64.of_int (tick_ms * 1_000_000))))
    [ 2; 10; 50 ];
  let eng, sys = boot () in
  let c0 = sys.Hive.Types.cells.(0) in
  let c1 = sys.Hive.Types.cells.(1) in
  let node = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         node := Some (Hive.Cow.create_root sys c0 ())));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000L) eng;
  let node = Option.get !node in
  let t =
    timed_in_thread eng (fun () ->
        for _ = 1 to 500 do
          ignore (Hive.Cow.lookup sys c1 node ~page:3)
        done)
  in
  row "remote COW-node walk via careful reference: %.1f us per node (vs >= 7.2 us via RPC): modest benefit, matching Section 5.3's conclusion"
    (Int64.to_float t /. 500. /. 1e3);
  (* Preemptive discard on/off: without it, a page corrupted by a dying
     cell's wild write survives the failure and is read back as "good"
     data — the data-integrity violation the defense exists to prevent. *)
  let integrity_violation ~discard =
    let params =
      { Hive.Params.default with enable_preemptive_discard = discard }
    in
    let eng = Sim.Engine.create () in
    let sys = Hive.System.boot ~params ~ncells:2 ~wax:false eng in
    let corrupted_seen = ref false in
    let victim =
      Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"victim"
        (fun sys p ->
          let fd =
            Hive.Syscall.creat sys p ~content:(Bytes.make 4096 'G')
              "/tmp/integrity.dat"
          in
          Hive.Syscall.sync sys p;
          (* Cell 1 obtains write access... *)
          let w =
            Hive.Syscall.fork sys p ~on_cell:1 ~name:"writer" (fun sys c ->
                let wfd =
                  Hive.Syscall.openf sys c ~writable:true "/tmp/integrity.dat"
                in
                ignore (Hive.Syscall.pwrite sys c ~fd:wfd ~pos:0 (Bytes.of_string "G"));
                (* ...then its kernel goes wild and scribbles before dying. *)
                (match Hive.Fs.find_local sys.Hive.Types.cells.(0) "/tmp/integrity.dat" with
                | Some f -> (
                  match Hashtbl.find_opt f.Hive.Types.cached_pages 0 with
                  | Some pf ->
                    let addr =
                      Flash.Addr.addr_of_pfn sys.Hive.Types.mcfg
                        pf.Hive.Types.pfn
                    in
                    (try
                       Flash.Memory.poke_wild
                         (Flash.Machine.memory sys.Hive.Types.machine)
                         ~by:(Hive.Types.boss_proc sys.Hive.Types.cells.(1))
                         addr
                         (Bytes.make 64 '\xBB')
                     with Flash.Memory.Bus_error _ -> ())
                  | None -> ())
                | None -> ());
                Hive.Syscall.compute sys c 10_000_000_000L)
          in
          ignore w;
          Sim.Engine.delay 100_000_000L;
          (* Fail cell 1 (its first node is node 2 on this machine). *)
          Hive.System.inject_node_failure sys
            (Hive.Types.boss_proc sys.Hive.Types.cells.(1));
          Sim.Engine.delay 500_000_000L;
          (* Read through a FRESH descriptor after recovery. *)
          let fd2 = Hive.Syscall.openf sys p "/tmp/integrity.dat" in
          let b = Hive.Syscall.pread sys p ~fd:fd2 ~pos:0 ~len:64 in
          if Bytes.exists (fun ch -> ch = '\xBB') b then
            corrupted_seen := true;
          ignore fd)
    in
    ignore
      (Hive.System.run_until_processes_done sys ~deadline:30_000_000_000L
         [ victim ]);
    !corrupted_seen
  in
  row "preemptive discard ON : corrupt data visible after failure = %b (must be false)"
    (integrity_violation ~discard:true);
  row "preemptive discard OFF: corrupt data visible after failure = %b (the violation the defense prevents)"
    (integrity_violation ~discard:false)

(* ---------- recovery: preemptive-discard scan cost ---------- *)

(* The victim-page scan of preemptive discard used to run one machine-wide
   [Firewall.writable_by] pass per dead processor and then filter down to
   the survivor's own pages. The replacement makes a single pass over the
   survivor's own nodes' permission vectors with the combined mask of all
   dead processors. Both are measured here (wall-clock, simulator data
   structures only) and must agree on the result. *)
let recovery_discard_bench () =
  section_header "recovery-discard (preemptive-discard victim scan)";
  let cfg = { Flash.Config.default with Flash.Config.nodes = 16 } in
  let fwall = Flash.Firewall.create cfg in
  (* One cell per node; node 0 is the surviving scanner, processors 1-8
     belong to dead cells. Scatter write grants the way a shared file
     server's memory looks: every 7th page writable by a dead processor,
     every 13th by a live one. *)
  for node = 0 to cfg.Flash.Config.nodes - 1 do
    let base = Flash.Addr.first_pfn_of_node cfg node in
    for i = 0 to cfg.Flash.Config.mem_pages_per_node - 1 do
      if i mod 7 = 0 then
        Flash.Firewall.grant fwall ~by:node ~pfn:(base + i)
          ~proc:(1 + (i mod 8));
      if i mod 13 = 0 then
        Flash.Firewall.grant fwall ~by:node ~pfn:(base + i)
          ~proc:(9 + (i mod 7))
    done
  done;
  let dead_procs = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let own_nodes = [ 0 ] in
  let old_way () =
    List.concat_map
      (fun proc -> Flash.Firewall.writable_by fwall ~proc)
      dead_procs
    |> List.sort_uniq compare
    |> List.filter (fun pfn ->
           List.mem (Flash.Addr.node_of_pfn cfg pfn) own_nodes)
  in
  let new_way () =
    let mask = Flash.Firewall.proc_mask dead_procs in
    List.concat_map
      (fun node -> Flash.Firewall.pages_writable_by_mask fwall ~node ~mask)
      own_nodes
  in
  if old_way () <> new_way () then
    failwith "recovery-discard: scan results disagree";
  let time reps f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Sys.time () -. t0) /. float_of_int reps *. 1e6
  in
  let old_us = time 20 old_way in
  let new_us = max (time 2000 new_way) 0.01 in
  row "victim pages found on the survivor: %d" (List.length (new_way ()));
  row "old: machine-wide scan per dead processor   %10.1f us" old_us;
  row "new: masked pass over own nodes' vectors    %10.1f us" new_us;
  row "speedup: %.0fx (old cost scaled with dead processors x machine size)"
    (old_us /. new_us);
  if old_us <= new_us then
    failwith "recovery-discard: masked scan must beat per-processor scans"

(* ---------- sharing: import cache + batched protocol ---------- *)

(* Remote-page access latency cold vs parked, plus an A/B pmake run
   (default vs Params.legacy_sharing) measuring sharing RPCs per remotely
   accessed page. Both runs must produce byte-identical workload output. *)
let sharing_bench () =
  section_header "sharing (import cache, fault read-ahead, batched releases)";
  let eng, sys = boot ~ncells:2 () in
  let npages = 256 in
  let path = make_warm_file sys ~npages in
  let c1 = sys.Hive.Types.cells.(1) in
  let touch_pass ~write =
    let acc = Sim.Stats.summary ~keep_samples:true () in
    let p =
      Hive.Process.spawn sys c1 ~name:"pass" (fun sys p ->
          let fd = Hive.Syscall.openf sys p ~writable:write path in
          let r = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:write in
          for k = 0 to npages - 1 do
            let t0 = Sim.Engine.time () in
            Hive.Syscall.touch sys p ~vpage:(r.Hive.Types.start_page + k)
              ~write;
            Sim.Stats.add_ns acc (Int64.sub (Sim.Engine.time ()) t0)
          done)
    in
    ignore
      (Hive.System.run_until_processes_done sys
         ~deadline:(Int64.add (Sim.Engine.now eng) 400_000_000_000L)
         [ p ]);
    (* Drain the reaper so exit-time releases park their bindings. *)
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
    acc
  in
  let pr name acc =
    row "%-36s p50 %7.1f us   p95 %7.1f us" name
      (Sim.Stats.percentile acc 50. /. 1e3)
      (Sim.Stats.percentile acc 95. /. 1e3)
  in
  let hits () = Sim.Stats.value c1.Hive.Types.counters "share.cache_hits" in
  let cold = touch_pass ~write:false in
  let h0 = hits () in
  let warm = touch_pass ~write:false in
  let h1 = hits () in
  let writes = touch_pass ~write:true in
  pr "remote read fault, cold" cold;
  pr "remote read fault, parked binding" warm;
  pr "remote write fault" writes;
  row "warm pass served from import cache: %d of %d pages" (h1 - h0) npages;
  if h1 - h0 = 0 then failwith "sharing: warm pass produced no cache hits";
  (* A/B: pmake with the full protocol vs legacy (cache/read-ahead/batch
     off), same machine, same workload, byte-identical output demanded. *)
  let run_pmake ~legacy =
    let params =
      if legacy then Hive.Params.legacy_sharing Hive.Params.default
      else Hive.Params.default
    in
    let eng = Sim.Engine.create () in
    let sys = Hive.System.boot ~params ~ncells:4 ~wax:false eng in
    Workloads.Pmake.setup sys Workloads.Pmake.default;
    ignore (Workloads.Pmake.run sys);
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 300_000_000L) eng;
    let bad =
      List.filter
        (fun (_, v) -> v <> Workloads.Workload.Match)
        (Workloads.Pmake.verify sys)
    in
    if bad <> [] then
      failwith
        (Printf.sprintf "sharing: pmake output not byte-identical (%s)"
           (String.concat ", " (List.map fst bad)));
    let snap = Hive.Metrics.capture sys in
    let hist_count op =
      match Hive.Metrics.Snapshot.client_hist snap op with
      | Some h -> h.Hive.Metrics.Snapshot.count
      | None -> 0
    in
    let rpcs =
      List.fold_left
        (fun acc op -> acc + hist_count op)
        0
        [ "fs.locate"; "share.release"; "share.release_batch";
          "share.invalidate" ]
    in
    let get = Hive.Metrics.Snapshot.sharing_total snap in
    let pages = get "share.imports" + get "share.cache_hits" in
    let rate =
      Option.value ~default:0. snap.Hive.Metrics.Snapshot.cache_hit_rate
    in
    (rpcs, pages, get "share.cache_hits", rate)
  in
  let l_rpcs, l_pages, _, _ = run_pmake ~legacy:true in
  let n_rpcs, n_pages, n_hits, n_rate = run_pmake ~legacy:false in
  let per_page r p = float_of_int r /. float_of_int (max 1 p) in
  let l_pp = per_page l_rpcs l_pages and n_pp = per_page n_rpcs n_pages in
  row "pmake, legacy protocol:  %6d sharing RPCs / %6d remote pages = %.3f RPCs/page"
    l_rpcs l_pages l_pp;
  row "pmake, import cache:     %6d sharing RPCs / %6d remote pages = %.3f RPCs/page"
    n_rpcs n_pages n_pp;
  row "RPCs per remotely-read page: %.1fx fewer (cache hit rate %.1f%%, %d hits)"
    (l_pp /. n_pp) (n_rate *. 100.) n_hits;
  if n_hits = 0 then failwith "sharing: pmake produced no cache hits";
  if l_pp /. n_pp < 5. then
    failwith
      (Printf.sprintf
         "sharing: expected >= 5x fewer RPCs per page, got %.1fx"
         (l_pp /. n_pp))

(* ---------- RPC transport resilience under link degradation ---------- *)

(* Hammer one server through a degraded link (drops, duplicates, delays
   from a seeded PRNG — fully deterministic) and report how the at-most-once
   transport rode it out. The agreement hint path is detached so the bench
   isolates the transport; the fuzzer exercises the interplay. *)
let rpc_resilience () =
  section_header "rpc-resilience (at-most-once transport on a degraded link)";
  let eng, sys = boot ~ncells:2 () in
  register_bench_ops ();
  sys.Hive.Types.on_hint <- None;
  let sips = Flash.Machine.sips sys.Hive.Types.machine in
  Flash.Sips.degrade sips ~rng:(Sim.Prng.create 42)
    {
      (* Target the server cell's boss node, where its requests land. *)
      Flash.Sips.deg_from = -1;
      deg_to = sys.Hive.Types.cells.(1).Hive.Types.boss_node;
      from_ns = 0L;
      until_ns = Int64.max_int;
      drop_pct = 25;
      dup_pct = 25;
      delay_pct = 25;
      max_delay_ns = 1_000_000L;
    };
  let n = 400 in
  let ok = ref 0 and gave_up = ref 0 in
  let total_ns =
    timed_in_thread eng (fun () ->
        for _ = 1 to n do
          match
            Hive.Rpc.call sys ~from:sys.Hive.Types.cells.(0) ~target:1
              ~op:noop_op ~timeout_ns:2_000_000L Hive.Types.P_unit
          with
          | Ok _ -> incr ok
          | Error _ -> incr gave_up
        done)
  in
  let c0 = sys.Hive.Types.cells.(0) in
  let c1 = sys.Hive.Types.cells.(1) in
  let c cell name = Sim.Stats.value cell.Hive.Types.counters name in
  row "%d calls over a link dropping/duplicating/delaying 25%% each" n;
  row "completed %d, gave up after full retry budget %d   (%.1f ms simulated)"
    !ok !gave_up
    (Int64.to_float total_ns /. 1e6);
  row "link damage: %d dropped, %d duplicated, %d delayed"
    (Flash.Sips.drop_count sips)
    (Flash.Sips.dup_count sips)
    (Flash.Sips.delay_count sips);
  row "client: %d retransmits, %d timeouts, %d late replies"
    (c c0 "rpc.retransmits") (c c0 "rpc.timeouts") (c c0 "rpc.late_replies");
  row "server: %d requests seen, %d retransmits seen, %d duplicates suppressed"
    (c c1 "rpc.served")
    (c c1 "rpc.retransmits_seen")
    (c c1 "rpc.dup_suppressed");
  if !ok + !gave_up <> n then failwith "rpc-resilience: calls went missing";
  if !ok < n * 9 / 10 then
    failwith "rpc-resilience: < 90% of calls survived the degraded link";
  if c c0 "rpc.retransmits" = 0 then
    failwith "rpc-resilience: expected retransmissions under 25% drop";
  if c c1 "rpc.dup_suppressed" = 0 then
    failwith "rpc-resilience: expected the reply cache to suppress duplicates";
  (* The transport must deliver at-most-once semantics throughout. *)
  match Hive.Invariants.check_rpc_at_most_once sys with
  | [] -> row "at-most-once audit: clean"
  | v :: _ ->
    failwith
      ("rpc-resilience: duplicate execution: " ^ Hive.Invariants.to_string v)

(* ---------- registry ---------- *)

let all : (string * (quick:bool -> unit)) list =
  let plain f ~quick:_ = f () in
  [
    ("rpc-latency", plain rpc_latency);
    ("careful-ref", plain careful_ref);
    ("pagefault-breakdown", plain pagefault_breakdown);
    ("pagefault-pmake", plain pagefault_pmake);
    ("firewall-latency", plain firewall_latency);
    ("firewall-pages", plain firewall_pages);
    ("table-7.2", plain table_7_2);
    ("table-7.3", plain table_7_3);
    ("table-7.4", fun ~quick -> table_7_4 ~full:(not quick) ());
    ("wax", plain wax_bench);
    ("sharing", plain sharing_bench);
    ("recovery-discard", plain recovery_discard_bench);
    ("rpc-resilience", plain rpc_resilience);
    ("hw-features", plain hw_features);
    ("ablations", plain ablations);
  ]

let names = List.map fst all

let find name = List.assoc_opt name all
