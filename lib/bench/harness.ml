(* Shared plumbing for the sweep scenarios. *)

(* Run a simulation-thread body to completion and return simulated ns. *)
let timed_in_thread eng body =
  let dt = ref 0L in
  ignore
    (Sim.Engine.spawn eng ~name:"bench" (fun () ->
         let t0 = Sim.Engine.time () in
         body ();
         dt := Int64.sub (Sim.Engine.time ()) t0));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
  !dt

let noop_op = Hive.Rpc.Op.declare "bench.noop"

let noop_queued_op = Hive.Rpc.Op.declare "bench.noop_queued"

let bench_registered = ref false

let register_bench_ops () =
  if not !bench_registered then begin
    bench_registered := true;
    Hive.Rpc.register noop_op (fun _sys _cell ~src:_ _arg ->
        Hive.Types.Immediate (Ok Hive.Types.P_unit));
    Hive.Rpc.register noop_queued_op (fun _sys _cell ~src:_ _arg ->
        Hive.Types.Queued (fun () -> Ok Hive.Types.P_unit))
  end

let avg_rpc_us eng sys ~op ~arg_bytes ~n =
  let c0 = sys.Hive.Types.cells.(0) in
  let total =
    timed_in_thread eng (fun () ->
        for _ = 1 to n do
          match
            Hive.Rpc.call sys ~from:c0 ~target:1 ~op ~arg_bytes ~reply_bytes:0
              Hive.Types.P_unit
          with
          | Ok _ -> ()
          | Error _ -> failwith "bench rpc failed"
        done)
  in
  Int64.to_float total /. float_of_int n /. 1e3

(* Build a file homed on cell 0 and warm its cache there. *)
let make_warm_file sys ~npages =
  let psize = Hive.Types.page_size sys in
  let path = "/tmp/bench.dat" in
  let home = sys.Hive.Types.cells.(0) in
  let p =
    Hive.Process.spawn sys home ~name:"warm" (fun sys p ->
        let fd =
          Hive.Syscall.creat sys p
            ~content:
              (Workloads.Workload.synth_content ~tag:path
                 ~bytes:(npages * psize))
            path
        in
        ignore (Hive.Syscall.read sys p ~fd ~len:(npages * psize));
        Hive.Syscall.close sys p ~fd)
  in
  ignore
    (Hive.System.run_until_processes_done sys ~deadline:400_000_000_000L [ p ]);
  path
