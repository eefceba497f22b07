(* Fault kinds and their injection (Section 7.4).

   A fault is a fail-stop node failure, a kernel data corruption, or an
   interconnect fault (a degraded link or a partition). [inject] plants one
   into a running system; the experiment around it (boot, workload, the
   correctness check and the invariant oracle) is [Fuzz.run_plan]. The
   paper's Table 7.4 campaigns are fixed plan lists in
   [Bench.Scenarios.table_7_4_plans]. *)

type fault =
  | Node_failure of { node : int; at_ns : int64 }
  | Corrupt_map of { victim_cell : int; at_ns : int64; mode : Hive.System.corruption_mode }
  | Corrupt_cow of { victim_cell : int; at_ns : int64; mode : Hive.System.corruption_mode }
  | Link_degrade of {
      deg_from : int; (* source proc, -1 = any *)
      deg_to : int; (* destination node, -1 = any *)
      at_ns : int64;
      dur_ns : int64;
      drop_pct : int;
      dup_pct : int;
      delay_pct : int;
      max_delay_ns : int64;
      salt : int64; (* seeds the window's own per-message PRNG *)
    }
  | Partition of {
      part_cell : int; (* cell severed from the rest of the machine *)
      at_ns : int64;
      dur_ns : int64; (* heals deterministically at at_ns + dur_ns *)
      one_way : bool; (* true: only traffic INTO the cell is lost *)
    }
  | Cpu_dead_mem_alive of { node : int; at_ns : int64 }
  | Node_failure_mid_recovery of { node : int; at_ns : int64 }
      (* fails [node] once a recovery round is past barrier 1 *)

let pick_victim_process (sys : Hive.Types.system) ~cell_id =
  let c = sys.Hive.Types.cells.(cell_id) in
  List.find_opt
    (fun (p : Hive.Types.process) ->
      p.Hive.Types.pstate = Hive.Types.Proc_running
      && List.exists
           (fun (r : Hive.Types.region) ->
             match r.Hive.Types.kind with
             | Hive.Types.Anon_region _ -> true
             | _ -> false)
           p.Hive.Types.regions)
    c.Hive.Types.processes

(* Find a COW node owned by the victim cell (a leaf of one of its
   processes), for direct tree corruption. Prefer a leaf with a parent (a
   post-fork leaf still used for copy-on-write searches) over a root. *)
let pick_cow_node (sys : Hive.Types.system) ~cell_id =
  let c = sys.Hive.Types.cells.(cell_id) in
  let has_parent (leaf : Hive.Types.cow_ref) =
    let addr =
      leaf.Hive.Types.cow_addr + Hive.Kmem.header_bytes
      + (8 * Hive.Cow.f_parent_addr)
    in
    Bytes.get_int64_le
      (Flash.Memory.peek (Flash.Machine.memory sys.Hive.Types.machine) addr 8)
      0
    >= 0L
  in
  let roots = ref None and forked = ref None in
  List.iter
    (fun (p : Hive.Types.process) ->
      if p.Hive.Types.pstate = Hive.Types.Proc_running then
        List.iter
          (fun (r : Hive.Types.region) ->
            match r.Hive.Types.kind with
            | Hive.Types.Anon_region leaf
              when leaf.Hive.Types.cow_cell = cell_id ->
              if has_parent leaf then begin
                if !forked = None then forked := Some leaf
              end
              else if !roots = None then roots := Some leaf
            | _ -> ())
          p.Hive.Types.regions)
    c.Hive.Types.processes;
  (match (!forked, !roots) with Some l, _ -> Some l | None, r -> r)

(* Sever every directed link between [cell]'s nodes and the rest of the
   machine over [from_ns, until_ns). Intra-cell links stay up: the cell
   keeps running on its own side of the blackout. [one_way] models
   asymmetric reachability: only traffic into the cell is lost, so its
   own sends still arrive while every reply (and probe) back to it
   vanishes. *)
let sever_cell (sys : Hive.Types.system) ~cell ~from_ns ~until_ns ~one_way =
  let sips = Flash.Machine.sips sys.Hive.Types.machine in
  let outside =
    Array.to_list sys.Hive.Types.cells
    |> List.concat_map (fun (c : Hive.Types.cell) ->
           if c.Hive.Types.cell_id = cell then [] else c.Hive.Types.cell_nodes)
  in
  List.iter
    (fun inner ->
      List.iter
        (fun outer ->
          Flash.Sips.partition sips
            { Flash.Sips.part_from = outer; part_to = inner;
              part_from_ns = from_ns; part_until_ns = until_ns };
          if not one_way then
            Flash.Sips.partition sips
              { Flash.Sips.part_from = inner; part_to = outer;
                part_from_ns = from_ns; part_until_ns = until_ns })
        outside)
    sys.Hive.Types.cells.(cell).Hive.Types.cell_nodes

let inject (sys : Hive.Types.system) rng fault =
  match fault with
  | Node_failure { node; _ } ->
    Hive.System.inject_node_failure sys node;
    Some (Hive.Types.cell_of_node sys node).Hive.Types.cell_id
  | Corrupt_map { victim_cell; mode; _ } -> (
    match pick_victim_process sys ~cell_id:victim_cell with
    | Some p ->
      if Hive.System.corrupt_address_map sys p mode rng then Some victim_cell
      else None
    | None -> None)
  | Corrupt_cow { victim_cell; mode; _ } -> (
    match pick_cow_node sys ~cell_id:victim_cell with
    | Some leaf ->
      Hive.System.corrupt_cow_parent sys sys.Hive.Types.cells.(victim_cell)
        leaf mode rng;
      Some victim_cell
    | None -> None)
  | Link_degrade
      { deg_from; deg_to; dur_ns; drop_pct; dup_pct; delay_pct;
        max_delay_ns; salt; _ } ->
    let now = Sim.Engine.now sys.Hive.Types.eng in
    Flash.Sips.degrade
      (Flash.Machine.sips sys.Hive.Types.machine)
      ~rng:(Sim.Prng.of_int64 salt)
      { Flash.Sips.deg_from; deg_to; from_ns = now;
        until_ns = Int64.add now dur_ns; drop_pct; dup_pct; delay_pct;
        max_delay_ns };
    (* Reported as the destination cell when the window targets one link,
       cell 0 for a machine-wide window; nothing is corrupted either way. *)
    Some
      (if deg_to >= 0 then
         (Hive.Types.cell_of_node sys deg_to).Hive.Types.cell_id
       else 0)
  | Partition { part_cell; dur_ns; one_way; _ } ->
    let now = Sim.Engine.now sys.Hive.Types.eng in
    sever_cell sys ~cell:part_cell ~from_ns:now ~until_ns:(Int64.add now dur_ns)
      ~one_way;
    Some part_cell
  | Cpu_dead_mem_alive { node; _ } ->
    Hive.System.inject_cpu_failure sys node;
    Some (Hive.Types.cell_of_node sys node).Hive.Types.cell_id
  | Node_failure_mid_recovery { node; _ } ->
    (* Poll (0.1 ms steps, 1 s at most) until a round is past barrier 1
       (the window stays open through barrier 2 and the master's
       diagnostics), then fail the node mid-round: the survivors must
       abort the round and restart it with the enlarged dead set. *)
    let since = Sim.Engine.time () in
    let past_barrier1 () =
      sys.Hive.Types.recovery_round_active
      && List.exists
           (fun (phase, t) ->
             phase = "recovery.barrier1" && Int64.compare t since >= 0)
           sys.Hive.Types.recovery_timeline
    in
    let rec poll tries =
      if tries > 0 && not (past_barrier1 ()) then begin
        Sim.Engine.delay 100_000L;
        poll (tries - 1)
      end
    in
    poll 10_000;
    Hive.System.inject_node_failure sys node;
    Some (Hive.Types.cell_of_node sys node).Hive.Types.cell_id

(* Whether the fault destroys or corrupts kernel state on the victim cell
   (so checkers must exempt it). Link degradation only perturbs message
   delivery: every cell must come out fully coherent, so it is never
   exempted. A partitioned minority cell stands down (self-panics) and is
   rebooted with zeroed memory at reintegration, so it is exempted like
   any other fail-stop victim. *)
let corrupts_cell = function
  | Node_failure _ | Corrupt_map _ | Corrupt_cow _ -> true
  | Link_degrade _ -> false
  | Partition _ | Cpu_dead_mem_alive _ | Node_failure_mid_recovery _ -> true

let fault_time = function
  | Node_failure { at_ns; _ } -> at_ns
  | Corrupt_map { at_ns; _ } -> at_ns
  | Corrupt_cow { at_ns; _ } -> at_ns
  | Link_degrade { at_ns; _ } -> at_ns
  | Partition { at_ns; _ } -> at_ns
  | Cpu_dead_mem_alive { at_ns; _ } -> at_ns
  | Node_failure_mid_recovery { at_ns; _ } -> at_ns

let describe = function
  | Node_failure { node; _ } -> Printf.sprintf "node %d fail-stop" node
  | Corrupt_map { victim_cell; _ } ->
    Printf.sprintf "corrupt address map on cell %d" victim_cell
  | Corrupt_cow { victim_cell; _ } ->
    Printf.sprintf "corrupt COW tree on cell %d" victim_cell
  | Link_degrade
      { deg_from; deg_to; dur_ns; drop_pct; dup_pct; delay_pct; _ } ->
    Printf.sprintf
      "degrade link %s->%s for %Ld ms (drop %d%% dup %d%% delay %d%%)"
      (if deg_from = -1 then "*" else string_of_int deg_from)
      (if deg_to = -1 then "*" else string_of_int deg_to)
      (Int64.div dur_ns 1_000_000L)
      drop_pct dup_pct delay_pct
  | Partition { part_cell; dur_ns; one_way; _ } ->
    Printf.sprintf "partition cell %d for %Ld ms (%s)" part_cell
      (Int64.div dur_ns 1_000_000L)
      (if one_way then "inbound only" else "both ways")
  | Cpu_dead_mem_alive { node; _ } ->
    Printf.sprintf "node %d CPU dead, memory alive" node
  | Node_failure_mid_recovery { node; _ } ->
    Printf.sprintf "node %d fail-stop mid-recovery" node

let modes =
  [| Hive.System.Random_address; Hive.System.Off_by_one_word;
     Hive.System.Self_pointer |]

(* ---------- Parallel campaign driver ---------- *)

(* Shard a seed list across OCaml 5 domains. Work-stealing: workers pull
   the next unclaimed index from a shared cursor, so a slow seed never
   idles the other domains. Each worker runs [run] with a private
   simulation engine ([Sim.Engine.create] binds the engine to the
   creating domain and rejects use from any other), and shares nothing
   else — every cross-campaign cache in the tree is domain-local and
   reset per boot. Results are published under a mutex and handed to
   [on_record] from the calling domain in seed order, so the merged
   output is byte-identical to a serial run regardless of [jobs].

   The caller must ensure one-time global registration (RPC handler
   tables) has already happened on the calling domain — booting any
   system does it — before workers race to boot theirs. [run_parallel]
   boots nothing itself, so it performs that warm-up via
   [Hive.System.register_all_handlers]. *)
let run_parallel (type r) ~jobs ~(seeds : int64 array) ~(run : int64 -> r)
    ~(on_record : int64 -> r -> unit) =
  let n = Array.length seeds in
  if jobs <= 1 || n <= 1 then
    Array.iter (fun s -> on_record s (run s)) seeds
  else begin
    Hive.System.register_all_handlers ();
    Workloads.Server.register_ops ();
    let next = Atomic.make 0 in
    let results : (r, exn) result option array = Array.make n None in
    let m = Mutex.create () in
    let ready = Condition.create () in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            match run seeds.(i) with
            | v -> Ok v
            | exception e -> Error e
          in
          Mutex.lock m;
          results.(i) <- Some r;
          Condition.broadcast ready;
          Mutex.unlock m;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    let emitted = ref 0 in
    Mutex.lock m;
    (try
       while !emitted < n do
         match results.(!emitted) with
         | Some r ->
           let i = !emitted in
           results.(i) <- None;
           incr emitted;
           (* Emit outside the lock: [on_record] may write files or
              replay a failing seed. *)
           Mutex.unlock m;
           (match r with Ok v -> on_record seeds.(i) v | Error e -> raise e);
           Mutex.lock m
         | None -> Condition.wait ready m
       done;
       Mutex.unlock m
     with e ->
       (* Unblock and collect the workers before re-raising. *)
       Atomic.set next n;
       List.iter Domain.join domains;
       raise e);
    List.iter Domain.join domains
  end
