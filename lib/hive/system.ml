(* The top-level Hive system: boot, fault injection entry points, and
   measurement helpers.

   [boot] partitions the machine's nodes evenly among [cells] independent
   kernels and starts them. With [cells = 1] and the firewall disabled the
   same kernel code runs as the SMP-OS baseline (the paper's IRIX 5.2
   comparison point): no remote paths are ever taken, no firewall checks
   are charged. *)

let register_all_handlers () =
  Wild_write.register_handlers ();
  Page_alloc.register_handlers ();
  Share.register_handlers ();
  Fs.register_handlers ();
  Vm.register_handlers ();
  Process.register_handlers ();
  Signal.register_handlers ();
  Agreement.register_handlers ();
  Recovery.register_handlers ()

let boot_horizon_ns = 5_000_000L

(* Reboot and reintegrate a failed cell after its nodes are repaired (the
   paper left this unimplemented but "straightforward": the recovery
   master reboots cells whose hardware diagnostics pass). The cell's disk
   contents survive the reboot; its memory, page cache and kernel state
   start fresh; the other cells add it back to their live sets. Driven
   automatically by the recovery master when [Params.auto_reintegrate] is
   set, and still callable manually (e.g. for rolling maintenance). *)
let reintegrate (sys : Types.system) cell_id =
  let c = sys.Types.cells.(cell_id) in
  if c.Types.cstatus <> Types.Cell_down then
    invalid_arg "reintegrate: cell is not down";
  (* Survivors' salvaged copies of this cell's pages become stale the
     moment it reboots (file generations restart from disk): purge them
     and their mappings so the next access re-locates through the fresh
     data home. *)
  c.Types.mem_alive <- false;
  Array.iter
    (fun (o : Types.cell) ->
      if o.Types.cell_id <> cell_id && Types.cell_alive o then begin
        (* The per-home salvage index makes this O(pages salvaged from the
           rebooting cell) instead of a sweep over every frame the survivor
           owns. Entries can be stale (the frame was since reclaimed and
           reused), so each is validated against the frame table by
           physical identity before purging. *)
        let doomed =
          Hashtbl.find_all o.Types.salvaged_by_home cell_id
          |> List.filter (fun (pf : Types.pfdat) ->
                 pf.Types.salvaged_from = Some cell_id
                 &&
                 match Hashtbl.find_opt o.Types.frames pf.Types.pfn with
                 | Some cur -> cur == pf
                 | None -> false)
        in
        while Hashtbl.mem o.Types.salvaged_by_home cell_id do
          Hashtbl.remove o.Types.salvaged_by_home cell_id
        done;
        List.iter
          (fun (pf : Types.pfdat) ->
            List.iter
              (fun (p : Types.process) ->
                let stale = ref [] in
                Hashtbl.iter
                  (fun vpage (m : Types.mapping) ->
                    if m.Types.map_pf == pf then stale := vpage :: !stale)
                  p.Types.mappings;
                List.iter (Hashtbl.remove p.Types.mappings) !stale)
              o.Types.processes;
            Types.bump o "vm.salvage_purged";
            Page_alloc.free_frame sys o pf)
          doomed
      end)
    sys.Types.cells;
  (* Repair the hardware: memory zeroed, processor restarted. *)
  List.iter (Flash.Machine.restore_node sys.Types.machine) c.Types.cell_nodes;
  (* Fresh kernel state; files (and their stable disk contents) survive,
     but the page cache does not. *)
  Hashtbl.reset c.Types.page_hash;
  Hashtbl.reset c.Types.frames;
  Types.reset_free c [];
  c.Types.total_frames <- 0;
  Hashtbl.reset c.Types.swap_table;
  c.Types.swap_blocks_used <- 0;
  c.Types.swap_free_blocks <- [];
  c.Types.swap_hint <- 0;
  Hashtbl.reset c.Types.salvaged_by_home;
  c.Types.reserved_loans <- [];
  c.Types.import_cache <- [];
  Hashtbl.reset c.Types.readahead;
  Hashtbl.reset c.Types.pending_releases;
  Hashtbl.iter
    (fun _ (f : Types.file) -> Hashtbl.reset f.Types.cached_pages)
    c.Types.files;
  c.Types.kmem.Types.kmem_next <- c.Types.kmem.Types.kmem_base + 128;
  c.Types.kmem.Types.kmem_free <- [];
  c.Types.processes <- [];
  c.Types.user_gate_open <- true;
  c.Types.gate_waiters <- [];
  Hashtbl.reset c.Types.pending_calls;
  (* Work queued in the old incarnation must not leak into the new one:
     a queued-service closure would run against reset kernel state, and a
     released import still in the drain queue would be re-parked by the
     reborn cell's drain thread — a dangling binding whose data home
     already cleaned up during recovery. *)
  ignore (Sim.Mailbox.clear c.Types.rpc_queue);
  ignore (Sim.Mailbox.clear c.Types.release_queue);
  (* A rebooted kernel starts its call-id sequence from zero again; the
     bumped incarnation keeps the new ids (and any messages still in
     flight from the old life) from colliding across the reboot. The
     reply cache dies with the old incarnation too. *)
  c.Types.incarnation <- c.Types.incarnation + 1;
  c.Types.next_call_id <- 0;
  Hashtbl.reset c.Types.rpc_sessions;
  c.Types.suspected <- [];
  c.Types.false_alerts <- [];
  c.Types.in_recovery <- false;
  c.Types.recovery_active <- false;
  c.Types.kernel_threads <- [];
  c.Types.cstatus <- Types.Cell_up;
  Types.sys_bump sys "cell.reintegrations";
  (* The other cells learn about the reintegration. *)
  Array.iter
    (fun (o : Types.cell) ->
      if Types.cell_alive o && not (List.mem cell_id o.Types.live_set) then
        o.Types.live_set <- cell_id :: o.Types.live_set)
    sys.Types.cells;
  ignore
    (Sim.Engine.spawn sys.Types.eng
       ~name:(Printf.sprintf "cell%d.reboot" cell_id)
       (fun () ->
         Cell.boot sys c;
         match sys.Types.wax_restart with Some f -> f sys | None -> ()))

let boot ?(mcfg = Flash.Config.default) ?(params = Params.default)
    ?(ncells = mcfg.Flash.Config.nodes) ?(multicellular = true)
    ?(oracle = false) ?(wax = true) (eng : Sim.Engine.t) =
  if ncells < 1 || ncells > mcfg.Flash.Config.nodes then
    invalid_arg "Hive.boot: bad cell count";
  if mcfg.Flash.Config.nodes mod ncells <> 0 then
    invalid_arg "Hive.boot: cells must divide nodes evenly";
  register_all_handlers ();
  (* Reset the domain-local id generators and per-pid signal state so a
     campaign's behavior is a function of its plan alone, not of what ran
     earlier on this domain. *)
  Signal.reset ();
  Cow.reset_ids ();
  Spanning.reset_ids ();
  let machine = Flash.Machine.create eng mcfg in
  let nodes_per_cell = mcfg.Flash.Config.nodes / ncells in
  let cells =
    Array.init ncells (fun i ->
        let nodes =
          List.init nodes_per_cell (fun k -> (i * nodes_per_cell) + k)
        in
        Cell.make mcfg ~id:i ~nodes)
  in
  let sys =
    {
      Types.machine;
      eng;
      mcfg;
      params;
      cells;
      (* Node→cell ownership never changes after boot; the index makes
         [cell_of_node] O(1) on the wild-write and fault paths. *)
      node_owner =
        Array.init mcfg.Flash.Config.nodes (fun n -> n / nodes_per_cell);
      last_boot_ns = 0L;
      proc_table = Hashtbl.create 256;
      next_pid = 0;
      use_agreement_oracle = oracle;
      multicellular;
      recovery_in_progress = false;
      recovery_events = [];
      recovery_complete_at = 0L;
      recovery_barrier1 = None;
      recovery_barrier2 = None;
      recovery_dead = [];
      recovery_round = 0;
      recovery_round_active = false;
      recovery_participants = [];
      masters_active = [];
      master_overlaps = [];
      on_cell_death = None;
      reintegrate_fn = None;
      wax_restart = None;
      wax_threads = [];
      wax_incarnation = 0;
      on_hint = None;
      sys_counters = Sim.Stats.registry ();
      rpc_executions = Hashtbl.create 1024;
      rpc_stale_accepts = [];
      events = Sim.Event.create eng;
      rpc_client_ns = Hashtbl.create 32;
      rpc_server_ns = Hashtbl.create 32;
      op_ns = Hashtbl.create 32;
      recovery_timeline = [];
    }
  in
  (* Surface hardware-level firewall traffic on the event bus (covers the
     mass revocation of recovery, which bypasses the wild-write module). *)
  Flash.Firewall.set_notify (Flash.Machine.firewall machine)
    (fun ~pfn ~old_vec ~new_vec ->
      if Sim.Event.enabled sys.Types.events then
        Sim.Event.instant sys.Types.events
          ~args:
            [ ("pfn", Sim.Event.Int pfn);
              ("old_vec", Sim.Event.Str (Flash.Procset.to_string old_vec));
              ("new_vec", Sim.Event.Str (Flash.Procset.to_string new_vec)) ]
          ~cat:Sim.Event.Firewall "firewall.bits_changed");
  Failure.install sys;
  sys.Types.reintegrate_fn <- Some (fun id -> reintegrate sys id);
  (* A kernel thread dying with an uncaught exception panics its own cell;
     anything unattributable is a simulator bug and aborts loudly. *)
  Sim.Engine.set_crash_handler eng (fun thr e ->
      let owner = ref None in
      Array.iter
        (fun (c : Types.cell) ->
          if List.exists (fun t -> t == thr) c.Types.kernel_threads then
            owner := Some c;
          List.iter
            (fun (p : Types.process) ->
              match p.Types.thread with
              | Some t when t == thr -> owner := Some c
              | _ -> ())
            c.Types.processes)
        sys.Types.cells;
      match !owner with
      | Some c ->
        Panic.panic sys c
          (Printf.sprintf "uncaught exception in %s: %s" thr.Sim.Engine.name
             (Printexc.to_string e))
      | None ->
        raise
          (Failure
             (Printf.sprintf "simulator bug: thread %s raised %s"
                thr.Sim.Engine.name (Printexc.to_string e))));
  (* Hardware fault model: a node failure fail-stops its owning cell. *)
  Flash.Machine.on_node_failure machine (fun node ->
      let c = Types.cell_of_node sys node in
      if c.Types.cstatus <> Types.Cell_down then begin
        c.Types.cstatus <- Types.Cell_down;
        Types.sys_bump sys "cell.hw_failures";
        let ts = c.Types.kernel_threads in
        c.Types.kernel_threads <- [];
        List.iter (fun t -> Sim.Engine.kill eng t) ts;
        List.iter
          (fun (p : Types.process) ->
            match p.Types.thread with
            | Some t when p.Types.pstate <> Types.Proc_zombie ->
              p.Types.killed_by_failure <- true;
              Sim.Engine.kill eng t
            | _ -> ())
          c.Types.processes;
        (* A participant dying mid-round must restart the recovery round. *)
        match sys.Types.on_cell_death with
        | Some f -> f c.Types.cell_id
        | None -> ()
      end);
  (* Boot every cell, then let the boot threads run to completion. *)
  Array.iter
    (fun c -> ignore (Sim.Engine.spawn eng ~name:"boot" (fun () -> Cell.boot sys c)))
    cells;
  Sim.Engine.run ~until:boot_horizon_ns eng;
  if wax && multicellular then Wax.install sys;
  sys

(* ---------- Fault injection (the experiments' entry points) ---------- *)

(* Fail-stop hardware fault: halt a node (and thereby its cell). *)
let inject_node_failure (sys : Types.system) node =
  Flash.Machine.fail_node sys.Types.machine node

(* CXL-style processor failure: the node's CPU halts (fail-stopping its
   cell via the node-failure listener, exactly like [inject_node_failure])
   but the memory controller keeps answering remote reads. Survivors see
   a readable-but-frozen clock word, classify the cell as hard-dead, and
   may salvage its clean exported pages during recovery. *)
let inject_cpu_failure (sys : Types.system) node =
  let c = Types.cell_of_node sys node in
  if Types.cell_alive c then c.Types.mem_alive <- true;
  Flash.Machine.fail_node_cpu sys.Types.machine node

(* Kernel data corruption: overwrite a pointer field of a COW-tree node in
   [cell]'s kernel memory, in one of the pathological modes of
   Section 7.4. *)
type corruption_mode =
  | Random_address (* point at a random physical address *)
  | Off_by_one_word (* point one word away from the original *)
  | Self_pointer (* point back at the structure itself *)
  | Cross_cell of Types.cell_id (* point into another cell's memory *)

let corrupt_cow_parent (sys : Types.system) (_c : Types.cell)
    (node : Types.cow_ref) mode rng =
  let addr = node.Types.cow_addr + Kmem.header_bytes + (8 * Cow.f_parent_addr) in
  let original =
    Bytes.get_int64_le
      (Flash.Memory.peek (Flash.Machine.memory sys.Types.machine) addr 8)
      0
  in
  let victim =
    Types.cell_of_node sys
      (Flash.Addr.node_of_addr sys.Types.mcfg node.Types.cow_addr)
  in
  let victim_base = victim.Types.kmem.Types.kmem_base in
  let victim_span = victim.Types.kmem.Types.kmem_limit - victim_base in
  let corrupted =
    match mode with
    | Random_address ->
      (* A wild pointer that still lands in the victim's own kernel
         memory: its owner will dereference it trustingly. *)
      Int64.of_int (victim_base + Sim.Prng.int rng victim_span)
    | Off_by_one_word -> Int64.add original 8L
    | Self_pointer -> Int64.of_int node.Types.cow_addr
    | Cross_cell target ->
      let t = sys.Types.cells.(target) in
      Int64.of_int
        (t.Types.kmem.Types.kmem_base
        + Sim.Prng.int rng
            (t.Types.kmem.Types.kmem_limit - t.Types.kmem.Types.kmem_base))
  in
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 corrupted;
  Flash.Memory.poke (Flash.Machine.memory sys.Types.machine) addr b;
  (* Make the parent-cell field consistent with a locally-interpreted bad
     pointer (except for deliberate cross-cell corruption). *)
  let pc_addr = node.Types.cow_addr + Kmem.header_bytes + (8 * Cow.f_parent_cell) in
  let cb = Bytes.create 8 in
  (match mode with
  | Cross_cell target -> Bytes.set_int64_le cb 0 (Int64.of_int target)
  | Random_address | Off_by_one_word | Self_pointer ->
    Bytes.set_int64_le cb 0 (Int64.of_int victim.Types.cell_id));
  Flash.Memory.poke (Flash.Machine.memory sys.Types.machine) pc_addr cb;
  Types.sys_bump sys "inject.cow_corruptions"

(* Corrupt a process's address map: make an anon region's leaf pointer
   garbage, so the owning kernel trips over it on the next fault. *)
let corrupt_address_map (sys : Types.system) (p : Types.process) mode rng =
  let is_anon (r : Types.region) =
    match r.Types.kind with Types.Anon_region _ -> true | _ -> false
  in
  match List.find_opt is_anon p.Types.regions with
  | None -> false
  | Some r -> (
    match r.Types.kind with
    | Types.Anon_region leaf ->
      let c = sys.Types.cells.(p.Types.proc_cell) in
      corrupt_cow_parent sys c leaf mode rng;
      Types.sys_bump sys "inject.map_corruptions";
      true
    | Types.File_region _ -> false)

(* ---------- Running and measuring ---------- *)

let now = Sim.Engine.now

(* Advance the simulation until [pred] holds or [deadline] passes;
   returns true if the predicate held. *)
let run_until (sys : Types.system) ?(step = 1_000_000L) ~deadline pred =
  let eng = sys.Types.eng in
  let rec go () =
    if pred () then true
    else if Int64.compare (Sim.Engine.now eng) deadline >= 0 then pred ()
    else begin
      let now = Sim.Engine.now eng in
      match Sim.Engine.next_event_time eng with
      | None ->
        (* Empty queue: no event can ever change the state [pred]
           observes, so further polling cannot succeed. *)
        pred ()
      | Some t ->
        (* [pred] only changes when events run, so jump straight to the
           step boundary covering the next event instead of re-checking
           every idle [step] of virtual time. The boundary grid
           (now + k*step) and the observation points are exactly those
           of single-stepping. *)
        let target =
          if Int64.compare t deadline > 0 then deadline
          else begin
            let dt = Int64.sub t now in
            let k = Int64.div (Int64.add dt (Int64.sub step 1L)) step in
            let u = Int64.add now (Int64.mul (max 1L k) step) in
            if Int64.compare u deadline > 0 then deadline else u
          end
        in
        Sim.Engine.run ~until:target eng;
        go ()
    end
  in
  go ()

(* Wait for a set of processes to finish (exit, or die with their cell). *)
let run_until_processes_done (sys : Types.system) ?step ~deadline procs =
  run_until sys ?step ~deadline (fun () ->
      List.for_all
        (fun (p : Types.process) -> p.Types.pstate = Types.Proc_zombie)
        procs)

let live_cells (sys : Types.system) =
  Array.to_list sys.Types.cells |> List.filter Types.cell_alive
  |> List.map (fun c -> c.Types.cell_id)

(* Detection latency of the last recovery round: time from [t_fault] until
   the last live cell entered recovery (the Table 7.4 metric). *)
let detection_latency_ns (sys : Types.system) ~t_fault =
  match sys.Types.recovery_events with
  | [] -> None
  | evs ->
    let latest = List.fold_left (fun acc (_, t) -> max acc t) 0L evs in
    Some (Int64.sub latest t_fault)

let counters (sys : Types.system) =
  let all = Sim.Stats.to_list sys.Types.sys_counters in
  let per_cell =
    Array.to_list sys.Types.cells
    |> List.map (fun (c : Types.cell) ->
           (c.Types.cell_id, Sim.Stats.to_list c.Types.counters))
  in
  (all, per_cell)
