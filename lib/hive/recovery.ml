(* Recovery after a confirmed cell failure (Section 4.3).

   Given consensus on the live set, each surviving cell runs recovery to
   clean up dangling references and determine which processes must be
   killed. A double global barrier synchronizes the preemptive discard:

   - before barrier 1, each cell flushes its TLBs and removes remote
     mappings (faults arriving later are held up on the client side);
   - after barrier 1, no valid remote accesses are pending, so each cell
     revokes firewall permissions it granted to the failed cells, discards
     every page they could have written (notifying the file system about
     lost dirty pages), and cleans its VM structures;
   - after barrier 2, cells resume normal operation.

   Recovery must itself survive faults. If a participant dies *during* a
   round, the round's barriers are aborted (never waited on forever) and
   the surviving cells restart the round with the enlarged dead set; the
   round counter [sys.recovery_round] names the current attempt, and each
   participant loops until it completes a round that is still current.

   At the end of a round a recovery master is elected from the new live
   set; it runs hardware diagnostics on the failed nodes and (if they
   pass) reboots and reintegrates the failed cells via the reintegration
   hook installed by [System.boot]. *)

type Types.payload +=
  | P_recovery_start of { dead : Types.cell_id list }

let start_op = Rpc.Op.declare "recovery.start"

let diagnostics_ns = 18_000_000L

(* Poll period while waiting for a partition to heal so an excised
   still-running cell can be stopped and reintegrated. *)
let reclaim_poll_ns = 50_000_000L

(* The per-cell recovery algorithm, run in its own kernel thread. It loops
   until it completes a round that is still the current one: any barrier
   abort (or a round-counter change observed after a barrier) means a
   participant died mid-round and the round was restarted with a larger
   dead set. *)
let recovery_sequence (sys : Types.system) (c : Types.cell) =
  let p = sys.Types.params in
  let eng = sys.Types.eng in
  sys.Types.recovery_events <-
    (c.Types.cell_id, Sim.Engine.now eng) :: sys.Types.recovery_events;
  (* Mastership spans the whole round INCLUDING deferred reclamation: a
     confirmed-dead cell still running behind a partition remains this
     master's responsibility until the heal lets it be stopped and
     rebooted, so master_end must wait for the last deferred reclaim. *)
  let deferred_reclaims = ref 0 in
  let release_mastership () =
    if !deferred_reclaims = 0 then Types.master_end sys c.Types.cell_id
  in
  let rec round () =
    let round_no = sys.Types.recovery_round in
    let dead = sys.Types.recovery_dead in
    let b1 = sys.Types.recovery_barrier1 in
    let b2 = sys.Types.recovery_barrier2 in
    c.Types.in_recovery <- true;
    Gate.close sys c;
    Types.bump c "recovery.rounds";
    c.Types.live_set <-
      List.filter (fun id -> not (List.mem id dead)) c.Types.live_set;
    (* The recovery master (lowest live cell id) stamps the global recovery
       timeline; barrier phases are global sync points, so one cell's view
       of them is the system's. *)
    let min_live = List.fold_left min max_int c.Types.live_set in
    let is_master = c.Types.cell_id = min_live in
    (* Latch mastership the instant it is assumed: the split-brain oracle
       ([Invariants.check_single_master]) sees every overlap window, even
       one that closes before the run quiesces. *)
    if is_master then Types.master_begin sys c.Types.cell_id;
    let note phase =
      if is_master then Types.note_phase sys ~cell:c.Types.cell_id phase
    in
    let await n b =
      c.Types.recovery_barrier_joined <- (round_no, n);
      match b with
      | Some b -> Sim.Barrier.await_abortable eng b
      | None -> Sim.Barrier.Released
    in
    (* A barrier abort (or a stale round counter) means the round was
       restarted: go again with the enlarged dead set if this cell is still
       a participant. *)
    let restart () =
      if Types.cell_alive c && sys.Types.recovery_round <> round_no then begin
        Types.bump c "recovery.round_restarts";
        round ()
      end
      else begin
        (* Defensive: an abort without a restart (or our own death) must
           not leave the cell gated forever. *)
        Types.master_end sys c.Types.cell_id;
        c.Types.in_recovery <- false;
        if Types.cell_alive c then Gate.open_ sys c
      end
    in
    (* Phase 1: TLB flush + removal of remote mappings and import bindings. *)
    Vm.flush_remote_bindings ~dead sys c;
    Sim.Engine.delay p.Params.recovery_phase_ns;
    match await 1 b1 with
    | Sim.Barrier.Aborted -> restart ()
    | Sim.Barrier.Released -> (
      note "recovery.barrier1";
      (* Phase 2: nothing remote is pending now; revoke grants and discard
         everything the failed cells could have written. (The ablation knob
         models a system without preemptive discard: corrupt pages stay.) *)
      let discarded =
        if p.Params.enable_preemptive_discard then
          Vm.preemptive_discard sys c ~dead
        else 0
      in
      note "recovery.discard";
      if Sim.Event.enabled sys.Types.events then
        Sim.Event.instant sys.Types.events ~cell:c.Types.cell_id
          ~args:[ ("pages", Sim.Event.Int discarded) ]
          ~cat:Sim.Event.Recovery "recovery.discarded";
      (* Kill processes that depended on resources of the failed cells. *)
      List.iter
        (fun (proc : Types.process) ->
          if
            proc.Types.pstate <> Types.Proc_zombie
            && List.exists (fun d -> List.mem d dead) proc.Types.uses_cells
          then begin
            proc.Types.killed_by_failure <- true;
            Types.bump c "recovery.procs_killed";
            match proc.Types.thread with
            | Some t -> Sim.Engine.kill eng t
            | None -> ()
          end)
        c.Types.processes;
      Sim.Engine.delay p.Params.recovery_phase_ns;
      match await 2 b2 with
      | Sim.Barrier.Aborted -> restart ()
      | Sim.Barrier.Released ->
        if sys.Types.recovery_round <> round_no then
          (* A restart raced the final barrier release: go again. *)
          round ()
        else begin
          note "recovery.barrier2";
          (* Back to normal operation. *)
          c.Types.suspected <- [];
          c.Types.in_recovery <- false;
          Gate.open_ sys c;
          note "recovery.resume";
          (* The recovery master finishes the round. *)
          if is_master then begin
            (* A master that can no longer reach a strict majority of the
               new live set is on the minority side of a partition that
               armed mid-round; finishing here would run concurrently
               with the majority's master. Stand down instead. *)
            let reachable_live =
              List.filter
                (fun id ->
                  id = c.Types.cell_id
                  || not (Careful_ref.partitioned sys c ~target:id))
                c.Types.live_set
            in
            if
              p.Params.agreement_quorum_check
              && List.length reachable_live * 2 <= List.length c.Types.live_set
            then begin
              Types.sys_bump sys "recovery.master_standdown";
              Types.note_phase sys ~cell:c.Types.cell_id
                "recovery.master_standdown";
              Types.master_end sys c.Types.cell_id;
              Panic.panic sys c "partition: recovery master lost quorum"
            end
            else begin
              (* Diagnose the failed nodes' hardware. *)
              Sim.Engine.delay diagnostics_ns;
              if sys.Types.recovery_round <> round_no then
                (* A participant died while diagnostics ran: rejoin the
                   restarted round. *)
                round ()
              else begin
                (* Diagnostics passed: repair and reintegrate every failed
                   cell, then declare the recovery over. A confirmed-dead
                   cell still running on the far side of a partition cannot
                   be stopped or rebooted yet: leave it excised and poll
                   until the partition heals, then stop it and reboot it
                   into the new live set — healed halves reconcile into one
                   live set instead of two. *)
                (if p.Params.auto_reintegrate then begin
                   let reintegrate_now d =
                     Types.note_phase sys ~cell:c.Types.cell_id
                       "recovery.reintegrate";
                     Types.sys_bump sys "recovery.reintegrated";
                     match sys.Types.reintegrate_fn with
                     | Some f -> f d
                     | None -> ()
                   in
                   let rec reclaim d =
                     let dc = sys.Types.cells.(d) in
                     if Types.cell_alive c && not (List.mem d c.Types.live_set)
                     then begin
                       if
                         dc.Types.cstatus <> Types.Cell_down
                         && Careful_ref.partitioned sys c ~target:d
                       then
                         Sim.Engine.schedule eng ~after:reclaim_poll_ns
                           (fun () -> reclaim d)
                       else begin
                         if dc.Types.cstatus <> Types.Cell_down then
                           Panic.panic sys dc
                             "partition healed: stopped for reintegration";
                         reintegrate_now d;
                         decr deferred_reclaims;
                         release_mastership ()
                       end
                     end
                     else begin
                       (* Someone else reclaimed it (or we died): done. *)
                       decr deferred_reclaims;
                       release_mastership ()
                     end
                   in
                   List.iter
                     (fun d ->
                       let dc = sys.Types.cells.(d) in
                       if dc.Types.cstatus = Types.Cell_down then
                         reintegrate_now d
                       else if not (Careful_ref.partitioned sys c ~target:d)
                       then begin
                         Panic.panic sys dc
                           "declared failed by distributed agreement";
                         reintegrate_now d
                       end
                       else begin
                         Types.note_phase sys ~cell:c.Types.cell_id
                           "recovery.reclaim_deferred";
                         incr deferred_reclaims;
                         Sim.Engine.schedule eng ~after:reclaim_poll_ns
                           (fun () -> reclaim d)
                       end)
                     (List.sort compare dead)
                 end);
                sys.Types.recovery_complete_at <- Sim.Engine.now eng;
                sys.Types.recovery_round_active <- false;
                sys.Types.recovery_in_progress <- false;
                Types.sys_bump sys "recovery.completed";
                release_mastership ();
                match sys.Types.wax_restart with
                | Some f -> f sys
                | None -> ()
              end
            end
          end
        end)
  in
  round ();
  (* Whatever path ended the loop, this cell holds no mastership beyond
     any still-deferred reclaims (no-op for non-masters; killed threads
     never get here and are handled by the liveness filter in
     [Types.master_begin]). *)
  release_mastership ();
  c.Types.recovery_active <- false

let start_recovery_thread (sys : Types.system) (c : Types.cell) =
  c.Types.recovery_active <- true;
  let thr =
    Sim.Engine.spawn sys.Types.eng
      ~name:(Printf.sprintf "cell%d.recovery" c.Types.cell_id)
      (fun () -> recovery_sequence sys c)
  in
  c.Types.kernel_threads <- thr :: c.Types.kernel_threads

let live_participants (sys : Types.system) =
  Array.to_list sys.Types.cells
  |> List.filter_map (fun (c : Types.cell) ->
         if
           Types.cell_alive c
           && not (List.mem c.Types.cell_id sys.Types.recovery_dead)
         then Some c
         else None)

let make_barriers (sys : Types.system) parties =
  sys.Types.recovery_barrier1 <- Some (Sim.Barrier.create (max 1 parties));
  sys.Types.recovery_barrier2 <- Some (Sim.Barrier.create (max 1 parties))

(* Kick off a recovery round for the confirmed dead set. Called on the
   accusing cell after agreement (or directly by the failure oracle).
   [by] names the initiating cell: under a partition only the cells it
   can reach participate in the round — the far side cannot hear the
   barriers and would deadlock them, and a "dead" cell that is merely
   unreachable cannot be stopped from here (it stays running, excised
   from the survivors' live sets until the partition heals). *)
let initiate ?by (sys : Types.system) ~dead =
  sys.Types.recovery_in_progress <- true;
  sys.Types.recovery_dead <- dead;
  sys.Types.recovery_round <- sys.Types.recovery_round + 1;
  sys.Types.recovery_round_active <- true;
  Types.sys_bump sys "recovery.initiated";
  let unreachable_from_initiator target =
    match by with
    | None -> false
    | Some b -> Careful_ref.partitioned sys sys.Types.cells.(b) ~target
  in
  (* Force any "dead" cell that is in fact still running (erratic kernel)
     to stop: the confirmed consensus supersedes its own opinion. *)
  List.iter
    (fun d ->
      let dc = sys.Types.cells.(d) in
      if dc.Types.cstatus <> Types.Cell_down then
        if unreachable_from_initiator d then
          Types.sys_bump sys "recovery.excised_unreachable"
        else Panic.panic sys dc "declared failed by distributed agreement")
    dead;
  let live =
    live_participants sys
    |> List.filter (fun (c : Types.cell) ->
           (match by with None -> true | Some b -> c.Types.cell_id = b)
           || not (unreachable_from_initiator c.Types.cell_id))
  in
  sys.Types.recovery_participants <-
    List.map (fun (c : Types.cell) -> c.Types.cell_id) live;
  make_barriers sys (List.length live);
  List.iter (fun c -> start_recovery_thread sys c) live

(* A cell died. If a double-barrier round is in flight and the dead cell
   was a participant (not already in the confirmed dead set), the paper's
   protocol restarts the round with the enlarged dead set: bump the round
   counter, install fresh barriers sized to the shrunken live set, then
   abort the old barriers so nobody waits on a party that will never
   arrive. Participants still inside the round loop observe the abort and
   go again; participants that had already finished (or the master parked
   in diagnostics) are re-spawned or rejoin via the round counter. *)
let cell_died (sys : Types.system) id =
  if
    sys.Types.recovery_round_active
    && not (List.mem id sys.Types.recovery_dead)
  then begin
    let eng = sys.Types.eng in
    sys.Types.recovery_dead <- id :: sys.Types.recovery_dead;
    sys.Types.recovery_round <- sys.Types.recovery_round + 1;
    Types.sys_bump sys "recovery.round_restarts";
    Types.note_phase sys ~cell:id "recovery.restart";
    if Sim.Event.enabled sys.Types.events then
      Sim.Event.instant sys.Types.events ~cell:id
        ~args:[ ("round", Sim.Event.Int sys.Types.recovery_round) ]
        ~cat:Sim.Event.Recovery "recovery.died_mid_round";
    (* Restart among the cells already in the round: a live cell outside
       the old participant set (e.g. on the far side of a partition) must
       not be counted into barriers it will never reach. *)
    let live =
      live_participants sys
      |> List.filter (fun (c : Types.cell) ->
             List.mem c.Types.cell_id sys.Types.recovery_participants)
    in
    sys.Types.recovery_participants <-
      List.map (fun (c : Types.cell) -> c.Types.cell_id) live;
    let old1 = sys.Types.recovery_barrier1 in
    let old2 = sys.Types.recovery_barrier2 in
    make_barriers sys (List.length live);
    (match old1 with Some b -> Sim.Barrier.abort eng b | None -> ());
    (match old2 with Some b -> Sim.Barrier.abort eng b | None -> ());
    (* Survivors whose recovery thread already exited need a fresh one;
       the rest loop back when their barrier await returns [Aborted]. *)
    List.iter
      (fun (c : Types.cell) ->
        if not c.Types.recovery_active then start_recovery_thread sys c)
      live
  end

let registered = ref false

let register_handlers () =
  if not !registered then begin
    registered := true;
    Rpc.register start_op (fun sys cell ~src:_ arg ->
        match arg with
        | P_recovery_start { dead } ->
          (* The confirmed dead set travels in the request; the round state
             is system-global in the simulation, so just join the round. *)
          ignore dead;
          if not cell.Types.recovery_active then
            start_recovery_thread sys cell;
          Types.Immediate (Ok Types.P_unit)
        | _ -> Types.Immediate (Error Types.EFAULT))
  end
