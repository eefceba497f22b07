(* Failure hints (Section 4.3).

   A cell is considered potentially failed when: an RPC to it times out; an
   access to its memory causes a bus error; its published clock word stops
   incrementing; or data read from its memory fails the consistency checks
   of the careful reference protocol. A hint triggers distributed
   agreement immediately; confirmation is required before recovery.

   Hints that arrive while a recovery round is already in flight cannot run
   agreement (gates are closed, the peers are busy in the round), but they
   must not be dropped either: a hint against a participant that has
   observably stopped is exactly how a *nested* failure is detected, and
   escalates into a round restart with the enlarged dead set. *)

let observably_down (sys : Types.system) suspect =
  let c = sys.Types.cells.(suspect) in
  c.Types.cstatus <> Types.Cell_up
  || List.exists
       (fun n -> not (Flash.Machine.node_alive sys.Types.machine n))
       c.Types.cell_nodes

let handle_hint (sys : Types.system) (reporter : Types.cell) ~suspect ~reason =
  if not (Types.cell_alive reporter) || suspect = reporter.Types.cell_id then ()
  else if sys.Types.recovery_in_progress then begin
    (* Mid-recovery hint: per-phase RPC timeouts and clock monitoring keep
       firing while a round runs. Escalate only when the suspect is a
       participant that has demonstrably stopped; [Recovery.cell_died]
       dedups against the confirmed dead set and restarts the round. *)
    if
      List.mem suspect reporter.Types.live_set
      && observably_down sys suspect
    then begin
      Types.bump reporter "failure.hints_during_recovery";
      if Sim.Event.enabled sys.Types.events then
        Sim.Event.instant sys.Types.events ~cell:reporter.Types.cell_id
          ~args:
            [ ("suspect", Sim.Event.Int suspect); ("reason", Sim.Event.Str reason) ]
          ~cat:Sim.Event.Recovery "failure.suspect_during_recovery";
      Recovery.cell_died sys suspect
    end
  end
  else if
    (not reporter.Types.in_recovery)
    && List.mem suspect reporter.Types.live_set
    && not (List.mem suspect reporter.Types.suspected)
  then begin
    reporter.Types.suspected <- suspect :: reporter.Types.suspected;
    Types.bump reporter "failure.hints";
    Types.note_phase sys ~cell:reporter.Types.cell_id "recovery.hint";
    if Sim.Event.enabled sys.Types.events then
      Sim.Event.instant sys.Types.events ~cell:reporter.Types.cell_id
        ~args:
          [ ("suspect", Sim.Event.Int suspect); ("reason", Sim.Event.Str reason) ]
        ~cat:Sim.Event.Recovery "failure.suspect";
    (* Run agreement from a fresh kernel thread: hints fire from fault
       paths and interrupt handlers that must not block for milliseconds. *)
    let thr =
      Sim.Engine.spawn sys.Types.eng
        ~name:(Printf.sprintf "cell%d.agreement" reporter.Types.cell_id)
        (fun () -> Agreement.run sys reporter ~suspect ~reason)
    in
    reporter.Types.kernel_threads <- thr :: reporter.Types.kernel_threads
  end

let install (sys : Types.system) =
  sys.Types.on_hint <- Some (handle_hint sys);
  (* Panics (and hardware fail-stops, via System's node-failure handler)
     report synchronously so an in-flight recovery round restarts instead
     of deadlocking on the dead participant's barrier slot. *)
  sys.Types.on_cell_death <- Some (fun id -> Recovery.cell_died sys id)
