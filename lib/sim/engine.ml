exception Killed

exception Deadlock of string

(* [retired] is set once the entry can never run again — popped by the
   run loop or removed by queue compaction — so a late [cancel] on a
   dead timer handle does not skew the engine's cancelled-entry count.
   Events carry a back-pointer to their engine so [cancel] (whose public
   type is [timer -> unit]) can keep that count exact and trigger lazy
   compaction. [key] is the event's tie-break key; [next] links the
   events of one same-instant run (see [schedule_at]), and the engine's
   [nil] sentinel ends a run. *)
type event = {
  mutable cancelled : bool;
  mutable retired : bool;
  act : unit -> unit;
  eng : t;
  key : int;
  mutable next : event;
}

and thread = {
  tid : int;
  name : string;
  mutable dead : bool;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable timers : event list;
  mutable on_exit : (unit -> unit) list;
  mutable site : string;
}

and t = {
  mutable now : int64;
  events : event Heap.t;
      (* one entry per run: the payload is the run's next event *)
  nil : event;
  mutable open_tail : event;
      (* last event of the open run, or [nil] when no run is open *)
  mutable open_time : int64;
  mutable pending : int; (* events queued, cancelled ones included *)
  mutable seq : int;
  mutable next_tid : int;
  mutable current : thread option;
  mutable live : int;
  mutable crash_handler : thread -> exn -> unit;
  threads : (int, thread) Hashtbl.t;
  mutable jitter : Prng.t option;
  mutable jitter_block : int; (* [seq lsr 3] of the current mask *)
  mutable jitter_mask : int;
  mutable cancelled_pending : int;
      (* cancelled, unpopped entries still sitting in the event heap *)
  owner : int; (* id of the domain that created the engine *)
  mutable running : bool; (* inside [run] *)
  mutable until : int64; (* the current [run]'s stop time, or max_int *)
}

type timer = event

type _ Effect.t +=
  | E_now : int64 Effect.t
  | E_self : thread Effect.t
  | E_delay : int64 -> unit Effect.t
  | E_suspend : string * (thread -> unit) -> unit Effect.t

let create () =
  let events = Heap.create () and threads = Hashtbl.create 64 in
  let owner = (Domain.self () :> int) in
  let rec eng =
    { now = 0L;
      events;
      nil;
      open_tail = nil;
      open_time = 0L;
      pending = 0;
      seq = 0;
      next_tid = 0;
      current = None;
      live = 0;
      crash_handler = (fun _ _ -> ());
      threads;
      jitter = None;
      jitter_block = -1;
      jitter_mask = 0;
      cancelled_pending = 0;
      owner;
      running = false;
      until = Int64.max_int }
  and nil =
    { cancelled = false; retired = true; act = ignore; eng; key = 0; next = nil }
  in
  eng.crash_handler <-
    (fun thr e ->
      let bt = Printexc.get_backtrace () in
      let msg =
        Printf.sprintf "sim thread %S (tid %d) raised %s\n%s" thr.name thr.tid
          (Printexc.to_string e) bt
      in
      raise (Failure msg));
  eng

let now eng = eng.now

(* Tid of the thread the engine is currently executing, or 0 when called
   from outside any simulation thread (boot code, sinks). *)
let current_tid eng =
  match eng.current with Some t -> t.tid | None -> 0

let set_crash_handler eng f = eng.crash_handler <- f

(* An engine is single-threaded by construction: it may only be driven by
   the domain that created it. Parallel fuzzing relies on this — each
   worker domain owns a private engine and never shares it. *)
let assert_owner eng op =
  let d = (Domain.self () :> int) in
  if d <> eng.owner then
    invalid_arg
      (Printf.sprintf
         "Engine.%s: engine owned by domain %d used from domain %d (engines \
          are single-threaded; create one per domain)"
         op eng.owner d)

(* The engine that [run] is driving on this domain, read by [delay]. *)
let running_engine : t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Give every queued event its own heap entry again, keyed by its own
   key. Called when jitter is switched on: the jittered keys of the
   current block can fall between the keys of events chained in one run. *)
let split_runs eng =
  let queued = ref [] in
  while not (Heap.is_empty eng.events) do
    let top = Heap.min eng.events in
    Heap.drop_min eng.events;
    let e = ref top.Heap.payload in
    while !e != eng.nil do
      let ev = !e in
      e := ev.next;
      ev.next <- eng.nil;
      queued := (top.Heap.time, ev) :: !queued
    done
  done;
  List.iter (fun (time, ev) -> Heap.push eng.events ~time ~seq:ev.key ev) !queued;
  eng.open_tail <- eng.nil

(* A mask covers its whole block (see [schedule_at]): switching jitter
   off keeps the current block's mask, switching it on draws a fresh one
   at the next schedule. *)
let set_jitter eng prng =
  if Option.is_some prng then begin
    eng.jitter_block <- -1;
    split_runs eng
  end;
  eng.jitter <- prng

(* Take the next sequence number, drawing the jitter mask of its block
   of 8 when it starts one (see [schedule_at]). *)
let next_seq eng =
  let seq = eng.seq + 1 in
  eng.seq <- seq;
  if seq lsr 3 <> eng.jitter_block then begin
    eng.jitter_block <- seq lsr 3;
    eng.jitter_mask <- (match eng.jitter with None -> 0 | Some p -> Prng.int p 8)
  end;
  seq

(* With jitter enabled, perturb the low bits of the tie-break sequence
   number so that events scheduled for the same virtual instant may pop in
   a different (but still seed-deterministic) order. Events at different
   times are never reordered, so causality is preserved; only the
   interleaving of logically-concurrent events varies across seeds.

   The key must stay unique (the heap's contract): two events sharing
   [(time, key)] would pop in an order that depends on heap layout. So
   one mask is drawn per aligned block of 8 sequence numbers (0 without
   jitter) and xor-ed into the low 3 bits, a bijection on the block. The
   sequence number's own low bits break the one remaining tie: an
   unjittered key and a jittered key from the block where jitter was
   switched on.

   Same-instant runs. Clock threads tick in lockstep, so most events land
   on an instant that is already queued. With jitter off, an event for
   the instant of the *open run* — the run of the most recently pushed
   heap entry — is appended to that run instead of pushed: every event
   queued at that instant before the run opened has a smaller key, and
   every later one opens a new entry with a larger key, so the run is a
   contiguous stretch of the [(time, key)] order and draining it in FIFO
   order pops exactly what the heap would. Draining a run member is O(1);
   a lone event is a plain heap entry with no extra allocation. Jittered
   keys do not follow schedule order, so an event joins or opens a run
   only when jitter is off and its block is unmasked; otherwise it is its
   own heap entry. *)
let schedule_at eng time act =
  assert_owner eng "schedule_at";
  let time = if Int64.compare time eng.now < 0 then eng.now else time in
  let seq = next_seq eng in
  eng.pending <- eng.pending + 1;
  let key = ((seq lxor eng.jitter_mask) lsl 3) lor (seq land 7) in
  let e =
    { cancelled = false; retired = false; act; eng; key; next = eng.nil }
  in
  if eng.jitter_mask = 0 && Option.is_none eng.jitter then begin
    if eng.open_tail != eng.nil && Int64.equal time eng.open_time then
      eng.open_tail.next <- e
    else begin
      Heap.push eng.events ~time ~seq:key e;
      eng.open_time <- time
    end;
    eng.open_tail <- e
  end
  else begin
    Heap.push eng.events ~time ~seq:key e;
    eng.open_tail <- eng.nil
  end;
  e

let schedule eng ~after act =
  ignore (schedule_at eng (Int64.add eng.now after) act)

let timer eng ~after act = schedule_at eng (Int64.add eng.now after) act

(* Drop the cancelled events of the run starting at [head], retiring
   them; returns the first survivor, or [nil]. The heap entry keeps its
   key: the survivors stay a contiguous stretch of the pop order. *)
let compact_run eng head =
  let nil = eng.nil in
  let first = ref nil and last = ref nil and held_open = ref false in
  let e = ref head in
  while !e != nil do
    let ev = !e in
    e := ev.next;
    ev.next <- nil;
    if ev == eng.open_tail then held_open := true;
    if ev.cancelled then begin
      ev.retired <- true;
      eng.pending <- eng.pending - 1
    end
    else begin
      if !last == nil then first := ev else !last.next <- ev;
      last := ev
    end
  done;
  if !held_open then eng.open_tail <- !last;
  !first

(* When cancelled entries dominate the queue, sweep them out in one O(n)
   pass instead of letting them drain through [pop] at their (possibly
   far-future) deadlines. The threshold keeps the amortized cost O(1) per
   cancel while bounding the queue at ~2x its live size. *)
let maybe_compact eng =
  if eng.cancelled_pending > 32 && eng.cancelled_pending * 2 > eng.pending
  then begin
    Heap.filter_map eng.events (fun head ->
        let first = compact_run eng head in
        if first == eng.nil then None else Some first);
    eng.cancelled_pending <- 0
  end

let cancel tm =
  if not tm.cancelled && not tm.retired then begin
    tm.cancelled <- true;
    let eng = tm.eng in
    eng.cancelled_pending <- eng.cancelled_pending + 1;
    maybe_compact eng
  end

(* Resume a suspended thread by scheduling its parked continuation as an
   event at the current time. Returns false if the thread holds no
   continuation (already resumed, running, or never suspended): that tells a
   waker it lost the race against a competing waker or timeout. Any timers
   attached to the suspension (timeouts, delay wakeups) are cancelled so
   they cannot later advance the virtual clock. *)
let try_resume eng thr =
  match thr.cont with
  | None -> false
  | Some k ->
    thr.cont <- None;
    List.iter cancel thr.timers;
    thr.timers <- [];
    schedule eng ~after:0L (fun () ->
        let open Effect.Deep in
        let prev = eng.current in
        eng.current <- Some thr;
        (if thr.dead then discontinue k Killed else continue k ());
        eng.current <- prev);
    true

let resume eng thr = ignore (try_resume eng thr)

(* Arrange for a suspended thread to be woken after a delay; cancelled
   automatically if something else resumes it first. Call only from a
   suspend registration (or on a thread known to be suspended). *)
let wake_after eng thr d =
  let tm = timer eng ~after:d (fun () -> resume eng thr) in
  thr.timers <- tm :: thr.timers

let kill eng thr =
  if not thr.dead then begin
    thr.dead <- true;
    (* If suspended, force prompt unwinding so cleanup handlers run. *)
    ignore (try_resume eng thr)
  end

let finish eng thr =
  thr.dead <- true;
  eng.live <- eng.live - 1;
  Hashtbl.remove eng.threads thr.tid;
  List.iter cancel thr.timers;
  thr.timers <- [];
  List.iter (fun f -> f ()) (List.rev thr.on_exit);
  thr.on_exit <- []

let exec eng thr body =
  let open Effect.Deep in
  (* The wake-up of a delay continues the thread directly instead of
     bouncing through a second resume event, halving event-queue traffic
     on the delay/compute path. If a competing waker (kill, mailbox
     send) claims the continuation first, it also cancels this timer,
     so the direct continue can never race: a fired timer finding
     [cont = Some] owns it. One closure serves every delay of the
     thread. *)
  let current = Some thr in
  let wake () =
    match thr.cont with
    | None -> ()
    | Some k ->
      thr.cont <- None;
      thr.timers <- [];
      let prev = eng.current in
      eng.current <- current;
      (if thr.dead then discontinue k Killed else continue k ());
      eng.current <- prev
  in
  match_with
    (fun () -> try body () with Killed -> ())
    ()
    { retc = (fun () -> finish eng thr);
      exnc =
        (fun e ->
          finish eng thr;
          eng.crash_handler thr e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_now -> Some (fun (k : (a, unit) continuation) -> continue k eng.now)
          | E_self -> Some (fun (k : (a, unit) continuation) -> continue k thr)
          | E_delay d ->
            Some
              (fun (k : (a, unit) continuation) ->
                thr.site <- "delay";
                if thr.dead then discontinue k Killed
                else begin
                  thr.cont <- Some k;
                  thr.timers <- timer eng ~after:d wake :: thr.timers
                end)
          | E_suspend (site, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                thr.site <- site;
                if thr.dead then discontinue k Killed
                else begin
                  thr.cont <- Some k;
                  register thr
                end)
          | _ -> None) }

let spawn ?(name = "thread") ?(at = None) eng body =
  eng.next_tid <- eng.next_tid + 1;
  let thr =
    { tid = eng.next_tid;
      name;
      dead = false;
      cont = None;
      timers = [];
      on_exit = [];
      site = "spawned" }
  in
  eng.live <- eng.live + 1;
  Hashtbl.replace eng.threads thr.tid thr;
  let start () =
    if thr.dead then
      (* Killed before it ever ran: just account for its exit. *)
      finish eng thr
    else begin
      let prev = eng.current in
      eng.current <- Some thr;
      exec eng thr body;
      eng.current <- prev
    end
  in
  (match at with
  | None -> schedule eng ~after:0L start
  | Some time -> ignore (schedule_at eng time start));
  thr

let spawn_at eng ~at ?name body = spawn ?name ~at:(Some at) eng body

let self () = Effect.perform E_self

let time () = Effect.perform E_now

(* A delay whose wake-up would be the very next event advances the
   clock in place. The wake event would pop before everything queued
   (strictly earlier than the heap minimum, cancelled entries included)
   and within the run's [until], and nothing runs between a suspend and
   that pop, so skipping the effect, the event and the heap round trip
   changes nothing observable. The delay still takes the sequence number
   (and, with jitter on, the mask) its event would have taken, so
   [events_scheduled], the jitter stream and every later key are the
   same. Only the current thread of the engine [run] is driving on this
   domain qualifies; anything else takes the effect. *)
let delay ns =
  if ns > 0L then
    match Domain.DLS.get running_engine with
    | Some ({ current = Some thr; _ } as eng) when not thr.dead ->
      let wake_at = Int64.add eng.now ns in
      if
        wake_at <= eng.until
        && (Heap.is_empty eng.events
           || wake_at < (Heap.min eng.events).Heap.time)
      then begin
        ignore (next_seq eng);
        thr.site <- "delay";
        eng.now <- wake_at
      end
      else Effect.perform (E_delay ns)
    | _ -> Effect.perform (E_delay ns)

let yield () = Effect.perform (E_delay 0L)

let suspend ?(site = "suspend") register =
  Effect.perform (E_suspend (site, register))

let at_exit_thread f =
  let thr = self () in
  thr.on_exit <- f :: thr.on_exit

(* Dequeue [ev], the front event of [top]'s run: O(1) while the run has
   more events, a heap pop when it is the last. *)
let dequeue eng (top : event Heap.entry) ev =
  if ev.next != eng.nil then begin
    top.Heap.payload <- ev.next;
    ev.next <- eng.nil
  end
  else begin
    Heap.drop_min eng.events;
    if ev == eng.open_tail then eng.open_tail <- eng.nil
  end;
  ev.retired <- true;
  eng.pending <- eng.pending - 1

let run ?until eng =
  assert_owner eng "run";
  if eng.running then invalid_arg "Engine.run: re-entrant run of one engine";
  let outer = Domain.DLS.get running_engine in
  eng.running <- true;
  eng.until <- Option.value until ~default:Int64.max_int;
  Domain.DLS.set running_engine (Some eng);
  let leave () =
    eng.running <- false;
    Domain.DLS.set running_engine outer
  in
  let continue_run () =
    if Heap.is_empty eng.events then false
    else begin
      let top = Heap.min eng.events in
      let ev = top.Heap.payload in
      if ev.cancelled then begin
        dequeue eng top ev;
        eng.cancelled_pending <- eng.cancelled_pending - 1;
        true
      end
      else if top.Heap.time > eng.until then begin
        eng.now <- eng.until;
        false
      end
      else begin
        dequeue eng top ev;
        eng.now <- top.Heap.time;
        ev.act ();
        true
      end
    end
  in
  Fun.protect ~finally:leave (fun () ->
      while continue_run () do
        ()
      done)

let live_threads eng = eng.live

let pending_events eng = eng.pending

(* Virtual time of the earliest pending event (cancelled entries
   included — they still bound how far the clock can silently advance). *)
let next_event_time eng =
  if Heap.is_empty eng.events then None
  else Some (Heap.min eng.events).Heap.time

(* Total events ever scheduled; a deterministic measure of how much work
   a simulation did (wall-clock-free, so benches can gate on it). *)
let events_scheduled eng = eng.seq

let cancelled_pending eng = eng.cancelled_pending

(* Live threads sorted by tid; when the event queue has drained these are
   exactly the threads parked on a suspend with no waker left. *)
let blocked_threads eng =
  Hashtbl.fold (fun _ thr acc -> thr :: acc) eng.threads []
  |> List.filter (fun thr -> not thr.dead)
  |> List.sort (fun a b -> compare a.tid b.tid)

let check_deadlock eng =
  if eng.live > 0 && Heap.is_empty eng.events then begin
    let blocked = blocked_threads eng in
    let desc thr =
      Printf.sprintf "tid %d %S blocked at %s" thr.tid thr.name thr.site
    in
    raise
      (Deadlock
         (Printf.sprintf "deadlock: %d thread(s) made no progress: %s"
            (List.length blocked)
            (String.concat "; " (List.map desc blocked))))
  end
