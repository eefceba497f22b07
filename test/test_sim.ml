(* Tests for the discrete-event engine and synchronization primitives. *)

let check_i64 = Alcotest.(check int64)

let run_sim f =
  let eng = Sim.Engine.create () in
  f eng;
  Sim.Engine.run eng;
  eng

let test_clock_advances () =
  let trace = ref [] in
  let eng =
    run_sim (fun eng ->
        ignore
          (Sim.Engine.spawn eng ~name:"a" (fun () ->
               Sim.Engine.delay 100L;
               trace := ("a", Sim.Engine.time ()) :: !trace;
               Sim.Engine.delay 50L;
               trace := ("a2", Sim.Engine.time ()) :: !trace)))
  in
  check_i64 "final time" 150L (Sim.Engine.now eng);
  Alcotest.(check (list (pair string int64)))
    "trace" [ ("a", 100L); ("a2", 150L) ] (List.rev !trace)

let test_deterministic_order () =
  let order = ref [] in
  let eng = Sim.Engine.create () in
  for i = 1 to 5 do
    ignore
      (Sim.Engine.spawn eng ~name:(string_of_int i) (fun () ->
           Sim.Engine.delay 10L;
           order := i :: !order))
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "spawn order preserved at ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_spawn_at () =
  let t = ref 0L in
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn_at eng ~at:500L (fun () -> t := Sim.Engine.time ()));
  Sim.Engine.run eng;
  check_i64 "starts at 500" 500L !t

let test_kill_unwinds () =
  let cleaned = ref false in
  let reached = ref false in
  let eng = Sim.Engine.create () in
  let victim =
    Sim.Engine.spawn eng ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Sim.Engine.delay 1000L;
            reached := true))
  in
  ignore
    (Sim.Engine.spawn eng ~name:"killer" (fun () ->
         Sim.Engine.delay 10L;
         Sim.Engine.kill eng victim));
  Sim.Engine.run eng;
  Alcotest.(check bool) "cleanup ran" true !cleaned;
  Alcotest.(check bool) "body did not complete" false !reached;
  check_i64 "killed promptly, not at 1000" 10L (Sim.Engine.now eng)

let test_kill_before_start () =
  let ran = ref false in
  let eng = Sim.Engine.create () in
  let victim = Sim.Engine.spawn eng (fun () -> ran := true) in
  Sim.Engine.kill eng victim;
  Sim.Engine.run eng;
  Alcotest.(check bool) "never ran" false !ran;
  Alcotest.(check int) "no live threads" 0 (Sim.Engine.live_threads eng)

let test_run_until () =
  let count = ref 0 in
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         for _ = 1 to 100 do
           Sim.Engine.delay 10L;
           incr count
         done));
  Sim.Engine.run ~until:55L eng;
  Alcotest.(check int) "five ticks by t=55" 5 !count;
  check_i64 "clock clamped" 55L (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "completes later" 100 !count

let test_crash_handler () =
  let eng = Sim.Engine.create () in
  let got = ref "" in
  Sim.Engine.set_crash_handler eng (fun thr e ->
      got := thr.Sim.Engine.name ^ ":" ^ Printexc.to_string e);
  ignore (Sim.Engine.spawn eng ~name:"boom" (fun () -> failwith "bad"));
  Sim.Engine.run eng;
  Alcotest.(check string) "handler saw it" "boom:Failure(\"bad\")" !got

let test_timer_cancel () =
  let fired = ref false in
  let eng = Sim.Engine.create () in
  let tm = Sim.Engine.timer eng ~after:100L (fun () -> fired := true) in
  Sim.Engine.cancel tm;
  Sim.Engine.run eng;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_ivar_basic () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Ivar.create () in
  let got = ref 0 in
  ignore
    (Sim.Engine.spawn eng (fun () -> got := Sim.Ivar.read_exn eng iv));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 42L;
         Sim.Ivar.fill eng iv 7));
  Sim.Engine.run eng;
  Alcotest.(check int) "value" 7 !got;
  check_i64 "waited" 42L (Sim.Engine.now eng)

let test_ivar_timeout () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Ivar.create () in
  let got = ref (Some 1) in
  ignore
    (Sim.Engine.spawn eng (fun () -> got := Sim.Ivar.read ~timeout:100L eng iv));
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !got;
  check_i64 "at timeout" 100L (Sim.Engine.now eng)

let test_ivar_fill_after_timeout () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Ivar.create () in
  let first = ref (Some 0) and second = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         first := Sim.Ivar.read ~timeout:10L eng iv));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 50L;
         Sim.Ivar.fill eng iv 9;
         second := Sim.Ivar.read eng iv));
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "first timed out" None !first;
  Alcotest.(check (option int)) "late fill readable" (Some 9) !second

let test_mailbox_fifo () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref [] in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         for _ = 1 to 3 do
           got := Sim.Mailbox.receive_exn eng mb :: !got
         done));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         List.iter
           (fun x ->
             Sim.Engine.delay 5L;
             Sim.Mailbox.send eng mb x)
           [ 1; 2; 3 ]));
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_timeout_then_send () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let r1 = ref (Some 0) and r2 = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         r1 := Sim.Mailbox.receive ~timeout:10L eng mb));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 20L;
         Sim.Mailbox.send eng mb 5;
         (* Message must not be lost to the timed-out waiter. *)
         r2 := Sim.Mailbox.try_receive mb));
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !r1;
  Alcotest.(check (option int)) "message preserved" (Some 5) !r2

let test_mutex_exclusion () =
  let eng = Sim.Engine.create () in
  let m = Sim.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Mutex.with_lock eng m (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               Sim.Engine.delay 10L;
               decr inside)))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  check_i64 "serialized" 40L (Sim.Engine.now eng)

let test_mutex_killed_holder_releases () =
  let eng = Sim.Engine.create () in
  let m = Sim.Mutex.create () in
  let second_got_lock = ref false in
  let holder =
    Sim.Engine.spawn eng (fun () ->
        Sim.Mutex.with_lock eng m (fun () -> Sim.Engine.delay 1000L))
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 5L;
         Sim.Mutex.lock eng m;
         second_got_lock := true));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Sim.Engine.kill eng holder));
  Sim.Engine.run eng;
  Alcotest.(check bool) "lock released by kill" true !second_got_lock

let test_semaphore_limits () =
  let eng = Sim.Engine.create () in
  let s = Sim.Semaphore.create 2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Semaphore.with_acquired eng s (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               Sim.Engine.delay 10L;
               decr inside)))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "at most 2 inside" 2 !max_inside;
  check_i64 "three waves" 30L (Sim.Engine.now eng)

let test_barrier_releases_all () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 3 in
  let released = ref [] in
  for i = 1 to 3 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Engine.delay (Int64.of_int (i * 10));
           Sim.Barrier.await eng b;
           released := (i, Sim.Engine.time ()) :: !released))
  done;
  Sim.Engine.run eng;
  List.iter
    (fun (_, t) -> check_i64 "all released when last arrives" 30L t)
    !released;
  Alcotest.(check int) "all three" 3 (List.length !released)

let test_barrier_cyclic () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 2 in
  let rounds = ref 0 in
  for _ = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           for _ = 1 to 3 do
             Sim.Engine.delay 1L;
             Sim.Barrier.await eng b
           done;
           incr rounds))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "both finished 3 rounds" 2 !rounds

let test_barrier_abort_releases_waiters () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 3 in
  let outcomes = ref [] in
  for i = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Engine.delay (Int64.of_int i);
           let o = Sim.Barrier.await_abortable eng b in
           outcomes := o :: !outcomes))
  done;
  (* The third party never arrives; abort instead of deadlocking. *)
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Sim.Barrier.abort eng b));
  Sim.Engine.run eng;
  Alcotest.(check int) "both waiters released" 2 (List.length !outcomes);
  Alcotest.(check bool) "both saw Aborted" true
    (List.for_all (fun o -> o = Sim.Barrier.Aborted) !outcomes);
  (* Abort is sticky: late arrivals are turned away immediately. *)
  let late = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         late := Some (Sim.Barrier.await_abortable eng b)));
  Sim.Engine.run eng;
  Alcotest.(check bool) "late arrival sees Aborted" true
    (!late = Some Sim.Barrier.Aborted)

let test_barrier_remove_party () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 3 in
  let released = ref 0 in
  for i = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Engine.delay (Int64.of_int i);
           match Sim.Barrier.await_abortable eng b with
           | Sim.Barrier.Released -> incr released
           | Sim.Barrier.Aborted -> ()))
  done;
  (* The third participant dies; shrinking the party count must release
     the two already waiting. *)
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Sim.Barrier.remove_party eng b));
  Sim.Engine.run eng;
  Alcotest.(check int) "both released by the shrink" 2 !released;
  Alcotest.(check int) "parties now 2" 2 (Sim.Barrier.parties b);
  (* Shrinking the last party degenerates to an abort. *)
  let b2 = Sim.Barrier.create 1 in
  Sim.Barrier.remove_party eng b2;
  Alcotest.(check bool) "single-party shrink aborts" true
    (Sim.Barrier.aborted b2)

let test_prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.next a) (Sim.Prng.next b)
  done

let qcheck_heap_ordered =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun i t -> Sim.Heap.push h ~time:(Int64.of_int t) ~seq:i i)
        times;
      let rec drain prev acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some e ->
          let key = (e.Sim.Heap.time, e.Sim.Heap.seq) in
          if compare key prev < 0 then raise Exit;
          drain key (e.Sim.Heap.payload :: acc)
      in
      match drain (-1L, -1) [] with
      | popped -> List.length popped = List.length times
      | exception Exit -> false)

let qcheck_heap_filter_preserves_order =
  QCheck.Test.make
    ~name:"heap filter drops exactly the marked entries, order intact"
    ~count:200
    QCheck.(list (pair (int_bound 1000) bool))
    (fun spec ->
      let entries = List.mapi (fun i (t, b) -> (Int64.of_int t, i, b)) spec in
      let h = Sim.Heap.create () in
      List.iter (fun (t, i, _) -> Sim.Heap.push h ~time:t ~seq:i i) entries;
      let keep = Array.of_list (List.map (fun (_, _, b) -> b) entries) in
      Sim.Heap.filter_map h (fun i -> if keep.(i) then Some i else None);
      let expected =
        List.filter_map (fun (t, i, b) -> if b then Some (t, i) else None)
          entries
        |> List.sort compare |> List.map snd
      in
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some e -> drain (e.Sim.Heap.payload :: acc)
      in
      drain [] = expected)

(* Draining a large heap must release its peak allocation: a long-lived
   engine should not pin the backing array of its largest campaign. *)
let test_heap_pop_releases_peak () =
  let h = Sim.Heap.create () in
  for i = 0 to 4095 do
    Sim.Heap.push h ~time:(Int64.of_int (i land 63)) ~seq:i i
  done;
  let peak = Sim.Heap.capacity h in
  Alcotest.(check bool) "backing array grew" true (peak >= 4096);
  for _ = 1 to 4080 do
    ignore (Sim.Heap.pop h)
  done;
  Alcotest.(check int) "survivors remain" 16 (Sim.Heap.length h);
  Alcotest.(check bool) "peak released" true (Sim.Heap.capacity h < peak / 4)

(* Cancelling timers must reclaim their queue entries eagerly (via heap
   compaction) instead of letting tombstones drain through pop at their
   original deadlines. *)
let test_cancelled_timers_compacted () =
  let eng = Sim.Engine.create () in
  let fired = ref 0 in
  let timers =
    List.init 100 (fun i ->
        Sim.Engine.timer eng
          ~after:(Int64.of_int (1000 + i))
          (fun () -> incr fired))
  in
  List.iteri (fun i tm -> if i < 90 then Sim.Engine.cancel tm) timers;
  Alcotest.(check bool) "dead entries reclaimed before their deadlines" true
    (Sim.Engine.cancelled_pending eng < 90);
  Sim.Engine.run eng;
  Alcotest.(check int) "surviving timers fired" 10 !fired;
  Alcotest.(check int) "queue fully drained" 0
    (Sim.Engine.cancelled_pending eng)

(* Engines are single-threaded by construction; parallel fuzz workers
   each own a private one. Driving an engine from another domain must be
   refused loudly, not corrupt the queue silently. *)
let test_foreign_domain_rejected () =
  let eng = Sim.Engine.create () in
  let verdict =
    Domain.spawn (fun () ->
        match Sim.Engine.spawn eng (fun () -> ()) with
        | _ -> "accepted"
        | exception Invalid_argument _ -> "rejected")
  in
  Alcotest.(check string) "cross-domain scheduling refused" "rejected"
    (Domain.join verdict);
  (* The owner can still use it afterwards. *)
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.delay 1L));
  Sim.Engine.run eng;
  check_i64 "owner unaffected" 1L (Sim.Engine.now eng)

let qcheck_prng_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let g = Sim.Prng.create seed in
      let x = Sim.Prng.int g bound in
      x >= 0 && x < bound)

let qcheck_mailbox_preserves_messages =
  QCheck.Test.make ~name:"mailbox delivers every message exactly once"
    ~count:100
    QCheck.(list small_nat)
    (fun msgs ->
      let eng = Sim.Engine.create () in
      let mb = Sim.Mailbox.create () in
      let got = ref [] in
      let n = List.length msgs in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             for _ = 1 to n do
               got := Sim.Mailbox.receive_exn eng mb :: !got
             done));
      ignore
        (Sim.Engine.spawn eng (fun () ->
             List.iter (fun x -> Sim.Mailbox.send eng mb x) msgs));
      Sim.Engine.run eng;
      List.rev !got = msgs)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_deadlock_names_blocked_threads () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"rpc.server" (fun () ->
         ignore (Sim.Mailbox.receive eng mb)));
  ignore
    (Sim.Engine.spawn eng ~name:"waiter" (fun () ->
         Sim.Engine.delay 10L;
         ignore (Sim.Ivar.read eng (Sim.Ivar.create ()))));
  Sim.Engine.run eng;
  match Sim.Engine.check_deadlock eng with
  | () -> Alcotest.fail "deadlock not reported"
  | exception Sim.Engine.Deadlock msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "message mentions %S" needle)
          true (contains msg needle))
      [
        "2 thread"; "tid"; "rpc.server"; "mailbox.receive"; "waiter";
        "ivar.read";
      ]

let test_no_deadlock_when_all_exit () =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~name:"a" (fun () -> Sim.Engine.delay 5L));
  Sim.Engine.run eng;
  Sim.Engine.check_deadlock eng

(* Engine event-queue property. A random program — events that, when
   they fire, schedule children (often [after:0] or onto an instant that
   is already queued), schedule into the past, cancel earlier timers,
   queue a burst of far-future timers and cancel most of it (enough to
   trigger compaction), or spawn a thread that runs a chain of delays
   (zero, small, onto a queued instant, or long enough to cross a
   [run ~until] stop) — runs on the engine and on a reference model of
   the queue: a flat list popped in [(time, key)] order, with the engine's
   compaction rule and jitter-key formula, where a spawn and each
   positive delay are events (at now and at now + d) that take the next
   key. [jitter] is 0 (off), 1 (on from mid-schedule) or 2 (on from
   mid-schedule, off again at the first stop). Every pop, every delay's
   return, and every [run ~until] stop must observe the same clock,
   [pending_events], [next_event_time] and [events_scheduled] in both,
   and no two events may ever share a [(time, key)]. *)
type 'h queue = {
  q_schedule_at : int64 -> (unit -> unit) -> 'h;
  q_cancel : 'h -> unit;
  q_spawn : (unit -> unit) -> unit;
  q_delay : int64 -> (unit -> unit) -> unit;
      (* [q_delay d k]: from a thread, delay [d] then continue with [k] *)
  q_now : unit -> int64;
  q_pending : unit -> int;
  q_next : unit -> int64 option;
  q_scheduled : unit -> int;
  q_run : int64 option -> unit;
  q_set_jitter : Sim.Prng.t option -> unit;
}

type q_action =
  | Sched of int64
  | Sched_past
  | Cancel of int
  | Burst of int
  | Thread of int

let queue_program_cap = 500

let actions_of seed id =
  let r = Random.State.make [| seed; id |] in
  List.init (Random.State.int r 3) (fun _ ->
      match Random.State.int r 22 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> Sched 0L
      | 6 | 7 | 8 | 9 -> Sched (Int64.of_int (1 + Random.State.int r 3))
      | 10 | 11 | 12 -> Sched (Int64.of_int (10 + Random.State.int r 40))
      | 13 -> Sched_past
      | 14 | 15 | 16 | 17 -> Cancel (Random.State.bits r)
      | 18 | 19 -> Thread (Random.State.bits r)
      | _ -> Burst (Random.State.bits r))

(* Runs the program on [q]; returns what every pop and stop observed. *)
let drive_queue q ~seed ~jitter ~init ~stops =
  let handles = Hashtbl.create 64 in
  let created = ref 0 in
  let log = ref [] in
  let observe id =
    log := (id, q.q_now (), q.q_pending (), q.q_next (), q.q_scheduled ()) :: !log
  in
  let threads = ref 0 in
  let rec sched time =
    if !created < queue_program_cap then begin
      let id = !created in
      incr created;
      Hashtbl.replace handles id (q.q_schedule_at time (fun () -> fire id))
    end
  and fire id =
    observe id;
    let now = q.q_now () in
    List.iter
      (function
        | Sched d -> sched (Int64.add now d)
        | Sched_past -> sched (Int64.sub now 5L)
        | Cancel x -> q.q_cancel (Hashtbl.find handles (x mod !created))
        | Burst keep ->
          (* 60 timers on one far instant; all but [keep mod 3] of them
             (at positions picked from [keep]) are cancelled, then one
             more joins the instant. *)
          let first = !created in
          for _ = 1 to 60 do
            sched (Int64.add now 100L)
          done;
          for i = first to !created - 1 do
            let pos = i - first in
            let kept =
              (keep mod 3 > 0 && pos = keep / 3 mod 60)
              || (keep mod 3 > 1 && pos = keep / 180 mod 60)
            in
            if not kept then q.q_cancel (Hashtbl.find handles i)
          done;
          sched (Int64.add now 100L)
        | Thread bits ->
          let tid = !threads in
          incr threads;
          if tid < 40 then q.q_spawn (fun () -> thread tid bits 0))
      (actions_of seed id)
  (* Step [step] of thread [tid]: two bits of [bits] pick the delay,
     one more whether it then schedules a same-instant event. *)
  and thread tid bits step =
    if step < 1 + (bits land 3) then begin
      let b = bits lsr (2 + (3 * step)) in
      let now = q.q_now () in
      let d =
        match b land 3 with
        | 0 -> 0L
        | 1 -> Int64.of_int (1 + (b lsr 2 land 1))
        | 2 -> (
          (* onto the earliest queued instant *)
          match q.q_next () with
          | Some t when Int64.compare t now > 0 -> Int64.sub t now
          | _ -> 1L)
        | _ -> 150L
      in
      q.q_delay d (fun () ->
          observe (queue_program_cap + (10 * tid) + step);
          if b land 4 <> 0 then sched (q.q_now ());
          thread tid bits (step + 1))
    end
  in
  let half = List.length init / 2 in
  List.iteri (fun i t -> if i < half then sched (Int64.of_int t)) init;
  if jitter > 0 then q.q_set_jitter (Some (Sim.Prng.create seed));
  List.iteri (fun i t -> if i >= half then sched (Int64.of_int t)) init;
  List.iteri
    (fun i u ->
      q.q_run (Some (Int64.of_int u));
      observe (-1);
      if i = 0 && jitter = 2 then q.q_set_jitter None)
    (List.sort compare stops);
  q.q_run None;
  observe (-2);
  List.rev !log

let engine_queue () =
  let eng = Sim.Engine.create () in
  {
    q_schedule_at = Sim.Engine.schedule_at eng;
    q_cancel = Sim.Engine.cancel;
    q_spawn = (fun f -> ignore (Sim.Engine.spawn eng f));
    q_delay =
      (fun d k ->
        Sim.Engine.delay d;
        k ());
    q_now = (fun () -> Sim.Engine.now eng);
    q_pending = (fun () -> Sim.Engine.pending_events eng);
    q_next = (fun () -> Sim.Engine.next_event_time eng);
    q_scheduled = (fun () -> Sim.Engine.events_scheduled eng);
    q_run = (fun until -> Sim.Engine.run ?until eng);
    q_set_jitter = Sim.Engine.set_jitter eng;
  }

type model_event = {
  m_time : int64;
  m_key : int;
  m_act : unit -> unit;
  mutable m_cancelled : bool;
  mutable m_queued : bool;
}

exception Duplicate_key of int64 * int

let model_queue () =
  let now = ref 0L and seq = ref 0 and queued = ref [] and cancelled = ref 0 in
  let jitter = ref None and block = ref (-1) and mask = ref 0 in
  let keys = Hashtbl.create 64 in
  let remove ev =
    ev.m_queued <- false;
    queued := List.filter (fun e -> e != ev) !queued
  in
  let first () =
    List.fold_left
      (fun best e ->
        match best with
        | Some b when compare (b.m_time, b.m_key) (e.m_time, e.m_key) < 0 ->
          best
        | _ -> Some e)
      None !queued
  in
  let rec run until =
    match first () with
    | None -> ()
    | Some ev when ev.m_cancelled ->
      remove ev;
      decr cancelled;
      run until
    | Some ev -> (
      match until with
      | Some u when Int64.compare ev.m_time u > 0 -> now := u
      | _ ->
        remove ev;
        now := ev.m_time;
        ev.m_act ();
        run until)
  in
  let schedule_at time act =
    let time = if Int64.compare time !now < 0 then !now else time in
    incr seq;
    if !seq lsr 3 <> !block then begin
      block := !seq lsr 3;
      mask := match !jitter with None -> 0 | Some p -> Sim.Prng.int p 8
    end;
    let key = ((!seq lxor !mask) lsl 3) lor (!seq land 7) in
    if Hashtbl.mem keys (time, key) then raise (Duplicate_key (time, key));
    Hashtbl.replace keys (time, key) ();
    let ev =
      { m_time = time; m_key = key; m_act = act; m_cancelled = false;
        m_queued = true }
    in
    queued := ev :: !queued;
    ev
  in
  {
    q_schedule_at = schedule_at;
    q_spawn = (fun f -> ignore (schedule_at !now f));
    q_delay =
      (fun d k ->
        if Int64.compare d 0L > 0 then ignore (schedule_at (Int64.add !now d) k)
        else k ());
    q_cancel =
      (fun ev ->
        if ev.m_queued && not ev.m_cancelled then begin
          ev.m_cancelled <- true;
          incr cancelled;
          if !cancelled > 32 && !cancelled * 2 > List.length !queued then begin
            List.iter
              (fun e -> if e.m_cancelled then e.m_queued <- false)
              !queued;
            queued := List.filter (fun e -> e.m_queued) !queued;
            cancelled := 0
          end
        end);
    q_now = (fun () -> !now);
    q_scheduled = (fun () -> !seq);
    q_pending = (fun () -> List.length !queued);
    q_next =
      (fun () -> Option.map (fun e -> e.m_time) (first ()));
    q_run = run;
    q_set_jitter =
      (fun p ->
        if Option.is_some p then block := -1;
        jitter := p);
  }

let qcheck_engine_queue_matches_model =
  QCheck.Test.make
    ~name:"engine queue matches a (time, key) reference model" ~count:300
    QCheck.(
      quad small_nat (int_bound 2)
        (list_of_size Gen.(1 -- 30) (int_bound 8))
        (list_of_size Gen.(0 -- 4) (int_bound 300)))
    (fun (seed, jitter, init, stops) ->
      let run q = drive_queue q ~seed ~jitter ~init ~stops in
      let got = run (engine_queue ()) in
      let want = run (model_queue ()) in
      if got <> want then
        QCheck.Test.fail_reportf "engine and model diverge after %d pops"
          (let rec common a b n =
             match (a, b) with
             | x :: a, y :: b when x = y -> common a b (n + 1)
             | _ -> n
           in
           common got want 0)
      else true)

(* Jitter switched on while a run of same-instant events is queued: the
   first jittered keys share a block with the run and can fall between
   its keys, so the pop order must still be the model's. *)
let test_jitter_on_splits_runs () =
  for seed = 0 to 63 do
    let run q =
      drive_queue q ~seed ~jitter:1 ~init:[ 5; 5; 5; 5; 5; 5; 5 ] ~stops:[]
    in
    if run (engine_queue ()) <> run (model_queue ()) then
      Alcotest.failf "seed %d: engine and model diverge" seed
  done

(* A delay that would wake after the run's [until] must not advance in
   place: the thread parks, the clock stops at [until], and the next run
   wakes it on time. *)
let test_delay_crossing_until_parks () =
  let eng = Sim.Engine.create () in
  let woke = ref None in
  let thr =
    Sim.Engine.spawn eng ~name:"sleeper" (fun () ->
        Sim.Engine.delay 10L;
        Sim.Engine.delay 100L;
        woke := Some (Sim.Engine.time ()))
  in
  Sim.Engine.run ~until:50L eng;
  check_i64 "clock stops at until" 50L (Sim.Engine.now eng);
  Alcotest.(check (option int64)) "not woken yet" None !woke;
  Alcotest.(check string) "parked in delay" "delay" thr.Sim.Engine.site;
  Alcotest.(check int) "wake-up queued" 1 (Sim.Engine.pending_events eng);
  Alcotest.(check (option int64)) "wake-up time" (Some 110L)
    (Sim.Engine.next_event_time eng);
  Sim.Engine.run eng;
  Alcotest.(check (option int64)) "woken on time" (Some 110L) !woke

(* A delay landing exactly on a queued instant is not the next event:
   the queued event (smaller key) runs first. *)
let test_delay_onto_queued_instant () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.schedule eng ~after:10L (fun () -> order := "event" :: !order);
         Sim.Engine.delay 10L;
         order := "thread" :: !order;
         Sim.Engine.delay 5L;
         order := "thread2" :: !order));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "queued event first"
    [ "event"; "thread"; "thread2" ] (List.rev !order);
  check_i64 "clock" 15L (Sim.Engine.now eng);
  Alcotest.(check int) "every delay takes a key" 4
    (Sim.Engine.events_scheduled eng)

(* A thread killed while running unwinds at its next delay, even when
   the delay would otherwise advance in place. *)
let test_killed_thread_delay_raises () =
  let eng = Sim.Engine.create () in
  let outcome = ref "" in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.kill eng (Sim.Engine.self ());
         match Sim.Engine.delay 5L with
         | () -> outcome := "returned"
         | exception Sim.Engine.Killed -> outcome := "killed"));
  Sim.Engine.run eng;
  Alcotest.(check string) "delay raised Killed" "killed" !outcome;
  check_i64 "clock did not move" 0L (Sim.Engine.now eng);
  Alcotest.(check int) "thread gone" 0 (Sim.Engine.live_threads eng)

(* With jitter on, threads delaying onto shared and fresh instants pop
   in the model's order and take the model's keys: each delay behaves as
   the event its suspension would have queued. *)
let test_jittered_delays_match_effect_path () =
  for seed = 0 to 63 do
    let run q =
      let log = ref [] in
      let note tag = log := (tag, q.q_now (), q.q_scheduled ()) :: !log in
      q.q_set_jitter (Some (Sim.Prng.create seed));
      for t = 0 to 5 do
        q.q_spawn (fun () ->
            let rec go step =
              if step < 6 then
                q.q_delay (Int64.of_int (1 + ((t + step) mod 3))) (fun () ->
                    note ((10 * t) + step);
                    go (step + 1))
            in
            go 0);
        ignore (q.q_schedule_at (Int64.of_int (2 * t)) (fun () -> note (-t)))
      done;
      q.q_run None;
      List.rev !log
    in
    if run (engine_queue ()) <> run (model_queue ()) then
      Alcotest.failf "seed %d: engine and model diverge" seed
  done

(* [run] is not re-entrant on one engine, and it leaves nothing behind
   when an exception escapes it: no stale running flag (it can run
   again) and no stale running engine (a delay outside any run is an
   unhandled effect, not a silent clock advance). *)
let test_run_exception_clears_running_engine () =
  let eng = Sim.Engine.create () in
  let reentry = ref None in
  Sim.Engine.set_crash_handler eng (fun _ e -> reentry := Some e);
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.run eng));
  Sim.Engine.run eng;
  (match !reentry with
  | Some (Invalid_argument _) -> ()
  | _ -> Alcotest.fail "re-entrant run not refused");
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 3L;
         Sim.Engine.suspend (fun _ -> failwith "boom")));
  (match Sim.Engine.run eng with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check_i64 "clock at the failure" 3L (Sim.Engine.now eng);
  (match Sim.Engine.delay 5L with
  | () -> Alcotest.fail "delay outside run advanced a stale engine"
  | exception Effect.Unhandled _ -> ());
  check_i64 "clock untouched" 3L (Sim.Engine.now eng);
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.delay 4L));
  Sim.Engine.run eng;
  check_i64 "engine runs again" 7L (Sim.Engine.now eng)

let suite =
  [
    Alcotest.test_case "clock advances with delays" `Quick test_clock_advances;
    Alcotest.test_case "deterministic tie-break order" `Quick
      test_deterministic_order;
    Alcotest.test_case "spawn_at starts later" `Quick test_spawn_at;
    Alcotest.test_case "kill unwinds with cleanup" `Quick test_kill_unwinds;
    Alcotest.test_case "kill before start" `Quick test_kill_before_start;
    Alcotest.test_case "run ~until pauses and resumes" `Quick test_run_until;
    Alcotest.test_case "crash handler invoked" `Quick test_crash_handler;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "ivar fill/read" `Quick test_ivar_basic;
    Alcotest.test_case "ivar read timeout" `Quick test_ivar_timeout;
    Alcotest.test_case "ivar fill after timeout" `Quick
      test_ivar_fill_after_timeout;
    Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox timeout does not eat messages" `Quick
      test_mailbox_timeout_then_send;
    Alcotest.test_case "mutex mutual exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex released when holder killed" `Quick
      test_mutex_killed_holder_releases;
    Alcotest.test_case "semaphore limits concurrency" `Quick
      test_semaphore_limits;
    Alcotest.test_case "barrier releases all at once" `Quick
      test_barrier_releases_all;
    Alcotest.test_case "barrier is cyclic" `Quick test_barrier_cyclic;
    Alcotest.test_case "barrier abort releases waiters" `Quick
      test_barrier_abort_releases_waiters;
    Alcotest.test_case "barrier shrinks when a party dies" `Quick
      test_barrier_remove_party;
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "deadlock report names blocked threads" `Quick
      test_deadlock_names_blocked_threads;
    Alcotest.test_case "no deadlock when all threads exit" `Quick
      test_no_deadlock_when_all_exit;
    Alcotest.test_case "heap pop releases peak capacity" `Quick
      test_heap_pop_releases_peak;
    Alcotest.test_case "cancelled timers compacted eagerly" `Quick
      test_cancelled_timers_compacted;
    Alcotest.test_case "engine rejects use from a foreign domain" `Quick
      test_foreign_domain_rejected;
    QCheck_alcotest.to_alcotest qcheck_heap_ordered;
    QCheck_alcotest.to_alcotest qcheck_heap_filter_preserves_order;
    Alcotest.test_case "jitter switched on mid-run splits runs" `Quick
      test_jitter_on_splits_runs;
    QCheck_alcotest.to_alcotest qcheck_engine_queue_matches_model;
    Alcotest.test_case "delay crossing until parks the thread" `Quick
      test_delay_crossing_until_parks;
    Alcotest.test_case "delay onto a queued instant runs after it" `Quick
      test_delay_onto_queued_instant;
    Alcotest.test_case "killed thread's delay raises Killed" `Quick
      test_killed_thread_delay_raises;
    Alcotest.test_case "jittered delays match the effect path" `Quick
      test_jittered_delays_match_effect_path;
    Alcotest.test_case "exception out of run clears the running engine"
      `Quick test_run_exception_clears_running_engine;
    QCheck_alcotest.to_alcotest qcheck_prng_bounds;
    QCheck_alcotest.to_alcotest qcheck_mailbox_preserves_messages;
  ]
