(** Deterministic discrete-event simulation engine.

    Simulated entities are cooperative green threads implemented with OCaml 5
    effect handlers; the engine advances a virtual nanosecond clock and runs
    events in deterministic [(time, sequence)] order. There is no wall-clock
    time and no OS concurrency anywhere: identical inputs give identical
    simulations.

    Threads block with {!delay} or {!suspend}; synchronization primitives
    ({!Ivar}, {!Mailbox}, {!Mutex}, ...) are built on {!suspend} and
    {!try_resume}.

    An engine is single-threaded by construction: it may only be driven by
    the OCaml domain that created it. {!run} and event scheduling raise
    [Invalid_argument] when called from any other domain. Parallel fuzz
    campaigns exploit this by giving each worker domain a private engine
    and sharing nothing between them. *)

(** Raised inside a thread when it is {!kill}ed, so that [Fun.protect]-style
    cleanup runs. *)
exception Killed

(** Raised by {!check_deadlock} when live threads remain but the event queue
    has drained. The message names every blocked thread: tid, name, and the
    suspend site recorded by the last {!suspend}/{!delay}. *)
exception Deadlock of string

(** Cancellable timer handle. *)
type timer

type thread = {
  tid : int;
  name : string;
  mutable dead : bool;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable timers : timer list;
  mutable on_exit : (unit -> unit) list;
  mutable site : string;
      (** Label of the last blocking point ("barrier.await", "rpc.call",
          ...); the Deadlock message quotes it for triage. *)
}

type t

val create : unit -> t

(** Current virtual time in nanoseconds. *)
val now : t -> int64

(** Tid of the thread the engine is currently executing, or 0 when called
    from outside any simulation thread. *)
val current_tid : t -> int

(** Replace the handler invoked when a thread raises an uncaught exception.
    The default re-raises, aborting the simulation loudly. *)
val set_crash_handler : t -> (thread -> exn -> unit) -> unit

(** Install (or clear) a scheduler-jitter generator. When set, the tie-break
    sequence number of newly scheduled events is perturbed with bits from
    the generator, so logically-concurrent events (same virtual time) may
    interleave differently across seeds while each seed stays exactly
    replayable. Events at different virtual times are never reordered.
    Perturbed keys stay unique, so the pop order is a function of the
    seed alone. *)
val set_jitter : t -> Prng.t option -> unit

(** Schedule a callback at an absolute virtual time (clamped to now). *)
val schedule_at : t -> int64 -> (unit -> unit) -> timer

(** Schedule a callback after a relative delay. *)
val schedule : t -> after:int64 -> (unit -> unit) -> unit

(** Schedule a cancellable callback. *)
val timer : t -> after:int64 -> (unit -> unit) -> timer

(** Cancel a timer. Idempotent; a no-op on timers that already fired.
    Cancelled entries are reclaimed lazily: when they outnumber the live
    entries (beyond a small floor) the heap is compacted in one O(n)
    pass, so mass cancellation (thread kills, recovery aborts) cannot
    bloat the event queue until the dead deadlines drain. *)
val cancel : timer -> unit

(** Wake a suspended thread; [true] if this call captured its continuation,
    [false] if it had already been resumed (a waker losing a race must treat
    the wake as not delivered). *)
val try_resume : t -> thread -> bool

val resume : t -> thread -> unit

(** Attach a wake-up timer to a suspended thread (used to implement
    timeouts); cancelled automatically if another waker wins. Call only
    from within a {!suspend} registration. *)
val wake_after : t -> thread -> int64 -> unit

(** Kill a thread: it unwinds with {!Killed} at its next (or current)
    suspension point. *)
val kill : t -> thread -> unit

(** Start a new thread. [at] gives an absolute start time. *)
val spawn : ?name:string -> ?at:int64 option -> t -> (unit -> unit) -> thread

val spawn_at : t -> at:int64 -> ?name:string -> (unit -> unit) -> thread

(** {2 Thread-context operations (must be called from inside a thread)} *)

val self : unit -> thread

val time : unit -> int64

(** [delay d] blocks the calling thread for [d] virtual nanoseconds; a
    no-op when [d <= 0]. When the wake-up would be the very next event —
    the caller is the current thread of the engine {!run} is driving,
    [now + d] is within the run's [until] and strictly earlier than every
    queued event — the clock advances in place with no suspension and no
    queued event. Either way the delay takes one sequence number (and its
    jitter draw), so {!events_scheduled} and the event order are the
    same as if it had suspended. *)
val delay : int64 -> unit

val yield : unit -> unit

(** Low-level block: parks the current thread and passes it to [register],
    which stores it where a future waker can {!resume} it. [site] labels the
    blocking point for deadlock reports. *)
val suspend : ?site:string -> (thread -> unit) -> unit

(** Register a cleanup to run when the current thread exits (normally,
    by exception, or killed). *)
val at_exit_thread : (unit -> unit) -> unit

(** {2 Driving the simulation} *)

(** Run until the event queue empties, or until the given virtual time.
    Raises [Invalid_argument] when called while a [run] of the same
    engine is in progress (from one of its threads or callbacks). *)
val run : ?until:int64 -> t -> unit

val live_threads : t -> int

val pending_events : t -> int

(** Virtual time of the earliest pending event, if any. Drivers use it to
    skip idle stretches of virtual time in one jump: between events no
    simulation state can change, so there is nothing to poll. *)
val next_event_time : t -> int64 option

(** Total events ever scheduled on this engine — a deterministic,
    wall-clock-free measure of simulation work (benches report
    events/s from it). Delays advanced in place count: each takes the
    sequence number its wake-up event would have taken. *)
val events_scheduled : t -> int

(** Cancelled entries still occupying heap slots (drops to 0 after a
    compaction sweep or once they drain through the run loop). *)
val cancelled_pending : t -> int

(** Live (not yet finished) threads, sorted by tid. After {!run} returns
    with an empty queue these are exactly the blocked threads. *)
val blocked_threads : t -> thread list

(** Raise {!Deadlock} — naming every blocked thread — if live threads remain
    but the event queue is empty, i.e. nothing can ever make progress.
    Call after {!run} returns; a no-op when the simulation quiesced
    cleanly or was merely stopped at [until]. *)
val check_deadlock : t -> unit
