(* Typed structured-event bus for the simulation.

   Subsystems emit *spans* (begin/end pairs bracketing an operation) and
   *instants* (point events) stamped with the virtual clock; each event
   carries a category, the owning cell, the emitting simulation thread and
   a list of key/value fields. Events flow to pluggable sinks: an
   in-memory ring buffer (tests, post-mortem) and a Chrome `trace_event`
   file loadable in chrome://tracing / Perfetto, written through [Json].

   Emission is free when no sink is attached (a single list check), so
   instrumentation can stay on hot paths unconditionally. *)

type value =
  | Int of int
  | I64 of int64
  | Float of float
  | Str of string
  | Bool of bool

type category =
  | Rpc
  | Syscall
  | Firewall
  | Recovery
  | Gate
  | Page
  | Proc
  | Workload
  | Custom of string

let category_to_string = function
  | Rpc -> "rpc"
  | Syscall -> "syscall"
  | Firewall -> "firewall"
  | Recovery -> "recovery"
  | Gate -> "gate"
  | Page -> "page"
  | Proc -> "proc"
  | Workload -> "workload"
  | Custom s -> s

type phase = Begin | End | Instant | Counter

let phase_to_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"

type t = {
  ts : int64; (* virtual time, ns *)
  cat : category;
  name : string;
  phase : phase;
  cell : int; (* owning cell, or -1 for system-wide *)
  tid : int; (* emitting simulation thread *)
  args : (string * value) list;
}

type sink = { emit : t -> unit; flush : unit -> unit }

type bus = { eng : Engine.t; mutable sinks : sink list }

let create eng = { eng; sinks = [] }

let attach bus sink = bus.sinks <- bus.sinks @ [ sink ]

let enabled bus = bus.sinks <> []

let flush bus = List.iter (fun s -> s.flush ()) bus.sinks

let emit bus ?(cell = -1) ?(args = []) ~cat ~phase name =
  if bus.sinks <> [] then begin
    let e =
      {
        ts = Engine.now bus.eng;
        cat;
        name;
        phase;
        cell;
        tid = Engine.current_tid bus.eng;
        args;
      }
    in
    List.iter (fun s -> s.emit e) bus.sinks
  end

let instant bus ?cell ?args ~cat name =
  emit bus ?cell ?args ~cat ~phase:Instant name

let counter bus ?cell ~cat name v =
  emit bus ?cell ~args:[ ("value", Int v) ] ~cat ~phase:Counter name

(* Run [f] inside a span. The [End] event is emitted even if [f] raises
   (including thread kill during recovery), so span trees stay balanced. *)
let span bus ?cell ?args ~cat name f =
  if bus.sinks = [] then f ()
  else begin
    emit bus ?cell ?args ~cat ~phase:Begin name;
    match f () with
    | v ->
      emit bus ?cell ~cat ~phase:End name;
      v
    | exception e ->
      emit bus ?cell ~cat ~phase:End name;
      raise e
  end

(* ---------- Ring-buffer sink ---------- *)

type ring = {
  rbuf : t option array;
  mutable rnext : int;
  mutable rcount : int; (* total events ever emitted *)
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Event.ring: capacity must be positive";
  { rbuf = Array.make capacity None; rnext = 0; rcount = 0 }

let ring_sink r =
  {
    emit =
      (fun e ->
        r.rbuf.(r.rnext) <- Some e;
        r.rnext <- (r.rnext + 1) mod Array.length r.rbuf;
        r.rcount <- r.rcount + 1);
    flush = (fun () -> ());
  }

(* Buffered events, oldest first. *)
let ring_contents r =
  let cap = Array.length r.rbuf in
  let n = min r.rcount cap in
  let start = (r.rnext - n + cap) mod cap in
  List.init n (fun i ->
      match r.rbuf.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let ring_total r = r.rcount

(* ---------- JSON, through [Json] ---------- *)

let value_to_json = function
  | Int i -> Json.Int (Int64.of_int i)
  | I64 i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

(* One event as a Chrome trace_event object. [ts] is microseconds; pid
   is the cell (so each cell gets its own track group) and tid the
   simulation thread, which makes B/E pairs nest correctly. *)
let event_to_json e =
  let int i = Json.Int (Int64.of_int i) in
  Json.Obj
    ([ ("name", Json.Str e.name);
       ("cat", Json.Str (category_to_string e.cat));
       ("ph", Json.Str (phase_to_string e.phase));
       ("ts", Json.Float (Int64.to_float e.ts /. 1e3)) ]
    @ (if e.phase = Instant then [ ("s", Json.Str "t") ] else [])
    @ [ ("pid", int (if e.cell < 0 then 999 else e.cell)); ("tid", int e.tid) ]
    @
    if e.args = [] then []
    else
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) e.args)) ])

(* ---------- Chrome trace_event sink: a JSON array ---------- *)

(* Write Chrome trace_event objects to [oc] as one JSON array. Returns
   the sink and a terminator function that closes the array (without
   closing [oc], which the caller owns). [flush] only flushes the
   channel — it must NOT emit the `]` and reopen a fresh `[`, which
   used to leave a flushed-then-continued trace as two concatenated
   JSON arrays that Perfetto rejects; only the terminator writes `]`.
   Chrome's parser tolerates a missing terminator, so a crashed run's
   partial trace still loads. *)
let chrome_sink oc =
  let first = ref true in
  output_string oc "[\n";
  let sink =
    {
      emit =
        (fun e ->
          if !first then first := false else output_string oc ",\n";
          output_string oc (Json.to_string (event_to_json e)));
      flush = (fun () -> Stdlib.flush oc);
    }
  in
  let terminate () =
    output_string oc "\n]\n";
    Stdlib.flush oc
  in
  (sink, terminate)

(* Open a Chrome trace file; returns the sink and a close function that
   terminates the JSON array and closes the file. *)
let chrome_file path =
  let oc = open_out path in
  let sink, terminate = chrome_sink oc in
  let close () =
    terminate ();
    close_out oc
  in
  (sink, close)
