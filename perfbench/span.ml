(* In-memory spans around the benchmark's calls into the simulator's
   layers. Recording is off unless [enabled] is set, in which case every
   [record] keeps one span: its name, start and end (host seconds), the
   enclosing span, the iteration it belongs to, and the words allocated and
   engine events scheduled between its two boundaries. Nothing is written
   until the caller asks for [to_json] at the end of the run. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  run : int;  (** iteration the span belongs to *)
  start_s : float;
  end_s : float;
  words : float;  (** words allocated inside the span *)
  events : int;  (** engine events scheduled inside the span *)
}

let enabled = ref false
let run = ref 0
let spans : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let record ?eng name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let events () =
      match eng with Some e -> Sim.Engine.events_scheduled e | None -> 0
    in
    let e0 = events () in
    let w0 = allocated_words () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      let w1 = allocated_words () in
      open_ids := List.tl !open_ids;
      spans :=
        { id; name; parent; run = !run; start_s = t0; end_s = t1;
          words = w1 -. w0; events = events () - e0 }
        :: !spans
    in
    Fun.protect ~finally:close f
  end

let duration s = s.end_s -. s.start_s

(* The spans of one iteration, in the order they opened. *)
let of_run r =
  List.sort (fun a b -> compare a.id b.id)
    (List.filter (fun s -> s.run = r) !spans)

(* Self time: a span's duration minus the part its direct children cover.
   Children never overlap (one domain, strictly nested calls), so the
   covered part is the sum of their durations. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) ))
    spans

let to_json spans =
  let module J = Sim.Json in
  J.Arr
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int (Int64.of_int s.id));
             ("name", J.Str s.name);
             ("parent", J.Int (Int64.of_int s.parent));
             ("run", J.Int (Int64.of_int s.run));
             ("start_s", J.Float s.start_s);
             ("end_s", J.Float s.end_s);
             ("alloc_words", J.Float s.words);
             ("events", J.Int (Int64.of_int s.events));
           ])
       spans)
