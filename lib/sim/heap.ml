type 'a entry = { time : int64; seq : int; mutable payload : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length h = h.size

let capacity h = Array.length h.data

let is_empty h = h.size = 0

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  if h.size >= cap then begin
    let ncap = max 16 (2 * cap) in
    let nd = Array.make ncap h.data.(0) in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

(* Drop the backing array down to a small multiple of the live size so a
   long-lived engine does not pin the peak of its largest campaign. Only
   worth doing when the array is mostly slack; keeps at least 16 slots. *)
let shrink h =
  let cap = Array.length h.data in
  if cap > 64 && h.size * 4 < cap then begin
    let ncap = max 16 (2 * h.size) in
    let nd = Array.make ncap h.data.(0) in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

(* 4-ary layout: children of [i] are [4i+1 .. 4i+4]. Half the depth of a
   binary heap, and the four children share cache lines, which matters on
   the pop path (the hottest loop in the engine). Pop order is a pure
   function of the [(time, seq)] total order, so arity is invisible to
   clients. *)
let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 4 in
    if before h.data.(i) h.data.(p) then begin
      swap h i p;
      sift_up h p
    end
  end

let rec sift_down h i =
  let first = (4 * i) + 1 in
  if first < h.size then begin
    let last = min (first + 3) (h.size - 1) in
    let m = ref i in
    for c = first to last do
      if before h.data.(c) h.data.(!m) then m := c
    done;
    if !m <> i then begin
      swap h i !m;
      sift_down h !m
    end
  end

let push h ~time ~seq payload =
  let e = { time; seq; payload } in
  if h.size = 0 && Array.length h.data = 0 then h.data <- Array.make 16 e;
  grow h;
  h.data.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min h =
  if h.size = 0 then invalid_arg "Heap.min: empty heap";
  h.data.(0)

let drop_min h =
  if h.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  shrink h

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    drop_min h;
    Some top
  end

(* Keep the entries for which [f] returns [Some p], with [p] as their
   new payload ([f] is called exactly once per entry, so it may carry
   side effects such as marking the dropped entries dead), then rebuild
   the heap invariant bottom-up: O(n), versus O(n log n) for popping the
   survivors one by one. Keys are untouched, so the pop order of the
   survivors is unchanged. *)
let filter_map h f =
  let k = ref 0 in
  for i = 0 to h.size - 1 do
    let e = h.data.(i) in
    match f e.payload with
    | Some p ->
      e.payload <- p;
      h.data.(!k) <- e;
      incr k
    | None -> ()
  done;
  h.size <- !k;
  (* Heapify bottom-up from the last internal node. *)
  for i = (h.size - 2) / 4 downto 0 do
    sift_down h i
  done;
  shrink h
