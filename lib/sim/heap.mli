(** Min-heap (4-ary, for cache locality on the pop path) keyed by
    [(time, seq)], used as the simulation event queue. Ties on [time] are
    broken by insertion sequence number, which makes event delivery
    deterministic. *)

(** [payload] is mutable: replacing it in place leaves the key, and so
    the heap order, untouched. *)
type 'a entry = { time : int64; seq : int; mutable payload : 'a }

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

(** Slots in the backing array (>= {!length}); exposed so tests and the
    engine can assert that compaction and shrinking actually release
    memory. *)
val capacity : 'a t -> int

val is_empty : 'a t -> bool

(** [push h ~time ~seq payload] inserts an entry. [(time, seq)] must be
    unique: two equal keys would pop in an order that depends on the
    heap's layout. *)
val push : 'a t -> time:int64 -> seq:int -> 'a -> unit

(** Smallest entry without removing it. Raises [Invalid_argument] on an
    empty heap. *)
val min : 'a t -> 'a entry

(** Remove the smallest entry. Shrinks the backing array when it is
    mostly slack, so draining a large campaign releases its peak. Raises
    [Invalid_argument] on an empty heap. *)
val drop_min : 'a t -> unit

(** Remove and return the smallest entry. *)
val pop : 'a t -> 'a entry option

(** [filter_map h f] keeps each entry for which [f] returns [Some p],
    with payload [p], drops the others, and restores the heap invariant
    in O(n). [f] is called exactly once per entry (in unspecified order),
    so it may carry side effects such as marking the dropped entries.
    Pop order of the survivors is unchanged: keys are untouched and
    unique. Used by the engine to reclaim cancelled timers without
    waiting for their deadlines to drain through {!pop}. *)
val filter_map : 'a t -> ('a -> 'a option) -> unit
