(** Shared plumbing for the sweep scenarios: timing a simulation-thread
    body in virtual time, the no-op RPC ops, and a warmed data-home
    file. *)

(** Run a simulation-thread body to completion and return simulated ns. *)
val timed_in_thread : Sim.Engine.t -> (unit -> unit) -> int64

(** No-op RPC served at interrupt level / via the queued service. *)
val noop_op : Hive.Rpc.Op.t

val noop_queued_op : Hive.Rpc.Op.t

(** Register the handlers for {!noop_op} and {!noop_queued_op}
    (idempotent). *)
val register_bench_ops : unit -> unit

(** Average client-observed latency of [n] calls of [op], in us. *)
val avg_rpc_us :
  Sim.Engine.t ->
  Hive.Types.system ->
  op:Hive.Rpc.Op.t ->
  arg_bytes:int ->
  n:int ->
  float

(** Create an [npages]-page file homed on cell 0 and warm its page cache
    there; returns the path. *)
val make_warm_file : Hive.Types.system -> npages:int -> string
