(** The machine's main memory and its fault model.

    Memory contents are real bytes: wild writes genuinely corrupt data and
    the fault-injection experiments compare genuine file contents. Accesses
    charge virtual time per cache line touched, and obey the FLASH memory
    fault model (Section 2 of the paper):

    - accesses to unaffected memory keep working after a fault;
    - accesses to the memory of a failed node raise a bus error rather than
      stalling forever;
    - only processors granted write permission through the firewall can
      modify (or, after a hardware fault, have damaged) a given page. *)

type error_cause = Node_failed | Cutoff | Firewall_denied | Invalid_address

exception Bus_error of { addr : Addr.t; cause : error_cause }

type t

val create : Config.t -> t

val firewall : t -> Firewall.t

val cfg : t -> Config.t

(** {2 Fault model transitions} *)

(** Fail-stop the node's memory: all accesses get bus errors. *)
val fail_node : t -> int -> unit

(** Memory cutoff (Table 8.1): the coherence controller refuses {e remote}
    accesses; used by a cell's panic routine to stop spreading corrupt
    data. *)
val cutoff_node : t -> int -> unit

(** Reintegration after repair: memory zeroed, accessible again. *)
val restore_node : t -> int -> unit

val node_accessible : t -> int -> bool

(** {2 Timed, checked accesses (call from a simulation thread)} *)

(** [read eng t ~by addr len] performs a cached read by processor [by]. *)
val read : Sim.Engine.t -> t -> by:int -> Addr.t -> int -> Bytes.t

(** [read_into eng t ~by addr len dst ~dst_off] is {!read} (same checks,
    counter and latency) with the bytes stored into [dst] at [dst_off]
    instead of a fresh buffer. Raises [Invalid_argument] before the
    access when the destination range does not fit in [dst]. *)
val read_into :
  Sim.Engine.t -> t -> by:int -> Addr.t -> int -> Bytes.t -> dst_off:int -> unit

(* Cached read of hot local kernel data: L2-hit latency, same fault
   model. *)
val read_cached : Sim.Engine.t -> t -> by:int -> Addr.t -> int -> Bytes.t

val read_u8 : Sim.Engine.t -> t -> by:int -> Addr.t -> int

val read_i64 : Sim.Engine.t -> t -> by:int -> Addr.t -> int64

(* Allocation-free cached read of one kernel word (the hot kmem /
   careful-reference path). *)
val read_cached_i64 : Sim.Engine.t -> t -> by:int -> Addr.t -> int64

(** Writes check the firewall per page and raise
    [Bus_error Firewall_denied] when permission is missing. *)
val write : Sim.Engine.t -> t -> by:int -> Addr.t -> Bytes.t -> unit

val write_u8 : Sim.Engine.t -> t -> by:int -> Addr.t -> int -> unit

val write_i64 : Sim.Engine.t -> t -> by:int -> Addr.t -> int64 -> unit

(** {2 Out-of-band access (no latency, no checks) — tests and tooling} *)

val peek : t -> Addr.t -> int -> Bytes.t

(* Allocation-free word peek. *)
val peek_i64 : t -> Addr.t -> int64

val poke : t -> Addr.t -> Bytes.t -> unit

(** A fault-injected wild write: bypasses the latency model but still honours
    the firewall, exactly like erroneous kernel stores on the real machine. *)
val poke_wild : t -> by:int -> Addr.t -> Bytes.t -> unit

(** (reads, writes, wild_writes) counters. *)
val stats : t -> int * int * int

(** Average latency of remote write misses observed so far — the statistic
    behind the paper's firewall-overhead measurement (Section 4.2). *)
val remote_write_miss_avg_ns : t -> float
