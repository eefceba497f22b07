(** Fault kinds and their injection (Section 7.4).

    A fault is a fail-stop node failure, a kernel data corruption, or an
    interconnect fault (a degraded link or a partition). The experiment
    around an injection — boot, workload, the post-fault correctness check
    and the invariant oracle — is [Fuzz.run_plan]; the paper's Table 7.4
    campaigns are fixed plan lists run through it. *)

type fault =
    Node_failure of { node : int; at_ns : int64; }
  | Corrupt_map of { victim_cell : int; at_ns : int64;
      mode : Hive.System.corruption_mode;
    }
  | Corrupt_cow of { victim_cell : int; at_ns : int64;
      mode : Hive.System.corruption_mode;
    }
  | Link_degrade of {
      deg_from : int; (* source proc, -1 = any *)
      deg_to : int; (* destination node, -1 = any *)
      at_ns : int64;
      dur_ns : int64;
      drop_pct : int;
      dup_pct : int;
      delay_pct : int;
      max_delay_ns : int64;
      salt : int64; (* seeds the window's own per-message PRNG *)
    }
  | Partition of {
      part_cell : int; (* cell severed from the rest of the machine *)
      at_ns : int64;
      dur_ns : int64; (* heals deterministically at at_ns + dur_ns *)
      one_way : bool; (* true: only traffic INTO the cell is lost *)
    }
  | Cpu_dead_mem_alive of { node : int; at_ns : int64 }
  | Node_failure_mid_recovery of { node : int; at_ns : int64 }
      (** From [at_ns], waits until a recovery round is past barrier 1
          and then fails [node] mid-round (a cascading failure). *)

(** Cut [cell] off from the rest of the machine over [from_ns, until_ns);
    with [one_way] only traffic into the cell is lost. *)
val sever_cell :
  Hive.Types.system ->
  cell:Hive.Types.cell_id -> from_ns:int64 -> until_ns:int64 -> one_way:bool ->
  unit

(** Plant [fault] now; returns the victim cell, or [None] when no victim
    exists yet (corruptions need a running process) so the caller may
    retry. Must run in a simulation thread: [Node_failure_mid_recovery]
    waits for its window. *)
val inject :
  Hive.Types.system -> Sim.Prng.t -> fault -> Hive.Types.cell_id option

(** Whether the fault destroys/corrupts kernel state on the victim cell
    (so checkers must exempt it). Link degradation never does: every cell
    must come out of it fully coherent. A partitioned minority cell
    stands down and is rebooted with zeroed memory at reintegration, so
    it counts. *)
val corrupts_cell : fault -> bool

val fault_time : fault -> int64
val describe : fault -> string

(** The three corruption modes, cycled by the Table 7.4 campaigns and
    drawn by the fuzzer. *)
val modes : Hive.System.corruption_mode array

(** [run_parallel ~jobs ~seeds ~run ~on_record] shards [seeds] across
    [jobs] OCaml 5 domains with work stealing. Each worker executes
    [run seed] with a private, domain-bound simulation engine; results
    are handed to [on_record seed result] on the calling domain in seed
    order, so the merged output is byte-identical to a serial run for
    any [jobs]. [jobs <= 1] degenerates to a plain serial loop. A worker
    exception is re-raised on the calling domain at the position the
    failing seed holds in the order. [run] must not print or touch
    shared mutable state — everything it needs must be created inside
    the call (this is how the fuzzer's [run_plan] already behaves). *)
val run_parallel :
  jobs:int ->
  seeds:int64 array ->
  run:(int64 -> 'r) ->
  on_record:(int64 -> 'r -> unit) ->
  unit
