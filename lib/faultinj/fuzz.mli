(** Deterministic simulation fuzzer (DST harness), and the one
    fault-experiment runner: the fuzzer, the paper's Table 7.4 campaigns
    and [hive_sim fault] all build plans and judge them with [run_plan].

    A single 64-bit seed derives a whole experiment: machine shape (cells,
    nodes per cell), workload and its scaled-down configuration, an
    optional scheduler-jitter stream, and a randomized fault schedule
    (node fail-stops, address-map and COW-tree corruptions, cascades
    timed to land inside a recovery round). Because the simulation engine
    is deterministic, replaying a seed reproduces the run bit-for-bit;
    a failing seed can then be shrunk to a minimal reproducer. *)

type workload = Pmake | Ocean | Raytrace

(** Interactive-traffic shape for seeds that run the server workload. *)
type traffic = {
  t_rate : int;  (** system-wide arrival rate, requests/s *)
  t_zipf_pct : int;  (** Zipf [s] times 100; 0 = uniform *)
  t_churn_pct : int;
  t_deadline_ms : int;  (** end-to-end client budget *)
}

(** How the workload is sized. [Seeded]: the fuzzer's scaled-down
    configuration drawn from the seed, fault times absolute. [Paper]: the
    Table 7.1 defaults, fault times counted from the end of workload setup
    (the Table 7.4 campaigns and [hive_sim fault]). *)
type sizing = Seeded | Paper

type plan = {
  seed : int64;
  ncells : int;
  nodes_per_cell : int;
  mem_pages_per_node : int;
  workload : workload;
  jitter : bool;
  faults : Campaign.fault list;  (** sorted by injection time *)
  traffic : traffic option;
      (** when set, interactive server traffic replaces the batch
          workload; [faults] still applies mid-traffic. Drawn from its
          own salted stream appended after every other draw, so seeds
          without traffic keep byte-identical plans. *)
  sizing : sizing;
  wax : bool;  (** boot with Wax (off for [hive_sim fault]) *)
  oracle : bool;  (** failure oracle instead of distributed agreement *)
  smp : bool;  (** SMP-OS baseline: one kernel, firewall disabled *)
  import_cache : bool;  (** false: the legacy sharing protocol *)
}

type record = {
  r_seed : int64;
  r_plan : string;  (** human-readable plan summary *)
  r_injected : string list;  (** faults that actually landed, with cell *)
  r_completed : bool;  (** workload driver finished *)
  r_violations : string list;  (** invariant violations, empty = pass *)
  r_survivors : int list;
  r_sim_ns : int64;  (** virtual time at end of run *)
  r_events : int;
      (** events the engine scheduled: a deterministic measure of how
          much simulation work the seed did *)
  r_detect_ms : float option;
      (** first landed fault until the last cell entered recovery *)
  r_recovery_ms : float option;
      (** first cell entering recovery until the last round completed *)
  r_contained : bool;
      (** every cell that went down was the victim of a landed fault *)
  r_round_restarts : int;  (** recovery rounds aborted and restarted *)
  r_reintegrations : int;  (** failed cells rebooted and rejoined *)
  r_metrics : Hive.Metrics.Snapshot.t option;
      (** end-of-run metrics, as [metrics_out] writes them; [None] unless
          [snapshot] or [metrics_out] was given *)
}

val plan_of_seed : int64 -> plan

(** A four-cell, one-node-per-cell plan on the paper's machine running the
    paper-size [workload] under [faults], Wax on, no jitter. *)
val paper_plan : ?seed:int64 -> workload -> Campaign.fault list -> plan

val describe_plan : plan -> string

(** Run one plan to completion and judge it. A fault-free run's outputs
    must be exact. A faulted run's outputs may show loss but no
    corruption (seed-sized runs that lost a cell are exempt: their
    applications are not fault-tolerant); the survivors then run a small
    pmake check build whose outputs must be exact. Every run must
    quiesce, drain its outstanding RPCs and pass [Invariants.check] with
    the fault victims exempt. [demo_bug]
    plants a deliberate containment bug (a firewall grant the kernel
    never recorded) when a node failure lands — used to prove the
    checkers can catch one. [dup_bug] plants a transport bug instead:
    reply-cache suppression is disabled while a duplication-heavy
    machine-wide degradation window runs, so retransmitted requests
    execute twice and the at-most-once checker must flag it.
    [split_brain] plants an agreement bug: the quorum check is disabled
    (silence counts as a death vote) while cell 0 is severed from the
    rest of the machine, so both sides of the blackout confirm each
    other dead and elect concurrent recovery masters — the latched
    single-master oracle must flag the overlap.
    [trace_out] writes a Chrome trace_event JSON file of the run;
    [metrics_out] writes the end-of-run typed metrics snapshot as JSON;
    [snapshot] keeps it in the record. *)
val run_plan :
  ?demo_bug:bool ->
  ?dup_bug:bool ->
  ?split_brain:bool ->
  ?trace_out:string ->
  ?metrics_out:string ->
  ?snapshot:bool ->
  plan ->
  record

(** The oracle flagged the run. The fuzzer judges by this alone: its
    plans may schedule faults that find no victim. *)
val failed : record -> bool

(** The verdict of a fault experiment (Table 7.4, [hive_sim fault]): not
    [failed], every fault of the plan landed, and [r_contained]. *)
val passed : plan -> record -> bool

(** One JSON object (single line, stable field order) per record; two
    replays of the same seed produce byte-identical lines. The latency,
    containment and metrics fields are not printed. *)
val record_to_json : record -> string

(** Shrink a failing plan: repeatedly drop faults, round fault times to
    coarser grains, and disable jitter, keeping each simplification only
    if the plan still fails. Returns the minimal plan and its record.
    Raises [Invalid_argument] if the plan does not fail to begin with. *)
val shrink :
  ?demo_bug:bool -> ?dup_bug:bool -> ?split_brain:bool -> plan -> plan * record
