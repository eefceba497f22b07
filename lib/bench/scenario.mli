(** Typed benchmark scenario registry, mirroring [Hive.Rpc.Op.declare]:
    a scenario is declared once with its name, trajectory area, and the
    dimension grid it covers; {!Sweep} runs each (scenario × dims) point
    and emits one [BENCH_<area>.json] per area.

    Every measured value is a function of simulated time and kernel
    counters only — never wall clock — so a sweep over the same grid is
    byte-identical across runs and machines, which is what lets CI diff a
    fresh sweep against the committed trajectory. *)

(** One point in the dimension grid. Scenarios ignore the dimensions that
    do not apply to them (a pure RPC scenario has no working set); the
    unused fields stay at their {!default_dims} values so row identity is
    still well-defined. *)
type dims = {
  workload : string;  (** pmake | ocean | raytrace | rpc | read *)
  cells : int;
  nodes : int;  (** machine nodes; cells must divide nodes *)
  ws_pages : int;  (** working-set size in pages, 0 = n/a *)
  link_ms : int;
      (** length of a 25%% drop/dup/delay degradation window armed from
          t=0, 0 = healthy interconnect *)
  import_cache : bool;  (** false = legacy sharing protocol *)
  smp : bool;  (** SMP-OS baseline: one kernel, firewall off *)
  rate : int;  (** traffic arrival rate in requests/s, 0 = n/a *)
  zipf_pct : int;  (** Zipf skew [s] times 100 (110 = s of 1.1), 0 = n/a *)
  fault_ms : int;
      (** cell-kill injection time into the traffic run, 0 = no fault *)
}

val default_dims : dims

(** Stable one-line rendering, e.g.
    ["pmake cells=4 nodes=4 ws=0 link=0ms cache=on"]. *)
val dims_label : dims -> string

(** How {!Diff} should interpret a change in a metric's value. *)
type direction =
  | Lower_better
  | Higher_better
  | Info  (** context only: never flagged *)

(** [m_paper] is the paper's published value for the same quantity, if it
    reports one; it is context for the reader and never gated. *)
type metric = {
  m_name : string;
  m_value : float;
  m_dir : direction;
  m_paper : float option;
}

val metric : ?dir:direction -> ?paper:float -> string -> float -> metric

type t = private {
  sc_name : string;
  sc_area : string;
  sc_dims : dims list;  (** full grid, run order *)
  sc_quick : dims list;  (** reduced grid for CI smoke sweeps *)
  sc_run : dims -> metric list;
}

(** Declare a scenario; raises [Invalid_argument] on a duplicate name or
    an empty grid. [quick] defaults to the first grid point. Call once at
    module initialization (see {!Scenarios.register}). *)
val declare :
  name:string ->
  area:string ->
  dims:dims list ->
  ?quick:dims list ->
  (dims -> metric list) ->
  t

(** Every declared scenario, in declaration order. *)
val all : unit -> t list

(** Distinct areas, sorted. *)
val areas : unit -> string list
