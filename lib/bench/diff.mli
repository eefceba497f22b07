(** The trajectory gate: a fresh sweep must reproduce the committed
    [BENCH_*.json] rows exactly.

    Every sweep metric is a function of simulated time and kernel
    counters, so a fresh row equals its committed row bit for bit unless
    the program changed. Rows are matched by (scenario, dims), metrics by
    name. A fresh row with no committed row (or no committed file for its
    area), an added or removed metric, and any difference in a metric's
    [value], [better] or [paper] is a change; [Info] metrics count too.
    Committed rows absent from the fresh sweep (a [--quick] run covers a
    subset of the grid) are skipped and counted. *)

type change =
  | New_row  (** fresh row with no committed row *)
  | Added of Scenario.metric
  | Removed of Scenario.metric
  | Changed of { committed : Scenario.metric; fresh : Scenario.metric }

type finding = {
  f_area : string;
  f_scenario : string;
  f_dims : Scenario.dims;
  f_change : change;
}

type verdict = {
  changes : finding list;  (** committed order, then new rows *)
  compared : int;  (** fresh rows matched to a committed row *)
  skipped : int;  (** committed rows the fresh sweep did not run *)
}

val compare_reports :
  baseline:Sweep.report list -> fresh:Sweep.report list -> verdict

(** One line naming the row and what changed. A value change carries its
    signed percentage against the committed value and whether the move is
    better or worse for the metric's direction ([Info] metrics say
    [info]). *)
val describe : finding -> string

(** Load both directories, compare, print every change and a one-line
    summary; returns the exit code (0 identical, 1 any change, 2 load
    error). *)
val run_dirs : baseline_dir:string -> fresh_dir:string -> int
