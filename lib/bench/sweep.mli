(** The dimensional sweep driver: run every registered scenario over its
    grid and emit one deterministic [BENCH_<area>.json] per area — the
    machine-readable perf trajectory CI diffs against (see {!Diff}). *)

type row = {
  r_scenario : string;
  r_dims : Scenario.dims;
  r_metrics : Scenario.metric list;
}

type report = { a_area : string; a_rows : row list }

(** Run the sweep. [areas] restricts to the named areas (default all);
    [quick] runs each scenario's reduced grid. [verbose] (default true)
    prints each row's metrics as it completes, with the paper's value
    beside any metric that has one. Reports are sorted by area; rows keep
    scenario declaration order. *)
val run :
  ?areas:string list ->
  ?quick:bool ->
  ?verbose:bool ->
  unit ->
  report list

(** A metric's [paper] field is written only when it is set, so rows
    without paper values serialize as they always have. *)
val report_to_json : report -> Sim.Json.t

(** ["lower"], ["higher"] or ["info"], as written in the [better] field. *)
val direction_to_string : Scenario.direction -> string

val report_of_json : Sim.Json.t -> (report, string) result

(** ["BENCH_<area>.json"]. *)
val file_name : area:string -> string

(** Write each report to [dir/BENCH_<area>.json] (pretty-printed, stable);
    returns the paths written. *)
val write_dir : dir:string -> report list -> string list

val load_file : string -> (report, string) result

(** Load every [BENCH_*.json] in a directory, sorted by area. *)
val load_dir : string -> (report list, string) result
