(** The paper-reproduction benchmark sections (Tables 3.4–8.1 plus the
    repo's own ablations, resilience and fuzz-throughput checks), formerly
    the monolithic [bench/main.ml]. Each section prints paper-vs-measured
    rows; [quick] samples the long fault-injection campaigns instead of
    running all 69 tests. *)

val all : (string * (quick:bool -> unit)) list

val names : string list

val find : string -> (quick:bool -> unit) option

(** The Table 7.4 campaigns as labelled plan lists (69 plans in full mode,
    14 in quick mode), each run through [Faultinj.Fuzz.run_plan]. *)
val table_7_4_plans : full:bool -> (string * Faultinj.Fuzz.plan list) list
