(** The shipped scenario set: [null-rpc] / [queued-rpc] (area [rpc]),
    [remote-read] / [pmake-sharing] (area [sharing]), the fuzz,
    resilience, traffic and scale areas, and the paper's own evaluation
    (area [paper]: [rpc-latency], [careful-ref], [pagefault],
    [pagefault-pmake], [firewall], [table-7.2], [table-7.3], [table-7.4],
    [ablations]). [register]
    declares them all into the {!Scenario} registry; idempotent, call
    before {!Sweep.run}. *)

val register : unit -> unit

(** The Table 7.4 campaigns as labelled plan lists (69 plans in full mode,
    14 sampled), each run through [Faultinj.Fuzz.run_plan] by the
    [table-7.4] scenario. *)
val table_7_4_plans : full:bool -> (string * Faultinj.Fuzz.plan list) list
