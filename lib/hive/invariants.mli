(** System-wide invariant checkers for deterministic simulation testing.

    Each checker inspects the whole simulated machine — hardware firewall
    vectors, pfdat tables, COW trees in kernel memory, RPC bookkeeping,
    gate/recovery state — and reports violations of the properties the
    paper's fault-containment argument rests on. The fuzzer runs them at
    quiesce points and at end-of-run; a clean fault-free run and a clean
    fault-injected run must both report zero violations.

    Checks use [Flash.Memory.peek] (no simulated latency, no liveness
    checks), so they can run outside any simulation thread without
    perturbing the run they observe. *)

type violation = {
  inv : string;  (** checker name, e.g. "firewall-grant" *)
  detail : string;
}

val to_string : violation -> string

(** Run every instantaneous checker. A no-op (returns []) while recovery is
    in progress: the properties only hold at quiesce points.

    [exempt] lists cells whose kernel data was deliberately corrupted or
    destroyed (fault-injection victims, cells that failed and were
    rebooted with zeroed memory): walks stop silently at their nodes and
    their containment is judged by the other cells' checkers instead. *)
val check : ?exempt:Types.cell_id list -> Types.system -> violation list

(** Snapshot of outstanding client-side RPC calls as [(cell, call_id)]
    pairs. Used with {!check_rpc_drained} for the no-orphan property. *)
val rpc_snapshot : Types.system -> (Types.cell_id * int) list

(** Every call in [snapshot] must have completed (reply or dead-peer
    error) by now; calls still pending are orphans. Take the snapshot,
    advance the simulation past the longest RPC timeout, then call this. *)
val check_rpc_drained :
  Types.system -> snapshot:(Types.cell_id * int) list -> violation list

(** Every non-idempotent op body must have executed at most once per
    (server incarnation, call id): more means a retransmitted request
    slipped past the server's reply cache. Included in {!check}; exposed
    for targeted tests. *)
val check_rpc_at_most_once : Types.system -> violation list

(** No cell may have accepted a message stamped with an epoch other than
    its current incarnation. Included in {!check}; exposed for targeted
    tests. *)
val check_rpc_epochs : Types.system -> violation list

(** Reference counts: every pfdat's [refs] equals the number of process
    mappings that point at that very pfdat. A mapping left pointing at a
    freed generation of a frame (whose [refs] was reset to 0) is reported
    the same way. Included in {!check}; exposed for targeted tests. *)
val check_refcounts :
  Types.system -> cells:Types.cell list -> violation list

(** Import-cache coherence: every parked binding is an idle read-only
    extended file import whose data home is alive, still caches the page
    at the same frame, holds a matching export record, and whose file
    generation has not advanced past the binding's import generation — a
    parked binding surviving a home failure or a generation bump would
    serve stale data RPC-free. Included in {!check}; exposed for targeted
    tests. *)
val check_import_cache :
  Types.system -> cells:Types.cell list -> violation list

(** The split-brain oracle: no two cells may ever hold recovery
    mastership concurrently while both are live. Overlap windows are
    latched continuously by {!Types.master_begin} (via the event bus),
    so this reports dual-master instants that closed long before the
    quiesce point; it also flags a live cell still holding mastership
    outside any recovery. Checked by {!check} unconditionally — even
    while recovery is in progress. *)
val check_single_master : Types.system -> violation list

(** Salvaged-page coherence: a binding salvaged from a dead home's
    still-readable memory must not survive that home's reintegration.
    Included in {!check}; exposed for targeted tests. *)
val check_salvage :
  Types.system -> cells:Types.cell list -> violation list
