(** Metrics: a typed snapshot of what the kernel instrumentation
    accumulated over a run — per-op RPC latency histograms (client and
    server side), per-cell counters and status, system-wide counters,
    interconnect (SIPS) damage totals, sharing-protocol totals, and the
    recovery phase timeline.

    [capture] freezes a {!Snapshot.t} from a live system, so the benches,
    [hive_sim --metrics-json] and the sweep trajectory files all consume
    the same structure instead of re-scraping counters. The JSON is
    written, never read back: consumers parse it as plain JSON. *)

module Snapshot : sig
  (** Exported view of one {!Sim.Stats.histogram}: exact count, mean,
      min and max, the percentiles by the {!Sim.Stats.quantile} rule, and
      the non-empty log-linear buckets [(lo_ns, hi_ns, count)]. All float
      fields are [0.] when [count = 0]. *)
  type hist = {
    count : int;
    mean_ns : float;
    min_ns : float;
    max_ns : float;
    p50_ns : float;
    p95_ns : float;
    p99_ns : float;
    p999_ns : float;
    buckets : (int64 * int64 * int) list;
  }

  type cell = {
    id : int;
    status : Types.cell_status;
    live_set : int list;
    counters : (string * int) list;  (** sorted by name *)
  }

  (** Interconnect damage totals: what the degradation fault model did to
      traffic, and how much stale pre-failure state was purged. *)
  type sips = {
    sends : int;
    drops : int;
    dups : int;
    delays : int;
    stale_purged : int;
  }

  type t = {
    sim_time_ns : int64;
    rpc_client : (string * hist) list;  (** per-op, sorted by op name *)
    rpc_server : (string * hist) list;
    ops : (string * hist) list;
        (** user-visible end-to-end op latency, keyed ["class|phase"]
            (e.g. ["server.read|before"]); empty when the run recorded
            none. *)
    cells : cell list;
    system_counters : (string * int) list;
    sips : sips;
    sharing : (string * int) list;  (** system-wide totals, sorted *)
    cache_hit_rate : float option;
        (** hits / (hits + remote locates); [None] when the run made no
            remote lookups at all — omitted from the JSON rather than
            emitting 0/0. *)
    recovery_timeline : (string * int64) list;
  }

  (** Sharing total by name, 0 when absent. *)
  val sharing_total : t -> string -> int

  (** Client-side histogram for one RPC op, if any calls were made. *)
  val client_hist : t -> string -> hist option

  (** End-to-end op histogram by ["class|phase"] key, if recorded. *)
  val op_hist : t -> string -> hist option

  (** [hist_quantile h q] is the [q]-th percentile (0..100) of [h] by
      the {!Sim.Stats.quantile} rule over [h.buckets], so it equals the
      live histogram's {!Sim.Stats.percentile} and stays within 1/64 of
      the exact value. [h] may be several histograms' buckets merged. *)
  val hist_quantile : hist -> float -> float

  val to_json : t -> Sim.Json.t

  (** Compact JSON text of [to_json]. *)
  val to_string : t -> string
end

(** Export one live histogram; its percentiles equal
    {!Sim.Stats.percentile} of [h]. *)
val hist_of_stats : Sim.Stats.histogram -> Snapshot.hist

(** Freeze a snapshot of a live system. *)
val capture : Types.system -> Snapshot.t

(** System-wide sharing-protocol totals (imports, cache hits, releases,
    invalidations, ...) summed over cells. *)
val sharing_totals : Types.system -> (string * int) list

(** share.cache_hits / (share.cache_hits + fs.remote_locates), [None]
    when the run made no remote page lookups (avoids a 0/0). *)
val cache_hit_rate : Types.system -> float option

(** [capture] rendered as compact JSON text. *)
val to_json : Types.system -> string

(** Write a snapshot to [path] as compact JSON text. *)
val write_file : Snapshot.t -> string -> unit

(** Print a human-readable summary of a snapshot (per-op RPC latency
    percentiles, sharing totals and the recovery timeline) to stdout. *)
val print_summary : Snapshot.t -> unit
