(* Metrics: typed snapshot of the run's instrumentation and its JSON
   rendering. [capture] freezes the live counters/histograms into a
   plain-data [Snapshot.t]; everything downstream (print_summary, the
   benches, hive_sim --metrics-json, the sweep trajectory) consumes the
   snapshot instead of re-scraping kernel tables. JSON goes through
   [Sim.Json] (the simulator deliberately has no external deps). *)

module J = Sim.Json

let status_to_string = function
  | Types.Cell_up -> "up"
  | Types.Cell_recovering -> "recovering"
  | Types.Cell_down -> "down"

module Snapshot = struct
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
    counters : (string * int) list;
  }

  type sips = {
    sends : int;
    drops : int;
    dups : int;
    delays : int;
    stale_purged : int;
  }

  type t = {
    sim_time_ns : int64;
    rpc_client : (string * hist) list;
    rpc_server : (string * hist) list;
    ops : (string * hist) list;
    cells : cell list;
    system_counters : (string * int) list;
    sips : sips;
    sharing : (string * int) list;
    cache_hit_rate : float option;
    recovery_timeline : (string * int64) list;
  }

  let sharing_total t name =
    Option.value ~default:0 (List.assoc_opt name t.sharing)

  let client_hist t op = List.assoc_opt op t.rpc_client

  let op_hist t name = List.assoc_opt name t.ops

  let hist_quantile (h : hist) q =
    Sim.Stats.quantile ~count:h.count ~min:h.min_ns ~max:h.max_ns h.buckets q

  (* ---------- to JSON ---------- *)

  let counters_to_json kvs =
    J.Obj (List.map (fun (k, v) -> (k, J.Int (Int64.of_int v))) kvs)

  let hist_to_json (h : hist) =
    J.Obj
      [
        ("count", J.Int (Int64.of_int h.count));
        ("mean_ns", J.Float h.mean_ns);
        ("min_ns", J.Float h.min_ns);
        ("max_ns", J.Float h.max_ns);
        ("p50_ns", J.Float h.p50_ns);
        ("p95_ns", J.Float h.p95_ns);
        ("p99_ns", J.Float h.p99_ns);
        ("p999_ns", J.Float h.p999_ns);
        ( "buckets",
          J.Arr
            (List.map
               (fun (lo, hi, n) ->
                 J.Arr [ J.Int lo; J.Int hi; J.Int (Int64.of_int n) ])
               h.buckets) );
      ]

  let cell_to_json (c : cell) =
    J.Obj
      [
        ("id", J.Int (Int64.of_int c.id));
        ("status", J.Str (status_to_string c.status));
        ("live_set", J.Arr (List.map (fun i -> J.Int (Int64.of_int i)) c.live_set));
        ("counters", counters_to_json c.counters);
      ]

  let to_json (t : t) =
    let hist_table hs = J.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) hs) in
    J.Obj
      ([
         ("sim_time_ns", J.Int t.sim_time_ns);
         ( "rpc",
           J.Obj
             [
               ("client", hist_table t.rpc_client);
               ("server", hist_table t.rpc_server);
             ] );
         ("ops", hist_table t.ops);
         ("cells", J.Arr (List.map cell_to_json t.cells));
         ("system_counters", counters_to_json t.system_counters);
         ( "sips",
           J.Obj
             [
               ("sends", J.Int (Int64.of_int t.sips.sends));
               ("drops", J.Int (Int64.of_int t.sips.drops));
               ("dups", J.Int (Int64.of_int t.sips.dups));
               ("delays", J.Int (Int64.of_int t.sips.delays));
               ("stale_purged", J.Int (Int64.of_int t.sips.stale_purged));
             ] );
         ("sharing", counters_to_json t.sharing);
       ]
      @ (match t.cache_hit_rate with
        | None -> [] (* no remote lookups: omit rather than emit 0/0 *)
        | Some r -> [ ("cache_hit_rate", J.Float r) ])
      @ [
          ( "recovery_timeline",
            J.Arr
              (List.map
                 (fun (phase, ns) ->
                   J.Obj [ ("phase", J.Str phase); ("ns", J.Int ns) ])
                 t.recovery_timeline) );
        ])

  let to_string t = J.to_string (to_json t)
end

(* ---------- capture ---------- *)

let hist_of_stats (h : Sim.Stats.histogram) : Snapshot.hist =
  let count = Sim.Stats.count h in
  let min_ns = Sim.Stats.min_value h and max_ns = Sim.Stats.max_value h in
  let buckets = Sim.Stats.buckets h in
  let p = Sim.Stats.quantile ~count ~min:min_ns ~max:max_ns buckets in
  {
    count;
    mean_ns = Sim.Stats.mean h;
    min_ns;
    max_ns;
    p50_ns = p 50.;
    p95_ns = p 95.;
    p99_ns = p 99.;
    p999_ns = p 99.9;
    buckets;
  }

(* Histogram tables keyed by op name, sorted for stable output. *)
let sorted_hists tbl =
  Hashtbl.fold (fun k v acc -> (k, hist_of_stats v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* System-wide totals for the sharing protocol (summed over cells). *)
let sharing_counters =
  [ "share.imports"; "share.exports"; "share.releases"; "share.reimports";
    "share.cache_hits"; "share.cache_insertions"; "share.cache_evictions";
    "share.cache_invalidations"; "share.invalidates"; "share.release_lost";
    "share.release_races"; "fs.remote_locates"; "fs.readahead_pages";
    "fs.release_errors" ]

let sharing_totals (sys : Types.system) =
  List.map
    (fun name ->
      let total =
        Array.fold_left
          (fun acc (c : Types.cell) ->
            acc + Sim.Stats.value c.Types.counters name)
          0 sys.Types.cells
      in
      (name, total))
    sharing_counters
  |> List.sort compare

(* The derived cache-hit rate: hits / (hits + locate RPCs) — the fraction
   of remote-page lookups that never left the cell. None when the run
   made no remote lookups at all (0/0 is not a rate). *)
let hit_rate_of_totals totals =
  let get n = Option.value ~default:0 (List.assoc_opt n totals) in
  let hits = get "share.cache_hits" in
  let lookups = hits + get "fs.remote_locates" in
  if lookups = 0 then None
  else Some (float_of_int hits /. float_of_int lookups)

let cache_hit_rate (sys : Types.system) =
  hit_rate_of_totals (sharing_totals sys)

let capture (sys : Types.system) : Snapshot.t =
  let sips = Flash.Machine.sips sys.Types.machine in
  let totals = sharing_totals sys in
  {
    sim_time_ns = Sim.Engine.now sys.Types.eng;
    rpc_client = sorted_hists sys.Types.rpc_client_ns;
    rpc_server = sorted_hists sys.Types.rpc_server_ns;
    ops = sorted_hists sys.Types.op_ns;
    cells =
      Array.to_list
        (Array.map
           (fun (c : Types.cell) : Snapshot.cell ->
             {
               id = c.Types.cell_id;
               status = c.Types.cstatus;
               live_set = List.sort compare c.Types.live_set;
               counters = List.sort compare (Sim.Stats.to_list c.Types.counters);
             })
           sys.Types.cells);
    system_counters = List.sort compare (Sim.Stats.to_list sys.Types.sys_counters);
    sips =
      {
        sends = Flash.Sips.send_count sips;
        drops = Flash.Sips.drop_count sips;
        dups = Flash.Sips.dup_count sips;
        delays = Flash.Sips.delay_count sips;
        stale_purged = Flash.Sips.stale_purged_count sips;
      };
    sharing = totals;
    cache_hit_rate = hit_rate_of_totals totals;
    recovery_timeline = sys.Types.recovery_timeline;
  }

let to_json (sys : Types.system) = Snapshot.to_string (capture sys)

let write_file (s : Snapshot.t) path =
  let oc = open_out path in
  output_string oc (Snapshot.to_string s);
  output_char oc '\n';
  close_out oc

(* Human-readable end-of-run summary from a frozen snapshot. *)
let print_summary (s : Snapshot.t) =
  if s.Snapshot.rpc_client <> [] then begin
    Printf.printf "RPC client latency (us):\n";
    Printf.printf "  %-26s %8s %8s %8s %8s\n" "op" "count" "p50" "p95" "p99";
    List.iter
      (fun (name, (h : Snapshot.hist)) ->
        Printf.printf "  %-26s %8d %8.1f %8.1f %8.1f\n" name h.count
          (h.p50_ns /. 1e3) (h.p95_ns /. 1e3) (h.p99_ns /. 1e3))
      s.Snapshot.rpc_client
  end;
  if s.Snapshot.ops <> [] then begin
    Printf.printf "end-to-end op latency (us):\n";
    Printf.printf "  %-26s %8s %8s %8s %8s %8s\n" "op|phase" "count" "p50"
      "p95" "p99" "p99.9";
    List.iter
      (fun (name, (h : Snapshot.hist)) ->
        Printf.printf "  %-26s %8d %8.1f %8.1f %8.1f %8.1f\n" name h.count
          (h.p50_ns /. 1e3) (h.p95_ns /. 1e3) (h.p99_ns /. 1e3)
          (h.p999_ns /. 1e3))
      s.Snapshot.ops
  end;
  (let get = Snapshot.sharing_total s in
   if get "share.imports" > 0 then
     Printf.printf
       "sharing: %d imports, %d cache hits (hit rate %.2f), %d locates, %d \
        readahead pages, %d releases, %d invalidations, %d lost releases\n"
       (get "share.imports") (get "share.cache_hits")
       (Option.value ~default:0. s.Snapshot.cache_hit_rate)
       (get "fs.remote_locates") (get "fs.readahead_pages")
       (get "share.releases") (get "share.cache_invalidations")
       (get "share.release_lost"));
  if s.Snapshot.recovery_timeline <> [] then begin
    Printf.printf "recovery timeline:\n";
    List.iter
      (fun (phase, t) ->
        Printf.printf "  %10.3f ms  %s\n" (Int64.to_float t /. 1e6) phase)
      s.Snapshot.recovery_timeline
  end
