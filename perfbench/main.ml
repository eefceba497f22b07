(* perfbench: host and simulated end-to-end metrics of the Hive simulator
   over three workloads, with a traced run for per-layer numbers.

     main.exe --workload pmake64_fault|server_kill|fuzz_serial|all
              [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

   Each workload repeats its unit of work until [--seconds] have passed,
   checks every repetition's outputs and that every simulated value
   repeats exactly, and prints a report followed by one JSON line:
   {correct, attempted, failed, metrics}. With --trace 1 every other
   repetition records spans, the line carries the per-layer metrics, and
   the spans and the per-layer report are written under --out. *)

module J = Sim.Json

type kind = Host | Simulated

let kind_label = function Host -> "H" | Simulated -> "S"

(* Every end-to-end metric the report prints; [line] marks the ones the
   final JSON line carries (defined and non-zero on every workload). *)
let end_to_end =
  [ ("wall_s", "s", Host, true);
    ("setup_s", "s", Host, true);
    ("peak_rss_mb", "MB", Host, true);
    ("sim_build_s", "s", Simulated, false);
    ("sim_detect_ms", "ms", Simulated, false);
    ("sim_recovery_ms", "ms", Simulated, false);
    ("read_p50_ms_80rps", "ms", Simulated, false);
    ("read_p99_ms_80rps", "ms", Simulated, false);
    ("read_p50_ms_160rps", "ms", Simulated, false);
    ("read_p99_ms_160rps", "ms", Simulated, false);
    ("max_rate_rps", "req/s", Simulated, false);
    ("fail_frac", "ratio", Simulated, false);
    ("oracle_violations", "count", Simulated, false) ]

(* Timed calls whose host time and allocation are reported per layer. *)
let timed_calls =
  [ "workloads.pmake.run"; "workloads.server.run"; "hive.system.run_until";
    "workloads.pmake.verify" ]

let fuzz_kinds = [ "pmake"; "ocean"; "raytrace"; "traffic" ]

(* Host per-layer metrics: name, unit, and how one traced repetition's
   spans give the value. *)
let host_layers =
  let total name spans =
    List.fold_left
      (fun acc (s : Span.t) -> if s.name = name then acc +. Span.duration s else acc)
      0. spans
  in
  let words name spans =
    List.fold_left
      (fun acc (s : Span.t) -> if s.name = name then acc +. s.words else acc)
      0. spans
  in
  [ ("hive.system.boot_s", "s", total "hive.system.boot");
    ("workloads.pmake.setup_s", "s", total "workloads.pmake.setup") ]
  @ List.concat_map
      (fun c ->
        [ (c ^ ".host_s", "s", total c);
          (c ^ ".alloc_mwords", "Mwords", fun spans -> words c spans /. 1e6) ])
      timed_calls
  @ [ ("sim.engine.run.host_s", "s", total "sim.engine.run");
      ("hive.invariants.check_s", "s", total "hive.invariants.check");
      ("hive.metrics.capture_s", "s", total "hive.metrics.capture");
      ("sim.json.encode_s", "s", total "sim.json.encode");
      ("faultinj.fuzz.plan_s", "s", total "faultinj.fuzz.plan") ]
  @ List.map
      (fun k ->
        ("faultinj.fuzz.run_plan_s." ^ k, "s", total ("faultinj.fuzz.run_plan." ^ k)))
      fuzz_kinds

let is_run_plan (s : Span.t) =
  String.starts_with ~prefix:"faultinj.fuzz.run_plan." s.name

(* Simulated per-layer values, as [Cases] names them; absent = 0. *)
let counted_layers =
  [ ("sim.engine.events", "count");
    ("faultinj.fuzz.events_per_campaign", "count");
    ("faultinj.fuzz.failed", "count");
    ("hive.invariants.violations", "count");
    ("hive.share.imports", "count");
    ("hive.share.cache_hits", "count");
    ("hive.share.remote_locates", "count");
    ("hive.share.readahead_pages", "count");
    ("hive.share.releases", "count");
    ("hive.share.cache_evictions", "count");
    ("hive.share.cache_hit_rate", "ratio");
    ("hive.share.cache_hit_base", "count") ]
  @ List.map
      (fun n -> ("hive.rpc." ^ n, "count"))
      [ "calls"; "queued"; "served"; "retransmits"; "expired";
        "deadline_exceeded"; "shed" ]
  @ List.concat_map
      (fun op -> [ ("hive.rpc." ^ op ^ ".p50_us", "us"); ("hive.rpc." ^ op ^ ".p99_us", "us") ])
      Cases.rpc_ops
  @ [ ("flash.sips.sends", "count");
      ("flash.firewall.changes", "count");
      ("hive.vm.faults", "count");
      ("hive.careful_ref.enter", "count");
      ("hive.recovery.round_restarts", "count") ]
  @ List.map (fun (n, _) -> (n, "ms")) Cases.recovery_phases
  @ List.concat_map
      (fun rate ->
        List.map
          (fun k -> (Printf.sprintf "workloads.server.%s.r%d" k rate, "count"))
          [ "arrivals"; "served"; "redirected"; "fail_fast"; "deadline_exceeded";
            "client_lost"; "shed_legs" ]
        @ [ (Printf.sprintf "workloads.server.within_100ms.r%d" rate, "ratio") ])
      Cases.server_rates

(* Derived host per-layer metrics, computed from all traced repetitions. *)
let derived_layers =
  [ ("sim.engine.events_per_s", "1/s");
    ("sim.engine.alloc_words_per_event", "words");
    ("faultinj.fuzz.run_plan_p50_ms", "ms");
    ("faultinj.fuzz.run_plan_p90_ms", "ms");
    ("trace.overhead_s", "s") ]

let per_layer =
  List.map (fun (n, u, _) -> (n, u)) host_layers @ derived_layers @ counted_layers

(* ---- statistics ---- *)

(* Linear-interpolated percentile of a non-empty list, q in [0, 100]. *)
let percentile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q /. 100. *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.

(* wall_s is a mean, not a median: the host's slow spells last seconds,
   and a median snaps to whichever spell held most of the run, so medians
   of whole runs scatter more than means do. *)
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* Peak resident set of this process so far, from the kernel's VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- running one workload ---- *)

type sample = {
  run : int;
  traced : bool;
  setup_s : float;
  wall_s : float;
  outcome : Cases.outcome;
}

let mean_wall samples = mean (List.map (fun s -> s.wall_s) samples)

exception Nondeterministic of string

(* Every simulated value of every repetition, traced or not, must equal
   the first repetition's. *)
let determinism_guard name samples =
  match samples with
  | [] -> ()
  | first :: rest ->
    let values (o : Cases.outcome) =
      (("fingerprint", o.fingerprint)
       :: List.map (fun (k, v) -> (k, J.float_repr v)) (o.sim @ o.counts))
      @ [ ("checks", string_of_int o.checks);
          ("failures", String.concat "; " o.failures);
          ("findings", String.concat "; " o.findings) ]
    in
    let base = values first.outcome in
    List.iter
      (fun s ->
        List.iter2
          (fun (k, a) (_, b) ->
            if a <> b then
              raise
                (Nondeterministic
                   (Printf.sprintf
                      "%s: %s differs between repetition %d (%s) and \
                       repetition %d%s (%s)"
                      name k first.run a s.run
                      (if s.traced then ", traced," else "")
                      b)))
          base (values s.outcome))
      rest

(* Peak RSS is read once the first [rss_runs] repetitions are done: the
   allocator's footprint keeps creeping up with every repetition, so a
   reading at the end would grow with how many fit into --seconds. *)
let rss_runs = 3

let repeat ~seconds ~trace work =
  let t_end = Span.now () +. seconds in
  let min_runs = if trace then 4 else rss_runs in
  let rss = ref 0. in
  let rec go i acc =
    if i = rss_runs then rss := peak_rss_mb ();
    if i >= min_runs && Span.now () >= t_end then (List.rev acc, !rss)
    else begin
      let traced = trace && i mod 2 = 1 in
      Gc.full_major ();
      Span.enabled := traced;
      Span.run := i;
      let clock = { Cases.setup_s = 0.; wall_s = 0. } in
      let outcome = work clock in
      Span.enabled := false;
      go (i + 1)
        ({ run = i; traced; setup_s = clock.Cases.setup_s;
           wall_s = clock.Cases.wall_s; outcome }
        :: acc)
    end
  in
  go 0 []

type result = {
  name : string;
  line : (string * string * float) list;  (** name, unit, value *)
  report : J.t;
  correct : bool;
  attempted : int;
  failed : int;
}

(* Host self time per layer over the traced repetitions: for each span
   name, the median per-repetition sum of self time, and its share of the
   phase ("setup" or "measured") it ran in. *)
let layer_table traced =
  let per_run =
    List.map
      (fun s ->
        let spans = Span.of_run s.run in
        let phase_of = Hashtbl.create 64 in
        List.iter
          (fun (sp : Span.t) ->
            let ph =
              if sp.parent < 0 then sp.name
              else Option.value ~default:"" (Hashtbl.find_opt phase_of sp.parent)
            in
            Hashtbl.replace phase_of sp.id ph)
          spans;
        let acc = Hashtbl.create 32 in
        List.iter
          (fun ((sp : Span.t), self) ->
            let key = (sp.name, Hashtbl.find phase_of sp.id) in
            Hashtbl.replace acc key
              (self +. Option.value ~default:0. (Hashtbl.find_opt acc key)))
          (Span.self_times spans);
        (s, acc))
      traced
  in
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun (_, acc) -> Hashtbl.fold (fun k _ l -> k :: l) acc []) per_run)
  in
  let phase_total ph s = if ph = "setup" then s.setup_s else s.wall_s in
  List.map
    (fun ((name, ph) as key) ->
      let selfs =
        List.map (fun (_, acc) -> Option.value ~default:0. (Hashtbl.find_opt acc key)) per_run
      in
      let shares =
        List.map2
          (fun (s, _) self -> self /. Float.max 1e-9 (phase_total ph s))
          per_run selfs
      in
      (name, ph, median selfs, median shares))
    keys

let per_layer_values ~untraced ~traced =
  let outcome = (List.hd traced).outcome in
  let host =
    List.map
      (fun (n, _, get) -> (n, median (List.map (fun s -> get (Span.of_run s.run)) traced)))
      host_layers
  in
  let counted n = Option.value ~default:0. (List.assoc_opt n outcome.Cases.counts) in
  let events = counted "sim.engine.events" in
  let roots s = List.filter (fun (sp : Span.t) -> sp.parent < 0) (Span.of_run s.run) in
  let campaign_ms =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun sp -> if is_run_plan sp then Some (Span.duration sp *. 1e3) else None)
          (Span.of_run s.run))
      traced
  in
  let derived =
    [ ("sim.engine.events_per_s",
       median (List.map (fun s -> events /. (s.setup_s +. s.wall_s)) traced));
      ("sim.engine.alloc_words_per_event",
       median
         (List.map
            (fun s ->
              List.fold_left (fun acc (sp : Span.t) -> acc +. sp.words) 0. (roots s)
              /. Float.max 1. events)
            traced));
      ("faultinj.fuzz.run_plan_p50_ms", percentile campaign_ms 50.);
      ("faultinj.fuzz.run_plan_p90_ms", percentile campaign_ms 90.);
      ("trace.overhead_s", mean_wall traced -. mean_wall untraced) ]
  in
  List.map
    (fun (n, u) ->
      let v =
        match List.assoc_opt n host with
        | Some v -> v
        | None -> (
          match List.assoc_opt n derived with Some v -> v | None -> counted n)
      in
      (n, u, v))
    per_layer

let num v = if Float.is_finite v then J.Float v else J.Null

let run_workload ~name ~seconds ~trace ~seed_label work =
  let samples, rss = repeat ~seconds ~trace work in
  determinism_guard name samples;
  let untraced = List.filter (fun s -> not s.traced) samples in
  let traced = List.filter (fun s -> s.traced) samples in
  let outcome = (List.hd samples).outcome in
  let host =
    [ ("wall_s", mean_wall untraced);
      ("setup_s", median (List.map (fun s -> s.setup_s) untraced));
      ("peak_rss_mb", rss) ]
  in
  let e2e =
    List.map
      (fun (n, u, k, line) ->
        let v =
          match List.assoc_opt n host with
          | Some v -> Some v
          | None -> List.assoc_opt n outcome.Cases.sim
        in
        (n, u, k, line, v))
      end_to_end
  in
  let layers = if trace then per_layer_values ~untraced ~traced else [] in
  let table = if trace then layer_table traced else [] in
  let attempted = List.fold_left (fun acc s -> acc + s.outcome.Cases.checks) 0 samples in
  let failed =
    List.fold_left (fun acc s -> acc + List.length s.outcome.Cases.failures) 0 samples
  in
  (* ---- human-readable report ---- *)
  Printf.printf "== %s (%s; %d repetitions, %d traced) ==\n" name seed_label
    (List.length samples) (List.length traced);
  Printf.printf "end-to-end (H = host wall-clock over the untraced repetitions; S = simulated, exact)\n";
  List.iter
    (fun (n, u, k, _, v) ->
      Printf.printf "  %-22s %16s %-6s %s\n" n
        (match v with Some v -> Printf.sprintf "%.6g" v | None -> "n/a")
        u
        (kind_label k))
    e2e;
  Printf.printf "correctness: %d checks, %d failed\n" attempted failed;
  List.iter (Printf.printf "  FAILED %s\n") outcome.Cases.failures;
  Printf.printf "oracle findings (reported as measured): %d\n"
    (List.length outcome.Cases.findings);
  List.iter (Printf.printf "  %s\n") outcome.Cases.findings;
  if trace then begin
    Printf.printf "per-layer self time (host, median of traced repetitions)\n";
    List.iter
      (fun (n, ph, self, share) ->
        Printf.printf "  %-34s %-9s %10.6f s %6.1f%% of %s\n" n ph self
          (100. *. share) (if ph = "setup" then "setup_s" else "wall_s"))
      table;
    Printf.printf "per-layer metrics\n";
    List.iter (fun (n, u, v) -> Printf.printf "  %-44s %14.6g %s\n" n v u) layers
  end;
  let report =
    J.Obj
      [ ("workload", J.Str name);
        ("seed", J.Str seed_label);
        ("repetitions", J.Int (Int64.of_int (List.length samples)));
        ("traced_repetitions", J.Int (Int64.of_int (List.length traced)));
        ("correct", J.Bool (failed = 0));
        ("attempted", J.Int (Int64.of_int attempted));
        ("failed", J.Int (Int64.of_int failed));
        ("failures", J.Arr (List.map (fun s -> J.Str s) outcome.Cases.failures));
        ("findings", J.Arr (List.map (fun s -> J.Str s) outcome.Cases.findings));
        ( "end_to_end",
          J.Obj
            (List.filter_map
               (fun (n, u, k, _, v) ->
                 Option.map
                   (fun v ->
                     ( n,
                       J.Obj
                         [ ("value", num v); ("unit", J.Str u);
                           ("kind", J.Str (kind_label k)) ] ))
                   v)
               e2e) );
        ( "samples",
          J.Arr
            (List.map
               (fun s ->
                 J.Obj
                   [ ("run", J.Int (Int64.of_int s.run)); ("traced", J.Bool s.traced);
                     ("setup_s", J.Float s.setup_s); ("wall_s", J.Float s.wall_s) ])
               samples) );
        ( "per_layer",
          J.Obj
            (List.map (fun (n, u, v) -> (n, J.Obj [ ("value", num v); ("unit", J.Str u) ])) layers) );
        ( "layer_self_time",
          J.Arr
            (List.map
               (fun (n, ph, self, share) ->
                 J.Obj
                   [ ("layer", J.Str n); ("phase", J.Str ph); ("self_s", J.Float self);
                     ("share", J.Float share) ])
               table) ) ]
  in
  let line =
    if trace then layers
    else
      List.filter_map
        (fun (n, u, _, line, v) ->
          match v with Some v when line -> Some (n, u, v) | _ -> None)
        e2e
  in
  { name; line; report; correct = failed = 0; attempted; failed }

(* ---- command line ---- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let workloads = [ "pmake64_fault"; "server_kill"; "fuzz_serial" ]

let () =
  let workload = ref "all" in
  let seed = ref None in
  let seconds = ref 10. in
  let trace = ref 0 in
  let out = ref "perfbench/out" in
  let usage = "main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME pmake64_fault, server_kill, fuzz_serial or all (default)");
      ("--seed",
       Arg.String
         (fun s ->
           match Int64.of_string_opt s with
           | Some n -> seed := Some n
           | None -> raise (Arg.Bad ("--seed: not an integer: " ^ s))),
       "N server seed and first fuzz seed (default: server 24301, fuzz 1)");
      ("--seconds", Arg.Set_float seconds, "S measure each workload for S host seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 = also record spans and report per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where reports and spans are written (default perfbench/out)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = if !workload = "all" then workloads else [ !workload ] in
  if not (List.for_all (fun n -> List.mem n workloads) names) || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let server_seed = Option.value ~default:24301L !seed in
  let fuzz_base = Option.value ~default:1L !seed in
  let trace = !trace = 1 in
  let one name =
    let seed_label, work =
      match name with
      | "pmake64_fault" -> ("no random input", Cases.pmake64_fault)
      | "server_kill" ->
        (Printf.sprintf "server seed %Ld" server_seed, Cases.server_kill ~seed:server_seed)
      | _ ->
        ( Printf.sprintf "fuzz seeds %Ld..%Ld" fuzz_base
            (Int64.add fuzz_base (Int64.of_int (Cases.fuzz_campaigns - 1))),
          Cases.fuzz_serial ~base:fuzz_base )
    in
    Span.spans := [];
    let r = run_workload ~name ~seconds:!seconds ~trace ~seed_label work in
    mkdir_p !out;
    let stem =
      Printf.sprintf "%s/%s-seed%s" !out name
        (match !seed with Some s -> Int64.to_string s | None -> "default")
    in
    write_file (stem ^ (if trace then "-traced" else "") ^ ".report.json")
      (J.to_string ~pretty:true r.report ^ "\n");
    if trace then
      write_file (stem ^ ".spans.json") (J.to_string (Span.to_json (List.rev !Span.spans)) ^ "\n");
    r
  in
  match List.map one names with
  | exception Nondeterministic msg ->
    Printf.eprintf "determinism guard: %s\n" msg;
    exit 3
  | results ->
    let prefix r n = if List.length results > 1 then r.name ^ "." ^ n else n in
    let metrics =
      List.concat_map
        (fun r ->
          List.map
            (fun (n, u, v) -> (prefix r n, J.Obj [ ("value", num v); ("unit", J.Str u) ]))
            r.line)
        results
    in
    let correct = List.for_all (fun r -> r.correct) results in
    let sum g = List.fold_left (fun acc r -> acc + g r) 0 results in
    print_endline
      (J.to_string
         (J.Obj
            [ ("correct", J.Bool correct);
              ("attempted", J.Int (Int64.of_int (sum (fun r -> r.attempted))));
              ("failed", J.Int (Int64.of_int (sum (fun r -> r.failed))));
              ("metrics", J.Obj metrics) ]));
    exit (if correct then 0 else 1)
