(* Benchmark driver. Two modes:

     main sweep [OPTIONS]            dimensional scenario sweep (Bench.Sweep)
     main diff [OPTIONS]             exact gate vs a committed trajectory

   The sweep emits one deterministic BENCH_<area>.json per area (the
   paper's tables are area [paper]); diff compares two sweep directories
   and exits non-zero on any changed, added or removed row or metric. *)

let usage () =
  Bench.Scenarios.register ();
  prerr_endline
    "usage: main sweep [--quick] [--areas A,B] [--out-dir DIR]\n\
    \       main diff --baseline DIR --fresh DIR";
  Printf.eprintf "\nsweep areas: %s\n"
    (String.concat ", " (Bench.Scenario.areas ()))

let run_sweep args =
  let quick = ref false in
  let areas = ref None in
  let out_dir = ref None in
  let rec parse = function
    | [] -> Ok ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--areas" :: v :: rest ->
      areas := Some (String.split_on_char ',' v);
      parse rest
    | "--out-dir" :: v :: rest ->
      out_dir := Some v;
      parse rest
    | a :: _ -> Error a
  in
  match parse args with
  | Error a ->
    Printf.eprintf "sweep: unexpected argument %s\n" a;
    2
  | Ok () ->
    Bench.Scenarios.register ();
    let known = Bench.Scenario.areas () in
    let bad =
      match !areas with
      | None -> []
      | Some l -> List.filter (fun a -> not (List.mem a known)) l
    in
    if bad <> [] then begin
      Printf.eprintf "sweep: unknown area(s) %s (have: %s)\n"
        (String.concat ", " bad)
        (String.concat ", " known);
      2
    end
    else begin
      let reports = Bench.Sweep.run ?areas:!areas ~quick:!quick () in
      (match !out_dir with
      | None -> ()
      | Some dir ->
        let written = Bench.Sweep.write_dir ~dir reports in
        List.iter (fun p -> Printf.printf "wrote %s\n" p) written);
      0
    end

let run_diff args =
  let baseline = ref None in
  let fresh = ref None in
  let rec parse = function
    | [] -> Ok ()
    | "--baseline" :: v :: rest ->
      baseline := Some v;
      parse rest
    | "--fresh" :: v :: rest ->
      fresh := Some v;
      parse rest
    | a :: _ -> Error a
  in
  match (parse args, !baseline, !fresh) with
  | Error a, _, _ ->
    Printf.eprintf "diff: bad argument %s\n" a;
    2
  | Ok (), Some baseline_dir, Some fresh_dir ->
    Bench.Diff.run_dirs ~baseline_dir ~fresh_dir
  | Ok (), _, _ ->
    prerr_endline "diff: both --baseline DIR and --fresh DIR are required";
    2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "sweep" :: rest -> exit (run_sweep rest)
  | "diff" :: rest -> exit (run_diff rest)
  | [ "--help" ] | [ "-h" ] -> usage ()
  | _ ->
    usage ();
    exit 2
