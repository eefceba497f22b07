(* Exact trajectory gate: see the .mli. *)

type change =
  | New_row
  | Added of Scenario.metric
  | Removed of Scenario.metric
  | Changed of { committed : Scenario.metric; fresh : Scenario.metric }

type finding = {
  f_area : string;
  f_scenario : string;
  f_dims : Scenario.dims;
  f_change : change;
}

type verdict = { changes : finding list; compared : int; skipped : int }

let find_row rows (row : Sweep.row) =
  List.find_opt
    (fun (r : Sweep.row) ->
      r.Sweep.r_scenario = row.Sweep.r_scenario
      && r.Sweep.r_dims = row.Sweep.r_dims)
    rows

let find_metric metrics (m : Scenario.metric) =
  List.find_opt
    (fun (x : Scenario.metric) -> x.Scenario.m_name = m.Scenario.m_name)
    metrics

let same (a : Scenario.metric) (b : Scenario.metric) =
  Float.equal a.Scenario.m_value b.Scenario.m_value
  && a.Scenario.m_dir = b.Scenario.m_dir
  && Option.equal Float.equal a.Scenario.m_paper b.Scenario.m_paper

(* A committed row against its fresh re-run: changed and removed metrics
   in committed order, then added ones. *)
let row_changes (committed : Sweep.row) (fresh : Sweep.row) =
  List.filter_map
    (fun c ->
      match find_metric fresh.Sweep.r_metrics c with
      | None -> Some (Removed c)
      | Some f when same c f -> None
      | Some f -> Some (Changed { committed = c; fresh = f }))
    committed.Sweep.r_metrics
  @ List.filter_map
      (fun f ->
        match find_metric committed.Sweep.r_metrics f with
        | None -> Some (Added f)
        | Some _ -> None)
      fresh.Sweep.r_metrics

let compare_reports ~baseline ~fresh =
  let rows_of reports area =
    match
      List.find_opt (fun (r : Sweep.report) -> r.Sweep.a_area = area) reports
    with
    | Some r -> r.Sweep.a_rows
    | None -> []
  in
  let changes = ref [] and compared = ref 0 and skipped = ref 0 in
  let add area (row : Sweep.row) change =
    changes :=
      { f_area = area; f_scenario = row.Sweep.r_scenario;
        f_dims = row.Sweep.r_dims; f_change = change }
      :: !changes
  in
  List.iter
    (fun (brep : Sweep.report) ->
      let area = brep.Sweep.a_area in
      let fresh_rows = rows_of fresh area in
      List.iter
        (fun brow ->
          match find_row fresh_rows brow with
          | None -> incr skipped
          | Some frow ->
            incr compared;
            List.iter (add area brow) (row_changes brow frow))
        brep.Sweep.a_rows)
    baseline;
  List.iter
    (fun (frep : Sweep.report) ->
      let area = frep.Sweep.a_area in
      let committed = rows_of baseline area in
      List.iter
        (fun frow ->
          if find_row committed frow = None then add area frow New_row)
        frep.Sweep.a_rows)
    fresh;
  { changes = List.rev !changes; compared = !compared; skipped = !skipped }

let repr = Sim.Json.float_repr

(* Signed change of [fresh] against [committed], in percent; a move away
   from zero is an infinite one. *)
let change_pct ~committed ~fresh =
  if Float.equal committed fresh then 0.
  else if committed = 0. then Float.copy_sign Float.infinity fresh
  else (fresh -. committed) /. Float.abs committed *. 100.

let judge (dir : Scenario.direction) pct =
  match dir with
  | Scenario.Info -> "info"
  | Scenario.Lower_better -> if pct < 0. then "better" else "worse"
  | Scenario.Higher_better -> if pct > 0. then "better" else "worse"

let describe f =
  let where =
    Printf.sprintf "%s/%s [%s]" f.f_area f.f_scenario
      (Scenario.dims_label f.f_dims)
  in
  match f.f_change with
  | New_row -> Printf.sprintf "NEW     %s: no committed row" where
  | Added m ->
    Printf.sprintf "ADDED   %s %s = %s" where m.Scenario.m_name
      (repr m.Scenario.m_value)
  | Removed m ->
    Printf.sprintf "REMOVED %s %s (was %s)" where m.Scenario.m_name
      (repr m.Scenario.m_value)
  | Changed { committed = c; fresh = m } ->
    let value =
      if Float.equal c.Scenario.m_value m.Scenario.m_value then []
      else
        let pct =
          change_pct ~committed:c.Scenario.m_value ~fresh:m.Scenario.m_value
        in
        [ Printf.sprintf "%s -> %s (%+.4g%%, %s)" (repr c.Scenario.m_value)
            (repr m.Scenario.m_value) pct (judge c.Scenario.m_dir pct) ]
    in
    let better =
      if c.Scenario.m_dir = m.Scenario.m_dir then []
      else
        [ Printf.sprintf "better %s -> %s"
            (Sweep.direction_to_string c.Scenario.m_dir)
            (Sweep.direction_to_string m.Scenario.m_dir) ]
    in
    let paper =
      let show = Option.fold ~none:"none" ~some:repr in
      if Option.equal Float.equal c.Scenario.m_paper m.Scenario.m_paper then []
      else
        [ Printf.sprintf "paper %s -> %s" (show c.Scenario.m_paper)
            (show m.Scenario.m_paper) ]
    in
    Printf.sprintf "CHANGED %s %s: %s" where c.Scenario.m_name
      (String.concat "; " (value @ better @ paper))

let run_dirs ~baseline_dir ~fresh_dir =
  let load what dir =
    match Sweep.load_dir dir with
    | Error e -> Error (Printf.sprintf "%s %s: %s" what dir e)
    | Ok [] -> Error (Printf.sprintf "no BENCH_*.json in %s %s" what dir)
    | Ok reports -> Ok reports
  in
  match (load "baseline" baseline_dir, load "fresh" fresh_dir) with
  | Error e, _ | _, Error e ->
    Printf.eprintf "bench diff: %s\n" e;
    2
  | Ok baseline, Ok fresh ->
    let v = compare_reports ~baseline ~fresh in
    List.iter (fun f -> print_endline (describe f)) v.changes;
    Printf.printf
      "bench diff: %d row(s) compared, %d change(s); %d committed row(s) \
       not in the fresh sweep (skipped)\n"
      v.compared (List.length v.changes) v.skipped;
    if v.changes = [] then 0 else 1
