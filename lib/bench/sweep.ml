(* Dimensional sweep driver: see the .mli. *)

module J = Sim.Json

type row = {
  r_scenario : string;
  r_dims : Scenario.dims;
  r_metrics : Scenario.metric list;
}

type report = { a_area : string; a_rows : row list }

let run_point ~verbose (sc : Scenario.t) dims =
  if verbose then
    Printf.printf "sweep: %-16s %s\n%!" sc.Scenario.sc_name
      (Scenario.dims_label dims);
  let metrics = sc.Scenario.sc_run dims in
  if verbose then
    List.iter
      (fun (m : Scenario.metric) ->
        Printf.printf "    %-24s %s%s\n%!" m.Scenario.m_name
          (J.float_repr m.Scenario.m_value)
          (match m.Scenario.m_paper with
          | Some p -> "   (paper " ^ J.float_repr p ^ ")"
          | None -> ""))
      metrics;
  { r_scenario = sc.Scenario.sc_name; r_dims = dims; r_metrics = metrics }

let run ?areas ?(quick = false) ?(verbose = true) () =
  let wanted (sc : Scenario.t) =
    match areas with None -> true | Some l -> List.mem sc.Scenario.sc_area l
  in
  let rows =
    List.filter wanted (Scenario.all ())
    |> List.concat_map (fun (sc : Scenario.t) ->
           let grid =
             if quick then sc.Scenario.sc_quick else sc.Scenario.sc_dims
           in
           List.map
             (fun dims -> (sc.Scenario.sc_area, run_point ~verbose sc dims))
             grid)
  in
  List.sort_uniq compare (List.map fst rows)
  |> List.map (fun area ->
         let in_area (a, r) = if a = area then Some r else None in
         { a_area = area; a_rows = List.filter_map in_area rows })

(* ---------- JSON ---------- *)

let direction_to_string = function
  | Scenario.Lower_better -> "lower"
  | Scenario.Higher_better -> "higher"
  | Scenario.Info -> "info"

let direction_of_string = function
  | "lower" -> Some Scenario.Lower_better
  | "higher" -> Some Scenario.Higher_better
  | "info" -> Some Scenario.Info
  | _ -> None

let dims_to_json (d : Scenario.dims) =
  J.Obj
    [
      ("workload", J.Str d.Scenario.workload);
      ("cells", J.Int (Int64.of_int d.Scenario.cells));
      ("nodes", J.Int (Int64.of_int d.Scenario.nodes));
      ("ws_pages", J.Int (Int64.of_int d.Scenario.ws_pages));
      ("link_ms", J.Int (Int64.of_int d.Scenario.link_ms));
      ("import_cache", J.Bool d.Scenario.import_cache);
      ("smp", J.Bool d.Scenario.smp);
      ("rate", J.Int (Int64.of_int d.Scenario.rate));
      ("zipf_pct", J.Int (Int64.of_int d.Scenario.zipf_pct));
      ("fault_ms", J.Int (Int64.of_int d.Scenario.fault_ms));
    ]

let row_to_json r =
  J.Obj
    [
      ("scenario", J.Str r.r_scenario);
      ("dims", dims_to_json r.r_dims);
      ( "metrics",
        J.Arr
          (List.map
             (fun (m : Scenario.metric) ->
               J.Obj
                 ([
                    ("name", J.Str m.Scenario.m_name);
                    ("value", J.Float m.Scenario.m_value);
                    ("better", J.Str (direction_to_string m.Scenario.m_dir));
                  ]
                 @
                 match m.Scenario.m_paper with
                 | Some p -> [ ("paper", J.Float p) ]
                 | None -> []))
             r.r_metrics) );
    ]

let report_to_json rep =
  J.Obj
    [
      ("schema", J.Int 1L);
      ("area", J.Str rep.a_area);
      ("rows", J.Arr (List.map row_to_json rep.a_rows));
    ]

let ( let* ) = Result.bind

let field name conv j =
  match J.member name j with
  | None -> Error (Printf.sprintf "sweep: missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "sweep: bad field %S" name))

(* An optional field: absent is [None], present but malformed an error. *)
let opt_field name conv j =
  match J.member name j with
  | None -> Ok None
  | Some _ -> Result.map Option.some (field name conv j)

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let dims_of_json j : (Scenario.dims, string) result =
  let* workload = field "workload" J.to_string_opt j in
  let* cells = field "cells" J.to_int_opt j in
  let* nodes = field "nodes" J.to_int_opt j in
  let* ws_pages = field "ws_pages" J.to_int_opt j in
  let* link_ms = field "link_ms" J.to_int_opt j in
  let* import_cache = field "import_cache" J.to_bool_opt j in
  let* smp = field "smp" J.to_bool_opt j in
  let* rate = field "rate" J.to_int_opt j in
  let* zipf_pct = field "zipf_pct" J.to_int_opt j in
  let* fault_ms = field "fault_ms" J.to_int_opt j in
  Ok
    { Scenario.workload; cells; nodes; ws_pages; link_ms; import_cache; smp;
      rate; zipf_pct; fault_ms }

let metric_of_json j =
  let* name = field "name" J.to_string_opt j in
  let* value = field "value" J.to_float_opt j in
  let* better = field "better" J.to_string_opt j in
  let* paper = opt_field "paper" J.to_float_opt j in
  match direction_of_string better with
  | Some dir ->
    Ok { Scenario.m_name = name; m_value = value; m_dir = dir; m_paper = paper }
  | None -> Error (Printf.sprintf "sweep: unknown direction %S" better)

let row_of_json j =
  let* scenario = field "scenario" J.to_string_opt j in
  let* dims = field "dims" Option.some j in
  let* dims = dims_of_json dims in
  let* metrics = field "metrics" J.to_list_opt j in
  let* metrics = map_result metric_of_json metrics in
  Ok { r_scenario = scenario; r_dims = dims; r_metrics = metrics }

let report_of_json j =
  let* schema = field "schema" J.to_int_opt j in
  if schema <> 1 then
    Error (Printf.sprintf "sweep: unsupported schema %d" schema)
  else
    let* area = field "area" J.to_string_opt j in
    let* rows = field "rows" J.to_list_opt j in
    let* rows = map_result row_of_json rows in
    Ok { a_area = area; a_rows = rows }

(* ---------- files ---------- *)

let file_name ~area = Printf.sprintf "BENCH_%s.json" area

let write_dir ~dir reports =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun rep ->
      let path = Filename.concat dir (file_name ~area:rep.a_area) in
      let oc = open_out path in
      output_string oc (J.to_string ~pretty:true (report_to_json rep));
      output_char oc '\n';
      close_out oc;
      path)
    reports

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match J.of_string text with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      match report_of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok rep -> Ok rep))

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
    Array.to_list entries
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> map_result (fun f -> load_file (Filename.concat dir f))
    |> Result.map
         (List.sort (fun a b -> compare a.a_area b.a_area))
