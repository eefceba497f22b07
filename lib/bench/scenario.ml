(* Scenario descriptors: see the .mli. The registry mirrors Rpc.Op —
   declare once at module init, look up by name everywhere else. *)

type dims = {
  workload : string;
  cells : int;
  nodes : int;
  ws_pages : int;
  link_ms : int;
  import_cache : bool;
  smp : bool;
  rate : int;
  zipf_pct : int;
  fault_ms : int;
}

let default_dims =
  {
    workload = "-";
    cells = 2;
    nodes = 4;
    ws_pages = 0;
    link_ms = 0;
    import_cache = true;
    smp = false;
    rate = 0;
    zipf_pct = 0;
    fault_ms = 0;
  }

let dims_label d =
  Printf.sprintf "%s cells=%d nodes=%d ws=%d link=%dms cache=%s%s%s%s%s"
    d.workload d.cells d.nodes d.ws_pages d.link_ms
    (if d.import_cache then "on" else "off")
    (if d.smp then " smp" else "")
    (if d.rate > 0 then Printf.sprintf " rate=%d" d.rate else "")
    (if d.zipf_pct > 0 then
       Printf.sprintf " zipf=%.1f" (float_of_int d.zipf_pct /. 100.)
     else "")
    (if d.fault_ms > 0 then Printf.sprintf " fault=%dms" d.fault_ms else "")

type direction = Lower_better | Higher_better | Info

type metric = {
  m_name : string;
  m_value : float;
  m_dir : direction;
  m_paper : float option;
}

let metric ?(dir = Lower_better) ?paper m_name m_value =
  { m_name; m_value; m_dir = dir; m_paper = paper }

type t = {
  sc_name : string;
  sc_area : string;
  sc_dims : dims list;
  sc_quick : dims list;
  sc_run : dims -> metric list;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let order : string list ref = ref []

let declare ~name ~area ~dims ?quick run =
  if Hashtbl.mem registry name then
    invalid_arg ("Scenario.declare: duplicate " ^ name);
  if dims = [] then invalid_arg ("Scenario.declare: empty grid for " ^ name);
  let quick = match quick with Some q -> q | None -> [ List.hd dims ] in
  List.iter
    (fun q ->
      if not (List.mem q dims) then
        invalid_arg
          (Printf.sprintf "Scenario.declare: %s quick point (%s) not in grid"
             name (dims_label q)))
    quick;
  let t =
    { sc_name = name; sc_area = area; sc_dims = dims; sc_quick = quick;
      sc_run = run }
  in
  Hashtbl.replace registry name t;
  order := name :: !order;
  t

let all () =
  List.rev_map (fun name -> Hashtbl.find registry name) !order

let areas () =
  List.sort_uniq compare (List.map (fun t -> t.sc_area) (all ()))
