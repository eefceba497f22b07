(* System-wide invariant checkers (deterministic simulation testing).

   The fault-containment argument of the paper reduces to a handful of
   global properties: firewall hardware state agrees with the pfdat grant
   bookkeeping and never names a dead cell; COW trees reachable from live
   processes are acyclic and well-formed; page reference counts match the
   mappings that exist; every RPC a client started completes with a reply
   or a dead-peer error; and outside recovery every live cell has its
   user gate open and its recovery flags clear.

   All checks read simulator state directly ([Flash.Memory.peek], pfdat
   tables, hashtables): they charge no simulated time and can run outside
   any simulation thread, so observing the system cannot change it. *)

type violation = { inv : string; detail : string }

let to_string v = Printf.sprintf "[%s] %s" v.inv v.detail

let v inv fmt = Printf.ksprintf (fun detail -> { inv; detail }) fmt

let live_cells (sys : Types.system) =
  Array.to_list sys.Types.cells |> List.filter Types.cell_alive

(* Cells whose processors intersect [vec], excluding [but]. *)
let cells_in_vector (sys : Types.system) vec ~but =
  Array.to_list sys.Types.cells
  |> List.filter_map (fun (c : Types.cell) ->
         if
           c.Types.cell_id <> but
           && Flash.Procset.intersects vec
                (Flash.Firewall.proc_mask c.Types.cell_nodes)
         then Some c.Types.cell_id
         else None)

(* ---------- firewall / pfdat agreement ---------- *)

(* Direction 1 (hardware -> bookkeeping): every page of a live cell whose
   permission vector names a remote processor must be tracked by a pfdat
   whose [write_granted_to] records that remote cell — otherwise a cell
   the kernel never granted anything to can wild-write the page. The
   tracking pfdat is normally the owner's; for a loaned frame it is the
   borrowing data home's (only the data home knows the firewall status).

   Direction 2 (bookkeeping -> hardware): every recorded grant must be
   backed by actual permission bits, or a client holding a writable
   mapping would take surprise bus errors.

   Both directions: grants must never name a dead cell at a quiesce
   point — recovery's preemptive discard is obliged to revoke them. *)
let check_firewall (sys : Types.system) ~cells =
  let fw = Flash.Machine.firewall sys.Types.machine in
  let bad = ref [] in
  let note x = bad := x :: !bad in
  let alive id = Types.cell_alive sys.Types.cells.(id) in
  List.iter
    (fun (c : Types.cell) ->
      let own_mask = Flash.Firewall.proc_mask c.Types.cell_nodes in
      let remote_mask =
        Flash.Procset.diff
          (Flash.Firewall.proc_mask
             (List.init sys.Types.mcfg.Flash.Config.nodes Fun.id))
          own_mask
      in
      List.iter
        (fun node ->
          List.iter
            (fun pfn ->
              let vec = Flash.Firewall.vector fw ~pfn in
              let remotes =
                cells_in_vector sys
                  (Flash.Procset.inter vec remote_mask)
                  ~but:c.Types.cell_id
              in
              let tracker =
                match Hashtbl.find_opt c.Types.frames pfn with
                | Some pf -> (
                  match pf.Types.loaned_to with
                  | Some b when alive b ->
                    Hashtbl.find_opt sys.Types.cells.(b).Types.frames pfn
                  | _ -> Some pf)
                | None -> None
              in
              match tracker with
              | None ->
                note
                  (v "firewall-grant"
                     "cell %d pfn %d: remote write permission %s but no \
                      pfdat tracks the frame"
                     c.Types.cell_id pfn
                     (Flash.Procset.to_string vec))
              | Some pf ->
                List.iter
                  (fun r ->
                    if not (List.mem r pf.Types.write_granted_to) then
                      note
                        (v "firewall-grant"
                           "cell %d pfn %d: hardware grants cell %d write \
                            access but no grant is recorded"
                           c.Types.cell_id pfn r))
                  remotes)
            (Flash.Firewall.pages_writable_by_mask fw ~node ~mask:remote_mask))
        c.Types.cell_nodes;
      (* Direction 2 + dead-cell naming, over this cell's pfdat tables. *)
      Hashtbl.iter
        (fun _pfn (pf : Types.pfdat) ->
          List.iter
            (fun g ->
              if g <> c.Types.cell_id then begin
                if not (alive g) then
                  note
                    (v "firewall-grant"
                       "cell %d pfn %d: write grant names dead cell %d"
                       c.Types.cell_id pf.Types.pfn g);
                let procs = sys.Types.cells.(g).Types.cell_nodes in
                if
                  alive g
                  && not
                       (List.for_all
                          (fun proc ->
                            Flash.Firewall.allowed fw ~pfn:pf.Types.pfn ~proc)
                          procs)
                then
                  note
                    (v "firewall-grant"
                       "cell %d pfn %d: grant to cell %d recorded but \
                        hardware bits are missing"
                       c.Types.cell_id pf.Types.pfn g)
              end)
            pf.Types.write_granted_to;
          List.iter
            (fun e ->
              if not (alive e) then
                note
                  (v "firewall-grant"
                     "cell %d pfn %d: export record names dead cell %d"
                     c.Types.cell_id pf.Types.pfn e))
            pf.Types.exported_to;
          (match pf.Types.imported_from with
          | Some h when not (alive h) ->
            note
              (v "firewall-grant"
                 "cell %d pfn %d: import binding names dead cell %d"
                 c.Types.cell_id pf.Types.pfn h)
          | _ -> ());
          (match pf.Types.loaned_to with
          | Some b when not (alive b) ->
            note
              (v "firewall-grant" "cell %d pfn %d: loan names dead cell %d"
                 c.Types.cell_id pf.Types.pfn b)
          | _ -> ());
          match pf.Types.borrowed_from with
          | Some h when not (alive h) ->
            note
              (v "firewall-grant" "cell %d pfn %d: borrow names dead cell %d"
                 c.Types.cell_id pf.Types.pfn h)
          | _ -> ())
        c.Types.frames)
    cells;
  List.rev !bad

(* ---------- writable mappings backed by permission ---------- *)

let check_mappings (sys : Types.system) ~cells =
  let fw = Flash.Machine.firewall sys.Types.machine in
  let bad = ref [] in
  List.iter
    (fun (c : Types.cell) ->
      List.iter
        (fun (p : Types.process) ->
          Hashtbl.iter
            (fun vpage (m : Types.mapping) ->
              if
                m.Types.map_writable
                && not
                     (Flash.Firewall.allowed fw ~pfn:m.Types.map_pf.Types.pfn
                        ~proc:(Types.boss_proc c))
              then
                bad :=
                  v "mapping-grant"
                    "cell %d pid %d vpage %d: writable mapping of pfn %d \
                     without write permission"
                    c.Types.cell_id p.Types.pid vpage m.Types.map_pf.Types.pfn
                  :: !bad)
            p.Types.mappings)
        c.Types.processes)
    cells;
  List.rev !bad

(* ---------- COW tree shape ---------- *)

(* Walk the parent chain of every anonymous region leaf reachable from a
   live process. The walk is purely physical (peek): tags and field
   values are validated, visited nodes are remembered to detect cycles.
   Nodes owned by an [exempt] cell (a deliberate corruption victim, or a
   cell rebooted with zeroed memory) end the walk silently: damage there
   is the injected fault itself, not a containment failure. *)
let check_cow (sys : Types.system) ~exempt =
  let mem = Flash.Machine.memory sys.Types.machine in
  let ncells = Array.length sys.Types.cells in
  let peek_i64 addr =
    match Flash.Memory.peek mem addr 8 with
    | b -> Some (Bytes.get_int64_le b 0)
    | exception _ -> None
  in
  let field addr index =
    peek_i64 (addr + Kmem.header_bytes + (8 * index))
  in
  let bad = ref [] in
  let walk_from (c : Types.cell) (p : Types.process) (leaf : Types.cow_ref) =
    let visited = Hashtbl.create 16 in
    let rec walk (r : Types.cow_ref) hops =
      let where =
        Printf.sprintf "cell %d pid %d: cow node (%d,%#x)" c.Types.cell_id
          p.Types.pid r.Types.cow_cell r.Types.cow_addr
      in
      if r.Types.cow_cell < 0 || r.Types.cow_cell >= ncells then
        bad := v "cow-shape" "%s: owner cell out of range" where :: !bad
      else if List.mem r.Types.cow_cell exempt then ()
      else if not (Types.cell_alive sys.Types.cells.(r.Types.cow_cell)) then ()
      else if hops > 10_000 then
        bad := v "cow-shape" "%s: parent chain exceeds hop bound" where :: !bad
      else if Hashtbl.mem visited (r.Types.cow_cell, r.Types.cow_addr) then
        bad := v "cow-shape" "%s: cycle in parent chain" where :: !bad
      else begin
        Hashtbl.replace visited (r.Types.cow_cell, r.Types.cow_addr) ();
        match peek_i64 r.Types.cow_addr with
        | None -> bad := v "cow-shape" "%s: unreadable node" where :: !bad
        | Some tag when tag <> Cow.cow_tag ->
          bad := v "cow-shape" "%s: bad tag %Lx" where tag :: !bad
        | Some _ -> (
          match
            ( field r.Types.cow_addr Cow.f_nentries,
              field r.Types.cow_addr Cow.f_capacity,
              field r.Types.cow_addr Cow.f_parent_addr,
              field r.Types.cow_addr Cow.f_parent_cell )
          with
          | Some n, Some cap, Some pa, Some pc ->
            let n = Int64.to_int n and cap = Int64.to_int cap in
            let pa = Int64.to_int pa and pc = Int64.to_int pc in
            if n < 0 || cap <= 0 || cap > 1 lsl 16 || n > cap then
              bad :=
                v "cow-shape" "%s: entry count %d/%d out of range" where n cap
                :: !bad
            else if pa < 0 || pc < 0 then () (* root *)
            else walk { Types.cow_cell = pc; cow_addr = pa } (hops + 1)
          | _ -> bad := v "cow-shape" "%s: unreadable fields" where :: !bad)
      end
    in
    walk leaf 0
  in
  List.iter
    (fun (c : Types.cell) ->
      List.iter
        (fun (p : Types.process) ->
          List.iter
            (fun (r : Types.region) ->
              match r.Types.kind with
              | Types.Anon_region leaf -> walk_from c p leaf
              | Types.File_region _ -> ())
            p.Types.regions)
        c.Types.processes)
    (live_cells sys);
  List.rev !bad

(* ---------- reference counts ---------- *)

(* [pf.refs] must equal the number of process mappings whose [map_pf] is
   (physically) that pfdat. Counting is by identity: extended pfdats for
   the same pfn can come and go, and only pointer equality ties a mapping
   to the generation it mapped. Both indexes are keyed by pfn and matched
   by identity within a key, so the check is linear in mappings and
   frames. *)
let check_refcounts (_sys : Types.system) ~cells =
  let bad = ref [] in
  let find tbl (pf : Types.pfdat) =
    List.find_opt (fun (q, _) -> q == pf) (Hashtbl.find_all tbl pf.Types.pfn)
  in
  List.iter
    (fun (c : Types.cell) ->
      let counts : (int, Types.pfdat * int ref) Hashtbl.t = Hashtbl.create 64 in
      let mapped = ref [] in (* most recently first mapped first *)
      let count_for pf =
        match find counts pf with
        | Some (_, r) -> r
        | None ->
          let r = ref 0 in
          Hashtbl.add counts pf.Types.pfn (pf, r);
          mapped := pf :: !mapped;
          r
      in
      List.iter
        (fun (p : Types.process) ->
          Hashtbl.iter
            (fun _ (m : Types.mapping) -> incr (count_for m.Types.map_pf))
            p.Types.mappings)
        c.Types.processes;
      let seen : (int, Types.pfdat) Hashtbl.t = Hashtbl.create 64 in
      let check (pf : Types.pfdat) =
        if not (List.memq pf (Hashtbl.find_all seen pf.Types.pfn)) then begin
          Hashtbl.add seen pf.Types.pfn pf;
          let expect = match find counts pf with Some (_, r) -> !r | None -> 0 in
          if pf.Types.refs <> expect then
            bad :=
              v "refcount" "cell %d pfn %d: refs=%d but %d mapping(s) exist"
                c.Types.cell_id pf.Types.pfn pf.Types.refs expect
              :: !bad
        end
      in
      Hashtbl.iter (fun _ pf -> check pf) c.Types.frames;
      Hashtbl.iter (fun _ pf -> check pf) c.Types.page_hash;
      (* Mappings must point at live pfdats, not freed generations. *)
      List.iter check !mapped)
    cells;
  List.rev !bad

(* ---------- gate / recovery state machine ---------- *)

let check_gate (sys : Types.system) =
  let bad = ref [] in
  let note x = bad := x :: !bad in
  if sys.Types.recovery_round_active then
    note (v "gate-state" "recovery round marked active at quiesce");
  List.iter
    (fun (c : Types.cell) ->
      if not c.Types.user_gate_open then
        note
          (v "gate-state" "cell %d: user gate closed outside recovery"
             c.Types.cell_id);
      if c.Types.in_recovery then
        note
          (v "gate-state" "cell %d: in_recovery set outside recovery"
             c.Types.cell_id);
      if c.Types.recovery_active then
        note
          (v "gate-state" "cell %d: recovery thread marked active at quiesce"
             c.Types.cell_id);
      (* Live-set agreement: every live cell sees exactly the live cells. *)
      Array.iter
        (fun (o : Types.cell) ->
          let should = Types.cell_alive o in
          let does = List.mem o.Types.cell_id c.Types.live_set in
          if should && not does then
            note
              (v "gate-state" "cell %d: live cell %d missing from live set"
                 c.Types.cell_id o.Types.cell_id);
          if (not should) && does then
            note
              (v "gate-state" "cell %d: dead cell %d still in live set"
                 c.Types.cell_id o.Types.cell_id))
        sys.Types.cells)
    (live_cells sys);
  List.rev !bad

(* ---------- RPC no-orphan ---------- *)

let rpc_snapshot (sys : Types.system) =
  Array.to_list sys.Types.cells
  |> List.concat_map (fun (c : Types.cell) ->
         if Types.cell_alive c then
           Hashtbl.fold
             (fun key _ acc -> (c.Types.cell_id, key) :: acc)
             c.Types.pending_calls []
           |> List.sort compare
         else [])

let check_rpc_drained (sys : Types.system) ~snapshot =
  List.filter_map
    (fun (cell_id, key) ->
      let c = sys.Types.cells.(cell_id) in
      if Types.cell_alive c && Hashtbl.mem c.Types.pending_calls key then
        Some
          (v "rpc-orphan"
             "cell %d call %d: still pending after the drain window (no \
              reply, no dead-peer error)"
             cell_id key)
      else None)
    snapshot

(* ---------- at-most-once transport ---------- *)

(* The RPC layer records every actual execution of a non-idempotent op
   body in [sys.rpc_executions], keyed by (server cell, server
   incarnation, call id). At-most-once semantics demand each key was
   executed exactly once per server life: a count above one means a
   retransmitted request slipped past the reply cache and re-ran its op. *)
let check_rpc_at_most_once (sys : Types.system) =
  Hashtbl.fold
    (fun (cell, incarnation, call_id) (op, n) acc ->
      if n > 1 then
        v "rpc-at-most-once"
          "cell %d (incarnation %d): non-idempotent op %s for call %d \
           executed %d times"
          cell incarnation op call_id n
        :: acc
      else acc)
    sys.Types.rpc_executions []
  |> List.sort compare

(* A cell must never act on a message stamped with an epoch other than its
   current incarnation; acceptances are recorded by the RPC layer (only
   reachable when the epoch check is deliberately disabled). *)
let check_rpc_epochs (sys : Types.system) =
  List.rev_map (fun detail -> { inv = "rpc-stale-epoch"; detail })
    sys.Types.rpc_stale_accepts

(* ---------- import cache coherence ---------- *)

(* A parked binding is dormant client state the data home must still be
   able to reason about: it must be an idle read-only extended file
   import, its data home must be alive and still hold the page with a
   matching export record (that record is the invalidation channel), and
   the home's file generation must not have advanced past the one the
   binding was imported under — a binding surviving a home failure or a
   generation bump would serve stale data RPC-free, the exact hazard the
   invalidation rules exist to prevent. Both directions are checked:
   every cache entry is a valid parked binding, and every pfdat marked
   [cached] is actually in its cell's cache list. *)
let check_import_cache (sys : Types.system) ~cells =
  let bad = ref [] in
  let note x = bad := x :: !bad in
  let alive id = Types.cell_alive sys.Types.cells.(id) in
  List.iter
    (fun (c : Types.cell) ->
      let cap = sys.Types.params.Params.import_cache_pages in
      if List.length c.Types.import_cache > cap then
        note
          (v "import-cache" "cell %d: %d parked bindings exceed capacity %d"
             c.Types.cell_id
             (List.length c.Types.import_cache)
             cap);
      List.iter
        (fun (pf : Types.pfdat) ->
          let where =
            Printf.sprintf "cell %d pfn %d" c.Types.cell_id pf.Types.pfn
          in
          if not pf.Types.cached then
            note (v "import-cache" "%s: in cache list but not marked cached" where);
          if pf.Types.refs <> 0 then
            note (v "import-cache" "%s: parked binding has refs=%d" where pf.Types.refs);
          if not pf.Types.extended then
            note (v "import-cache" "%s: parked binding is not extended" where);
          if List.mem c.Types.cell_id pf.Types.write_granted_to then
            note (v "import-cache" "%s: parked binding holds a write grant" where);
          match (pf.Types.imported_from, pf.Types.lid) with
          | Some home, Some lid -> (
            (match lid.Types.tag with
            | Types.File_obj _ -> ()
            | Types.Anon_obj _ ->
              note (v "import-cache" "%s: parked binding is not a file page" where));
            if not (alive home) then
              note
                (v "import-cache"
                   "%s: parked binding survives dead data home %d" where home)
            else begin
              let h = sys.Types.cells.(home) in
              (match Pfdat.lookup h lid with
              | Some hpf ->
                if hpf.Types.pfn <> pf.Types.pfn then
                  note
                    (v "import-cache"
                       "%s: home %d moved the page to pfn %d under a parked \
                        binding"
                       where home hpf.Types.pfn);
                if not (List.mem c.Types.cell_id hpf.Types.exported_to) then
                  note
                    (v "import-cache"
                       "%s: home %d holds no export record (invalidation \
                        channel lost)"
                       where home)
              | None ->
                note
                  (v "import-cache"
                     "%s: home %d no longer caches the page" where home));
              match lid.Types.tag with
              | Types.File_obj fid -> (
                match Hashtbl.find_opt h.Types.files_by_ino fid.Types.ino with
                | Some f when f.Types.generation > pf.Types.import_gen ->
                  note
                    (v "import-cache"
                       "%s: parked binding (gen %d) survives generation bump \
                        to %d"
                       where pf.Types.import_gen f.Types.generation)
                | _ -> ())
              | Types.Anon_obj _ -> ()
            end)
          | _ ->
            note
              (v "import-cache" "%s: parked binding lacks import identity"
                 where))
        c.Types.import_cache;
      (* Reverse direction: a cached flag outside the cache list. *)
      Pfdat.iter_pages c (fun pf ->
          if pf.Types.cached && not (List.memq pf c.Types.import_cache) then
            note
              (v "import-cache"
                 "cell %d pfn %d: marked cached but absent from the cache \
                  list"
                 c.Types.cell_id pf.Types.pfn)))
    cells;
  List.rev !bad

(* ---------- entry point ---------- *)

(* ---------- split-brain oracle ---------- *)

(* Never two concurrent live recovery masters. Overlaps are latched the
   instant a second master begins ([Types.master_begin]), so a transient
   dual-master window is reported even if one side stood down (or died)
   long before the run quiesced. A residual master entry for a live cell
   outside any recovery is also a leak of mastership. *)
let check_single_master (sys : Types.system) =
  let bad = ref [] in
  List.iter
    (fun detail -> bad := { inv = "single-master"; detail } :: !bad)
    sys.Types.master_overlaps;
  if not sys.Types.recovery_in_progress then
    List.iter
      (fun id ->
        if Types.cell_alive sys.Types.cells.(id) then
          bad :=
            v "single-master"
              "cell %d still holds recovery mastership outside any recovery"
              id
            :: !bad)
      sys.Types.masters_active;
  List.rev !bad

(* ---------- salvage coherence ---------- *)

(* A salvaged page is only valid while its data home stays down: nobody
   can write file data whose home is dead, so the local copy cannot go
   stale. The reintegration path must purge every salvaged binding for
   the rebooting home; one surviving it would serve dead data after the
   home's disk-backed generations move on. *)
let check_salvage (sys : Types.system) ~cells =
  let bad = ref [] in
  List.iter
    (fun (c : Types.cell) ->
      Pfdat.iter_pages c (fun pf ->
          match pf.Types.salvaged_from with
          | Some h when Types.cell_alive sys.Types.cells.(h) ->
            bad :=
              v "salvage" "cell %d pfn %d: salvaged from cell %d which is live again"
                c.Types.cell_id pf.Types.pfn h
              :: !bad
          | _ -> ()))
    cells;
  List.rev !bad

let check ?(exempt = []) (sys : Types.system) =
  (* The split-brain latch is checked unconditionally: it records
     violations that already happened, so an in-flight recovery is no
     excuse to look away. *)
  let sb = check_single_master sys in
  if sys.Types.recovery_in_progress then sb
  else begin
    (* Per-cell checks skip the exempt cells: deliberate corruption of a
       cell's own state is the injected fault, not a containment failure;
       what matters is that every *other* cell stays coherent. *)
    let scan =
      live_cells sys
      |> List.filter (fun (c : Types.cell) ->
             not (List.mem c.Types.cell_id exempt))
    in
    check_firewall sys ~cells:scan
    @ check_mappings sys ~cells:scan
    @ check_cow sys ~exempt
    @ check_refcounts sys ~cells:scan
    @ check_gate sys
    @ check_rpc_at_most_once sys
    @ check_rpc_epochs sys
    @ check_import_cache sys ~cells:scan
    @ check_salvage sys ~cells:scan
    @ sb
  end
