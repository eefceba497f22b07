(* Shared kernel state types.

   Hive's subsystems (VM, FS, RPC, recovery, ...) operate on one mutually
   recursive bundle of mutable state types, defined here once; each
   subsystem module implements behavior over them. This mirrors a kernel's
   shared header structure and avoids module cycles. *)

type cell_id = int

type pid = int

(* UNIX-style error results surfaced to processes. *)
type errno =
  | EIO (* data lost: generation mismatch after preemptive discard *)
  | ENOENT
  | EBADF
  | ESRCH
  | EFAULT
  | EAGAIN
  | EHOSTDOWN (* cell owning the resource is down *)
  | EBUSY (* server shed the request: queue saturated or mid-recovery *)
  | ETIMEDOUT (* end-to-end deadline budget exhausted across retries *)
  | ENOSPC (* file area would grow into the swap partition *)

exception Syscall_error of errno

let errno_to_string = function
  | EIO -> "EIO"
  | ENOENT -> "ENOENT"
  | EBADF -> "EBADF"
  | ESRCH -> "ESRCH"
  | EFAULT -> "EFAULT"
  | EAGAIN -> "EAGAIN"
  | EHOSTDOWN -> "EHOSTDOWN"
  | EBUSY -> "EBUSY"
  | ETIMEDOUT -> "ETIMEDOUT"
  | ENOSPC -> "ENOSPC"

(* File identity: the data home cell plus an inode number local to it. *)
type fid = { home : cell_id; ino : int }

type generation = int

(* Logical page identity: the object the page belongs to plus the page
   offset within it (the IRIX "logical page id": tag + offset). *)
type obj_tag =
  | File_obj of fid
  | Anon_obj of { cow_home : cell_id; node_id : int }

type logical_id = { tag : obj_tag; page : int }

(* Page frame data structure. Every cell has a pfdat for each frame it
   owns; *extended pfdats* are allocated dynamically to name a remote
   page (logical-level import) or a borrowed remote frame (physical-level
   borrow). The logical-level and physical-level state machines use
   separate fields so a frame can be simultaneously loaned and imported
   back (the CC-NUMA placement optimization of Section 5.5). *)
type pfdat = {
  pfn : int;
  table_cell : cell_id; (* whose pfdat table this entry lives in *)
  mutable lid : logical_id option;
  mutable dirty : bool;
  mutable refs : int;
  mutable pins : int;
      (* short-term holds by in-flight kernel operations (e.g. a locate
         batch between page-in and export): keeps the frame out of
         reclaim/swap without counting as a process mapping *)
  (* logical level *)
  mutable exported_to : cell_id list; (* data-home side: client cells *)
  mutable imported_from : cell_id option; (* client side: the data home *)
  mutable write_granted_to : cell_id list; (* firewall grants outstanding *)
  (* physical level *)
  mutable loaned_to : cell_id option; (* memory-home side *)
  mutable borrowed_from : cell_id option; (* data-home side *)
  mutable extended : bool;
  (* import cache *)
  mutable cached : bool;
      (* client side: a released read-only import parked in the cell's
         import cache for RPC-free re-access *)
  mutable import_gen : generation;
      (* file generation the data home reported when this binding was
         imported; a parked binding is only valid while the home's
         generation still equals it *)
  mutable salvaged_from : cell_id option;
      (* client side: a local copy of a clean page rescued from a dead
         cell whose memory outlived its processors; dropped when that
         home reintegrates *)
}

(* A file homed on some cell. [disk_block] is its start block on the data
   home's disk; pages cached in memory live in the pfdat table. *)
type file = {
  fid : fid;
  path : string;
  mutable size : int;
  mutable generation : generation;
      (* bumped when a dirty page is preemptively discarded *)
  mutable disk_block : int;
  mutable cached_pages : (int, pfdat) Hashtbl.t; (* page index -> frame *)
  mutable disk_content : Bytes.t; (* stable storage contents *)
  mutable unlinked : bool;
}

type vnode =
  | Local_vnode of file
  | Shadow_vnode of { fid : fid; path : string; data_home : cell_id }

let vnode_fid = function
  | Local_vnode f -> f.fid
  | Shadow_vnode s -> s.fid

let vnode_path = function
  | Local_vnode f -> f.path
  | Shadow_vnode s -> s.path

(* Open file description; [opened_gen] implements the generation-number
   check: accesses through a descriptor opened before a discard get EIO. *)
type fd = {
  fd_num : int;
  vnode : vnode;
  mutable pos : int;
  opened_gen : generation;
  fd_writable : bool;
}

(* Reference to a copy-on-write tree node serialized in the kernel memory
   of [cow_cell]. *)
type cow_ref = { cow_cell : cell_id; cow_addr : int }

type region_kind =
  | File_region of vnode * int (* starting page within the file *)
  | Anon_region of cow_ref

type region = {
  start_page : int; (* virtual page number *)
  npages : int;
  kind : region_kind;
  reg_writable : bool;
  mutable opened_gen : generation;
}

(* A virtual-to-physical mapping held by a process: enough to model TLB
   flushes and remote-mapping removal during recovery. *)
type mapping = {
  map_lid : logical_id;
  map_pf : pfdat;
  map_writable : bool;
}

type proc_state = Proc_running | Proc_suspended | Proc_zombie

type process = {
  pid : pid;
  mutable proc_cell : cell_id;
  mutable assigned_node : int; (* the node whose CPU runs this process *)
  mutable pname : string;
  mutable thread : Sim.Engine.thread option;
  mutable regions : region list;
  mutable mappings : (int, mapping) Hashtbl.t; (* virtual page -> mapping *)
  mutable fds : (int, fd) Hashtbl.t;
  mutable next_fd : int;
  mutable pstate : proc_state;
  mutable exit_code : int option;
  mutable killed_by_failure : bool;
  exit_ivar : int Sim.Ivar.t;
  mutable children : process list;
  mutable uses_cells : cell_id list; (* cells whose resources it depends on *)
}

(* Universal payload for RPC arguments/results; each subsystem extends it. *)
type payload = ..

type payload += P_unit | P_int of int | P_error of errno

type rpc_outcome = (payload, errno) result

(* What an interrupt-level handler decides to do with a request. *)
type handler_action =
  | Immediate of rpc_outcome (* serviced entirely at interrupt level *)
  | Queued of (unit -> rpc_outcome) (* must block: run in a server process *)

type cell_status = Cell_up | Cell_recovering | Cell_down

(* Kernel heap for structures published to other cells (serialized into
   simulated physical memory so careful references and corruptions are
   genuine). *)
type kmem = {
  kmem_base : int; (* physical byte address *)
  kmem_limit : int;
  mutable kmem_next : int;
  mutable kmem_free : (int * int) list; (* (addr, size) free blocks *)
}

type pending_call = {
  call_id : int;
  mutable reply : rpc_outcome option;
  call_done : rpc_outcome Sim.Ivar.t;
}

(* Server-side at-most-once state, kept per client cell. A retransmitted
   request whose call id is already present is answered from the cached
   reply (or silently suppressed while the original is still executing)
   instead of re-executed. *)
type rpc_reply_state =
  | Reply_in_progress (* original request is still executing *)
  | Reply_done of rpc_outcome (* completed: retransmits resend this *)

type rpc_session = {
  mutable rs_epoch : int; (* client incarnation the cache is valid for *)
  mutable rs_max_call : int; (* highest call id seen (prune watermark) *)
  rs_replies : (int, rpc_reply_state) Hashtbl.t; (* call id -> state *)
}

(* Per-file sequential-fault detector driving the adaptive read-ahead
   window: [ra_last] is the highest file page the last locate fetched,
   [ra_window] the number of pages the next sequential miss will ask for. *)
type ra_stream = { mutable ra_last : int; mutable ra_window : int }

(* A cell's free page frames, in allocation order: [recycled] frames
   (most recently freed first), then the never-allocated frames as
   [ranges] of consecutive pfns (one per owned node at boot; removal only
   splits them, so a range never spans two nodes), then [borrowed] frames
   in arrival order. Boot is O(nodes), and taking or pushing a frame is
   O(1), however much memory the cell owns. *)
type frame_range = { mutable lo : int; hi : int }

type free_pool = {
  mutable recycled : int list;
  mutable ranges : frame_range list;
  borrowed : int Queue.t;
}

type cell = {
  cell_id : cell_id;
  cell_nodes : int list; (* node ids owned throughout execution *)
  boss_node : int; (* first node: hosts published kernel data *)
  mutable cstatus : cell_status;
  mutable mem_alive : bool;
      (* Cell_down but the nodes' memory still answers remote reads: the
         CXL pooled-memory failure mode (processors dead, memory alive) *)
  mutable live_set : cell_id list; (* cells this cell believes are up *)
  (* pfdat tables *)
  page_hash : (logical_id, pfdat) Hashtbl.t;
  frames : (int, pfdat) Hashtbl.t; (* by pfn: own + borrowed frames *)
  free_frames : free_pool;
  mutable free_frame_count : int;
      (* maintained alongside [free_frames] so Wax's once-per-period
         publish (and every pressure check) is O(1) *)
  mutable total_frames : int; (* frames owned at boot, for pressure pcts *)
  mutable reserved_loans : int list; (* own frames currently loaned out *)
  (* fs *)
  files : (string, file) Hashtbl.t; (* files homed on this cell, by path *)
  files_by_ino : (int, file) Hashtbl.t;
  mutable next_ino : int;
  mutable next_disk_block : int;
  (* kernel heap in simulated memory *)
  kmem : kmem;
  clock_addr : int; (* published clock word *)
  (* processes *)
  mutable processes : process list;
  mutable user_gate_open : bool;
  mutable gate_waiters : Sim.Engine.thread list;
  (* rpc *)
  mutable next_call_id : int;
  mutable incarnation : int;
      (* bumped on every reintegration; folded into call ids and checked
         against message epochs so pre-reboot traffic is discarded *)
  rpc_rng : Sim.Prng.t; (* deterministic backoff jitter *)
  pending_calls : (int, pending_call) Hashtbl.t;
  rpc_sessions : (cell_id, rpc_session) Hashtbl.t;
      (* per-client at-most-once reply cache (this cell as server) *)
  rpc_queue : (unit -> unit) Sim.Mailbox.t; (* queued-service requests *)
  release_queue : pfdat Sim.Mailbox.t;
      (* imports released by exiting processes, drained by a kernel thread *)
  mutable import_cache : pfdat list;
      (* released read-only imports parked for RPC-free re-access, most
         recently used first; bounded by Params.import_cache_pages *)
  readahead : (fid, ra_stream) Hashtbl.t;
      (* per-file sequential fault streams (remote files only) *)
  pending_releases : (logical_id, int) Hashtbl.t;
      (* lids with a release RPC in flight to their data home. A re-import
         of such a lid must wait for the release to land, or the stale
         release would retire the export record of the *new* binding at
         the home (lost invalidation channel). *)
  mutable flush_epoch : int;
      (* bumped by recovery's import flush. A fault thread already past
         the gate when recovery begins snapshots this before its locate
         RPC: a mismatch afterwards means the reply predates the homes'
         preemptive discard — its frame numbers and the export record it
         created are gone, so the fault must relocate, not bind. *)
  swap_table : (logical_id, int * Bytes.t) Hashtbl.t;
      (* anonymous pages swapped out to this cell's swap partition:
         lid -> (disk block within the swap area, contents) *)
  mutable swap_blocks_used : int;
  mutable swap_free_blocks : int list;
      (* swap blocks freed by swap-ins, reused before the bump allocator *)
  (* failure detection / recovery *)
  mutable suspected : cell_id list;
  mutable alert_votes : (cell_id * cell_id) list; (* accuser, suspect *)
  mutable false_alerts : (cell_id * int) list; (* accuser -> vote-downs *)
  mutable in_recovery : bool;
  mutable recovery_active : bool;
      (* a recovery thread for this cell exists (set at spawn, cleared when
         the thread leaves its round loop); lets a nested-failure restart
         know whether to re-spawn or rely on the barrier abort *)
  mutable recovery_barrier_joined : int * int; (* (round, barrier) joined *)
  (* wax hints *)
  mutable alloc_preference : cell_id list;
  mutable clock_hand_targets : cell_id list; (* cells under memory pressure *)
  mutable swap_hint : int;
      (* frames the Wax coordinator suggests this cell push to swap; the
         cell's own Wax thread validates and acts on it (hints-only
         contract: the coordinator never swaps on another cell's behalf) *)
  mutable salvaged_by_home : (cell_id, pfdat) Hashtbl.t;
      (* index of salvaged pages by their dead data home, so reintegration
         purges in O(salvaged from that home) instead of sweeping every
         page of every survivor; entries are validated against [frames]
         at purge time (a reclaimed frame may leave a stale entry) *)
  mutable rr_cpu : int; (* round-robin CPU assignment cursor *)
  mutable wax_slot : int; (* published word Wax reads/writes *)
  (* threads owned by this kernel, killed on panic *)
  mutable kernel_threads : Sim.Engine.thread list;
  counters : Sim.Stats.registry;
  fault_in_cache_ns : Sim.Stats.histogram;
  remote_fault_ns : Sim.Stats.histogram;
}

(* The whole Hive system: machine + cells + global configuration. *)
type system = {
  machine : Flash.Machine.t;
  eng : Sim.Engine.t;
  mcfg : Flash.Config.t;
  params : Params.t;
  cells : cell array;
  node_owner : cell_id array;
      (* node -> owning cell, fixed at boot; O(1) [cell_of_node] instead
         of a scan over every cell's node list *)
  mutable last_boot_ns : int64;
      (* simulated time the slowest cell finished booting (the large-
         machine boot-cost metric) *)
  proc_table : (pid, process) Hashtbl.t;
  mutable next_pid : int;
  mutable use_agreement_oracle : bool;
  multicellular : bool; (* false = SMP-OS (IRIX-like) baseline mode *)
  mutable recovery_in_progress : bool;
  mutable recovery_events : (cell_id * int64) list;
      (* (cell, time it entered recovery) for detection-latency measurement *)
  mutable recovery_complete_at : int64;
  mutable recovery_barrier1 : Sim.Barrier.t option;
  mutable recovery_barrier2 : Sim.Barrier.t option;
  (* Cascading-failure state: the current round's confirmed dead set, a
     round counter bumped on initiation and on every nested-failure
     restart, and whether a double-barrier round is actually in flight
     (recovery_in_progress also covers the agreement phase before a round
     and the master's diagnostics after it). *)
  mutable recovery_dead : cell_id list;
  mutable recovery_round : int;
  mutable recovery_round_active : bool;
  mutable recovery_participants : cell_id list;
      (* survivors driving the current recovery; a partitioned accuser that
         cannot reach any of them must run its own agreement round rather
         than silently deferring to a recovery it cannot observe *)
  (* Split-brain oracle state: which cells currently hold recovery
     mastership, and every instant at which two held it concurrently.
     Latched continuously (at master_begin time, via the event bus), not
     recomputed post-quiesce, so a transient dual-master window can never
     escape the checker by standing down before the run ends. *)
  mutable masters_active : cell_id list;
  mutable master_overlaps : string list;
  mutable on_cell_death : (cell_id -> unit) option;
      (* panic/hardware-failure hook: lets an in-flight recovery round
         restart with an enlarged dead set when a participant dies *)
  mutable reintegrate_fn : (cell_id -> unit) option;
      (* installed by System at boot; the recovery master drives it after
         diagnostics pass to reboot and reintegrate repaired cells *)
  mutable wax_restart : (system -> unit) option;
  mutable wax_threads : Sim.Engine.thread list;
  mutable wax_incarnation : int;
  mutable on_hint : (cell -> suspect:cell_id -> reason:string -> unit) option;
      (* installed by the failure-detection module at boot *)
  sys_counters : Sim.Stats.registry;
  (* At-most-once audit trail, read by Invariants: how many times each
     non-idempotent op body actually ran, keyed by the server's identity
     (cell, incarnation) and the call id; plus any stale-epoch message a
     cell accepted (always a bug — recorded only when the epoch check is
     deliberately disabled for planted-bug demos). *)
  rpc_executions : (cell_id * int * int, string * int) Hashtbl.t;
  mutable rpc_stale_accepts : string list;
  (* observability *)
  events : Sim.Event.bus;
  rpc_client_ns : (string, Sim.Stats.histogram) Hashtbl.t;
      (* per-op whole-call latency seen by clients *)
  rpc_server_ns : (string, Sim.Stats.histogram) Hashtbl.t;
      (* per-op handler execution time on servers *)
  op_ns : (string, Sim.Stats.histogram) Hashtbl.t;
      (* user-visible end-to-end operation latency by op class (the server
         workload keys these as "class|phase", e.g. "server.read|before") *)
  mutable recovery_timeline : (string * int64) list;
      (* (phase, time) markers from the most recent recovery, oldest first *)
}

let cell_of_node (sys : system) node =
  if node < 0 || node >= Array.length sys.node_owner then
    invalid_arg "cell_of_node: node not owned by any cell";
  sys.cells.(sys.node_owner.(node))

(* Free-frame pool operations: every site goes through these so
   [free_frame_count] can never drift from the pool. *)

(* Empty the pool, then fill it with the inclusive pfn ranges [(lo, hi)],
   in order. *)
let reset_free (c : cell) ranges =
  let pool = c.free_frames in
  pool.recycled <- [];
  pool.ranges <- List.map (fun (lo, hi) -> { lo; hi }) ranges;
  Queue.clear pool.borrowed;
  c.free_frame_count <-
    List.fold_left (fun n (lo, hi) -> n + hi - lo + 1) 0 ranges

let push_free (c : cell) pfn =
  c.free_frames.recycled <- pfn :: c.free_frames.recycled;
  c.free_frame_count <- c.free_frame_count + 1

(* Append variant: borrowed frames go to the tail so local frames are
   preferred by allocation. *)
let push_free_last (c : cell) pfn =
  Queue.push pfn c.free_frames.borrowed;
  c.free_frame_count <- c.free_frame_count + 1

let take_free (c : cell) =
  let pool = c.free_frames in
  let pfn =
    match pool.recycled with
    | pfn :: rest ->
      pool.recycled <- rest;
      Some pfn
    | [] -> (
      match pool.ranges with
      | r :: rest ->
        let pfn = r.lo in
        if pfn = r.hi then pool.ranges <- rest else r.lo <- pfn + 1;
        Some pfn
      | [] -> Queue.take_opt pool.borrowed)
  in
  if Option.is_some pfn then c.free_frame_count <- c.free_frame_count - 1;
  pfn

let in_range pfn r = r.lo <= pfn && pfn <= r.hi

let mem_free (c : cell) pfn =
  let pool = c.free_frames in
  List.mem pfn pool.recycled
  || List.exists (in_range pfn) pool.ranges
  || Queue.fold (fun found p -> found || p = pfn) false pool.borrowed

(* Remove every occurrence of [pfn] from the pool. *)
let remove_free (c : cell) pfn =
  let pool = c.free_frames in
  let removed = ref 0 in
  let keep p =
    if p = pfn then begin
      incr removed;
      false
    end
    else true
  in
  if List.mem pfn pool.recycled then
    pool.recycled <- List.filter keep pool.recycled;
  if List.exists (in_range pfn) pool.ranges then
    pool.ranges <-
      List.concat_map
        (fun r ->
          if not (in_range pfn r) then [ r ]
          else begin
            incr removed;
            (if r.lo < pfn then [ { lo = r.lo; hi = pfn - 1 } ] else [])
            @ if pfn < r.hi then [ { lo = pfn + 1; hi = r.hi } ] else []
          end)
        pool.ranges;
  if Queue.fold (fun found p -> found || p = pfn) false pool.borrowed then begin
    let rest = Queue.create () in
    Queue.iter (fun p -> if keep p then Queue.push p rest) pool.borrowed;
    Queue.clear pool.borrowed;
    Queue.transfer rest pool.borrowed
  end;
  c.free_frame_count <- c.free_frame_count - !removed

(* First frame, in allocation order, on one of the cell's own nodes.
   A range never spans two nodes, so its first frame decides it. *)
let first_local_free (c : cell) ~node_of_pfn =
  let local pfn = List.mem (node_of_pfn pfn) c.cell_nodes in
  let pool = c.free_frames in
  match List.find_opt local pool.recycled with
  | Some _ as found -> found
  | None -> (
    match List.find_opt (fun r -> local r.lo) pool.ranges with
    | Some r -> Some r.lo
    | None ->
      Queue.fold
        (fun found p ->
          match found with None when local p -> Some p | _ -> found)
        None pool.borrowed)

let cell sys id = sys.cells.(id)

let boss_proc (c : cell) = c.boss_node

let cell_alive (c : cell) = c.cstatus = Cell_up

let page_size (sys : system) = sys.mcfg.Flash.Config.page_size

(* Pages per file page unit: files are paged in units of the machine page. *)
let bump ?(by = 1) (c : cell) name = Sim.Stats.bump ~by c.counters name

let sys_bump ?(by = 1) (sys : system) name =
  Sim.Stats.bump ~by sys.sys_counters name

let hist_for (tbl : (string, Sim.Stats.histogram) Hashtbl.t) name =
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
    let h = Sim.Stats.histogram () in
    Hashtbl.replace tbl name h;
    h

(* Record a recovery-phase marker: appended to the timeline (kept in order)
   and emitted on the event bus. *)
let note_phase (sys : system) ?cell phase =
  let t = Sim.Engine.now sys.eng in
  sys.recovery_timeline <- sys.recovery_timeline @ [ (phase, t) ];
  Sim.Event.instant sys.events ?cell ~cat:Sim.Event.Recovery phase

(* Recovery-mastership latch: the split-brain oracle. [master_begin] is
   called the instant a cell assumes mastership of a recovery round; if
   any other cell still holds mastership the overlap is latched right
   here — the invariant checker later reports it even if one master has
   long since stood down. *)
let master_begin (sys : system) (cell_id : cell_id) =
  let t = Sim.Engine.now sys.eng in
  (* A master whose cell has since been killed never ran [master_end];
     its stale latch must not count as a concurrent live master. *)
  sys.masters_active <-
    List.filter (fun id -> cell_alive (cell sys id)) sys.masters_active;
  List.iter
    (fun other ->
      if other <> cell_id then
        sys.master_overlaps <-
          sys.master_overlaps
          @ [
              Printf.sprintf
                "cells %d and %d were concurrent recovery masters at t=%Ldns"
                other cell_id t;
            ])
    sys.masters_active;
  if not (List.mem cell_id sys.masters_active) then
    sys.masters_active <- sys.masters_active @ [ cell_id ];
  note_phase sys ~cell:cell_id
    (Printf.sprintf "recovery.master_begin.cell%d" cell_id)

let master_end (sys : system) (cell_id : cell_id) =
  if List.mem cell_id sys.masters_active then begin
    sys.masters_active <-
      List.filter (fun id -> id <> cell_id) sys.masters_active;
    note_phase sys ~cell:cell_id
      (Printf.sprintf "recovery.master_end.cell%d" cell_id)
  end
