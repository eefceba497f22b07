(* Tests for the FLASH machine model: firewall semantics, memory fault
   model, SIPS, CPU occupancy, disk latencies. *)

let cfg = Flash.Config.small

let with_machine f =
  let eng = Sim.Engine.create () in
  let m = Flash.Machine.create eng cfg in
  f eng m;
  Sim.Engine.run eng

let in_thread eng body = ignore (Sim.Engine.spawn eng body)

let page = cfg.Flash.Config.page_size

(* A pfn on node 1 (remote from proc 0). *)
let remote_pfn = cfg.Flash.Config.mem_pages_per_node

let test_addr_mapping () =
  Alcotest.(check int) "node of pfn 0" 0 (Flash.Addr.node_of_pfn cfg 0);
  Alcotest.(check int) "node of remote pfn" 1
    (Flash.Addr.node_of_pfn cfg remote_pfn);
  Alcotest.(check int) "local index" 0 (Flash.Addr.local_index cfg remote_pfn);
  Alcotest.(check int) "roundtrip" 17
    (Flash.Addr.pfn_of_addr cfg (Flash.Addr.addr_of_pfn cfg 17))

let test_firewall_local_only () =
  let fw = Flash.Firewall.create cfg in
  (* Processor 0 cannot change bits for node 1's memory. *)
  Alcotest.check_raises "remote change rejected"
    Flash.Firewall.Not_local_processor (fun () ->
      Flash.Firewall.grant fw ~by:0 ~pfn:remote_pfn ~proc:0);
  Flash.Firewall.grant fw ~by:1 ~pfn:remote_pfn ~proc:0;
  Alcotest.(check bool) "granted" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:0)

let test_firewall_grant_revoke () =
  let fw = Flash.Firewall.create cfg in
  Flash.Firewall.grant_many fw ~by:1 ~pfn:remote_pfn [ 0; 1 ];
  Alcotest.(check bool) "proc0" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:0);
  Alcotest.(check bool) "proc1" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:1);
  Alcotest.(check int) "counted as remotely writable" 1
    (Flash.Firewall.remote_writable_pages fw ~node:1);
  Flash.Firewall.revoke_all_remote fw ~by:1 ~pfn:remote_pfn;
  Alcotest.(check bool) "proc0 revoked" false
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:0);
  Alcotest.(check bool) "local kept" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:1);
  Alcotest.(check int) "no longer remotely writable" 0
    (Flash.Firewall.remote_writable_pages fw ~node:1)

let test_config_large_machines () =
  (* The permission vector used to be a single 64-bit word per page, so
     any config past 64 processors either aliased bit_of_proc (proc land
     63) or was rejected outright. The multi-word vectors lift the cap to
     [Config.max_nodes]; what must now hold is that grants past processor
     63 never alias a low processor's bit. *)
  let big =
    { cfg with Flash.Config.nodes = 65; mem_pages_per_node = 8 }
  in
  let fw = Flash.Firewall.create big in
  let pfn64 = 64 * big.Flash.Config.mem_pages_per_node in
  (* Proc 64 would have aliased proc 0 under the old masking. *)
  Flash.Firewall.grant fw ~by:64 ~pfn:pfn64 ~proc:64;
  Alcotest.(check bool) "proc 64 granted" true
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:64);
  Alcotest.(check bool) "proc 0 not aliased" false
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:0);
  Flash.Firewall.grant fw ~by:64 ~pfn:pfn64 ~proc:1;
  Flash.Firewall.revoke fw ~by:64 ~pfn:pfn64 ~proc:64;
  Alcotest.(check bool) "proc 64 revoked" false
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:64);
  Alcotest.(check bool) "proc 1 grant survives" true
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:1);
  (* The cap is now the sparse-representation bound, not a word size. *)
  let too_big =
    { cfg with Flash.Config.nodes = Flash.Config.max_nodes + 1 }
  in
  (match Flash.Firewall.create too_big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument past max_nodes");
  (* Geometry validation: the swap area must fit inside the disk. *)
  (match
     Flash.Config.validate
       { cfg with Flash.Config.swap_blocks = cfg.Flash.Config.disk_blocks }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for swap covering disk")

let test_firewall_pages_writable_by_mask () =
  let fw = Flash.Firewall.create cfg in
  Flash.Firewall.grant fw ~by:1 ~pfn:remote_pfn ~proc:0;
  Flash.Firewall.grant fw ~by:1 ~pfn:(remote_pfn + 5) ~proc:0;
  Flash.Firewall.grant fw ~by:0 ~pfn:3 ~proc:1;
  let mask = Flash.Firewall.proc_mask [ 0 ] in
  Alcotest.(check (list int)) "masked scan of node 1"
    [ remote_pfn; remote_pfn + 5 ]
    (Flash.Firewall.pages_writable_by_mask fw ~node:1 ~mask);
  (* Node 0's own-processor bits don't match a mask of other procs. *)
  Alcotest.(check (list int)) "node 0 has no pages writable by proc 0" []
    (Flash.Firewall.pages_writable_by_mask fw ~node:0 ~mask);
  Alcotest.(check (list int)) "combined mask matches per-proc scans"
    (Flash.Firewall.writable_by fw ~proc:0
    @ Flash.Firewall.writable_by fw ~proc:1
    |> List.sort_uniq compare)
    (List.concat_map
       (fun node ->
         Flash.Firewall.pages_writable_by_mask fw ~node
           ~mask:(Flash.Firewall.proc_mask [ 0; 1 ]))
       [ 0; 1 ])

let test_firewall_writable_by () =
  let fw = Flash.Firewall.create cfg in
  Flash.Firewall.grant fw ~by:1 ~pfn:remote_pfn ~proc:0;
  Flash.Firewall.grant fw ~by:1 ~pfn:(remote_pfn + 3) ~proc:0;
  Alcotest.(check (list int)) "writable_by finds both"
    [ remote_pfn; remote_pfn + 3 ]
    (Flash.Firewall.writable_by fw ~proc:0)

let test_memory_write_requires_firewall () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          let addr = Flash.Addr.addr_of_pfn cfg remote_pfn in
          (* Proc 0 writing to node 1's memory without permission: denied. *)
          (try
             Flash.Memory.write eng mem ~by:0 addr (Bytes.of_string "hi");
             Alcotest.fail "expected firewall bus error"
           with Flash.Memory.Bus_error { cause = Firewall_denied; _ } -> ());
          (* After a grant by the local processor it succeeds. *)
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:1 ~pfn:remote_pfn
            ~proc:0;
          Flash.Memory.write eng mem ~by:0 addr (Bytes.of_string "hi");
          Alcotest.(check string) "data written" "hi"
            (Bytes.to_string (Flash.Memory.peek mem addr 2))))

let test_memory_local_write_allowed () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          (* A processor always starts without permission even locally;
             grant to self first (the kernel does this at boot). *)
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:0 ~pfn:0 ~proc:0;
          Flash.Memory.write eng mem ~by:0 0 (Bytes.of_string "x");
          Alcotest.(check string) "local write lands" "x"
            (Bytes.to_string (Flash.Memory.peek mem 0 1))))

let test_memory_failed_node_bus_error () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Machine.fail_node m 1;
          let addr = Flash.Addr.addr_of_pfn cfg remote_pfn in
          try
            ignore (Flash.Memory.read eng mem ~by:0 addr 8);
            Alcotest.fail "expected bus error"
          with Flash.Memory.Bus_error { cause = Node_failed; _ } -> ()))

let test_memory_cutoff () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Machine.cutoff_node m 1;
          let addr = Flash.Addr.addr_of_pfn cfg remote_pfn in
          (* Remote access refused... *)
          (try
             ignore (Flash.Memory.read eng mem ~by:0 addr 8);
             Alcotest.fail "expected cutoff bus error"
           with Flash.Memory.Bus_error { cause = Cutoff; _ } -> ());
          (* ...but the local processor still reaches its own memory. *)
          ignore (Flash.Memory.read eng mem ~by:1 addr 8)))

let test_memory_read_latency () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          let t0 = Sim.Engine.time () in
          ignore (Flash.Memory.read eng mem ~by:0 0 8);
          let dt = Int64.sub (Sim.Engine.time ()) t0 in
          (* One cache line: one 700 ns miss. *)
          Alcotest.(check int64) "one-line read costs one miss" 700L dt))

(* [read_into] stores exactly what [read] returns, at the offset, with
   never-written pages as zeros over whatever the buffer held, and costs
   the same latency. *)
let test_memory_read_into_matches_read () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Memory.poke mem 0 (Bytes.make page 'a');
          let addr = page - 100 and len = 300 in
          let t0 = Sim.Engine.time () in
          let want = Flash.Memory.read eng mem ~by:0 addr len in
          let t1 = Sim.Engine.time () in
          let buf = Bytes.make 400 'x' in
          Flash.Memory.read_into eng mem ~by:0 addr len buf ~dst_off:50;
          let t2 = Sim.Engine.time () in
          Alcotest.(check string) "same bytes at the offset"
            (Bytes.to_string want) (Bytes.sub_string buf 50 len);
          Alcotest.(check string) "unwritten page reads as zeros"
            (String.make 200 '\000') (Bytes.sub_string buf 150 200);
          Alcotest.(check string) "rest of the buffer untouched"
            (String.make 100 'x')
            (Bytes.sub_string buf 0 50 ^ Bytes.sub_string buf 350 50);
          Alcotest.(check int64) "same latency" (Int64.sub t1 t0)
            (Int64.sub t2 t1);
          Alcotest.check_raises "destination too small"
            (Invalid_argument "Memory.read_into: destination range out of bounds")
            (fun () -> Flash.Memory.read_into eng mem ~by:0 0 8 buf ~dst_off:395)))

let test_memory_write_latency_includes_firewall_check () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:0 ~pfn:0 ~proc:0;
          let t0 = Sim.Engine.time () in
          Flash.Memory.write eng mem ~by:0 0 (Bytes.make 8 'a');
          let dt = Int64.sub (Sim.Engine.time ()) t0 in
          Alcotest.(check int64) "miss + firewall check" 740L dt))

let test_wild_write_honours_firewall () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          ignore eng;
          let mem = Flash.Machine.memory m in
          let addr = Flash.Addr.addr_of_pfn cfg remote_pfn in
          (try
             Flash.Memory.poke_wild mem ~by:0 addr (Bytes.of_string "evil");
             Alcotest.fail "wild write should bounce off firewall"
           with Flash.Memory.Bus_error { cause = Firewall_denied; _ } -> ());
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:1 ~pfn:remote_pfn
            ~proc:0;
          Flash.Memory.poke_wild mem ~by:0 addr (Bytes.of_string "evil");
          Alcotest.(check string) "corruption landed" "evil"
            (Bytes.to_string (Flash.Memory.peek mem addr 4))))

let test_sips_roundtrip () =
  let got = ref None in
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          match Flash.Sips.receive sips ~node:1 ~kind:Flash.Sips.Request with
          | Some env -> got := Some env.Flash.Sips.src_proc
          | None -> ());
      in_thread eng (fun () ->
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:64 Flash.Sips.(Request |> fun _ -> Obj.magic 0)));
  ignore !got

let test_sips_latency_and_size () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      let received_at = ref 0L in
      in_thread eng (fun () ->
          match Flash.Sips.receive sips ~node:1 ~kind:Flash.Sips.Request with
          | Some _ -> received_at := Sim.Engine.time ()
          | None -> ());
      in_thread eng (fun () ->
          (try
             Flash.Sips.send sips ~from_proc:0 ~to_node:1
               ~kind:Flash.Sips.Request ~size:129 (Obj.magic 0)
           with Flash.Sips.Too_large _ -> ());
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:128 (Obj.magic 0)));
  ()

let test_sips_to_failed_node () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          Flash.Machine.fail_node m 1;
          try
            Flash.Sips.send sips ~from_proc:0 ~to_node:1
              ~kind:Flash.Sips.Request ~size:8 (Obj.magic 0);
            Alcotest.fail "send to failed node should raise"
          with Flash.Sips.Target_failed 1 -> ()))

let test_cpu_fifo () =
  with_machine (fun eng m ->
      let cpu = Flash.Machine.cpu m 0 in
      let finish = ref [] in
      for i = 1 to 3 do
        in_thread eng (fun () ->
            Flash.Cpu.use eng cpu 100L;
            finish := (i, Sim.Engine.time ()) :: !finish)
      done;
      in_thread eng (fun () ->
          Sim.Engine.delay 1000L;
          Alcotest.(check (list (pair int int64)))
            "FIFO service"
            [ (1, 100L); (2, 200L); (3, 300L) ]
            (List.rev !finish)))

let test_cpu_interrupt_steals () =
  with_machine (fun eng m ->
      let cpu = Flash.Machine.cpu m 0 in
      let done_at = ref 0L in
      in_thread eng (fun () ->
          Flash.Cpu.use eng cpu 100L;
          done_at := Sim.Engine.time ());
      in_thread eng (fun () ->
          Sim.Engine.delay 50L;
          Flash.Cpu.steal eng cpu 30L);
      in_thread eng (fun () ->
          Sim.Engine.delay 1000L;
          Alcotest.(check int64) "burst stretched by interrupt" 130L !done_at))

let test_cpu_halt () =
  with_machine (fun eng m ->
      let cpu = Flash.Machine.cpu m 0 in
      in_thread eng (fun () ->
          Flash.Cpu.halt cpu;
          try
            Flash.Cpu.use eng cpu 10L;
            Alcotest.fail "halted CPU should raise"
          with Flash.Cpu.Halted 0 -> ()))

let test_disk_sequential_faster () =
  with_machine (fun eng m ->
      let disk = Flash.Machine.disk m 0 in
      in_thread eng (fun () ->
          let t0 = Sim.Engine.time () in
          Flash.Disk.read eng disk ~block:10 ~bytes:4096;
          let first = Int64.sub (Sim.Engine.time ()) t0 in
          let t1 = Sim.Engine.time () in
          Flash.Disk.read eng disk ~block:11 ~bytes:4096;
          let second = Int64.sub (Sim.Engine.time ()) t1 in
          Alcotest.(check bool) "sequential access cheaper" true
            (Int64.compare second first < 0)))

let test_node_failure_listener () =
  with_machine (fun eng m ->
      let hit = ref (-1) in
      Flash.Machine.on_node_failure m (fun i -> hit := i);
      in_thread eng (fun () ->
          Flash.Machine.fail_node m 1;
          Alcotest.(check int) "listener told" 1 !hit;
          Alcotest.(check bool) "marked dead" false (Flash.Machine.node_alive m 1)))

let test_restore_node () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:1 ~pfn:remote_pfn
            ~proc:1;
          let addr = Flash.Addr.addr_of_pfn cfg remote_pfn in
          Flash.Memory.write eng mem ~by:1 addr (Bytes.of_string "z");
          Flash.Machine.fail_node m 1;
          Flash.Machine.restore_node m 1;
          Alcotest.(check bool) "alive again" true (Flash.Machine.node_alive m 1);
          Alcotest.(check string) "memory zeroed on reintegration" "\000"
            (Bytes.to_string (Flash.Memory.peek mem addr 1))))

let test_sips_degradation_deterministic () =
  (* A degradation window drops/duplicates/delays from its own seeded
     PRNG: two identical runs must do exactly the same damage, and the
     delivered-message count must balance sends - drops + dups. *)
  let sent = 60 in
  let run () =
    let eng = Sim.Engine.create () in
    let m = Flash.Machine.create eng cfg in
    let sips = Flash.Machine.sips m in
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Flash.Sips.degrade sips ~rng:(Sim.Prng.create 99)
             {
               Flash.Sips.deg_from = -1;
               deg_to = 1;
               from_ns = 0L;
               until_ns = 1_000_000_000L;
               drop_pct = 30;
               dup_pct = 25;
               delay_pct = 25;
               max_delay_ns = 10_000L;
             };
           for _ = 1 to sent do
             Flash.Sips.send sips ~from_proc:0 ~to_node:1
               ~kind:Flash.Sips.Request ~size:8 (Obj.magic 0);
             Sim.Engine.delay 10_000L
           done;
           Sim.Engine.delay 1_000_000L));
    Sim.Engine.run eng;
    ( Flash.Sips.drop_count sips,
      Flash.Sips.dup_count sips,
      Flash.Sips.delay_count sips,
      Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request )
  in
  let ((d, u, l, p) as a) = run () in
  Alcotest.(check bool) "drops happened" true (d > 0);
  Alcotest.(check bool) "dups happened" true (u > 0);
  Alcotest.(check bool) "delays happened" true (l > 0);
  Alcotest.(check int) "deliveries = sends - drops + dups" (sent - d + u) p;
  let b = run () in
  Alcotest.(check bool) "identical runs do identical damage" true (a = b)

let test_degradation_window_expires () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          Flash.Sips.degrade sips ~rng:(Sim.Prng.create 5)
            {
              Flash.Sips.deg_from = -1;
              deg_to = 1;
              from_ns = 0L;
              until_ns = 1_000L;
              drop_pct = 100;
              dup_pct = 0;
              delay_pct = 0;
              max_delay_ns = 0L;
            };
          Sim.Engine.delay 2_000L;
          (* Window over: traffic passes untouched. *)
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:8 (Obj.magic 0);
          Sim.Engine.delay 1_000_000L;
          Alcotest.(check int) "nothing dropped after expiry" 0
            (Flash.Sips.drop_count sips);
          Alcotest.(check int) "message delivered" 1
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request)))

(* Regression: envelopes queued before a node failure must not be replayed
   into the rebooted kernel — restore_node purges both receive queues. *)
let test_restore_purges_prefailure_envelopes () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:8 (Obj.magic 0);
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Reply
            ~size:8 (Obj.magic 0);
          (* Let both deliveries land in the (unread) receive queues. *)
          Sim.Engine.delay 1_000_000L;
          Alcotest.(check int) "request queued pre-failure" 1
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request);
          Flash.Machine.fail_node m 1;
          Flash.Machine.restore_node m 1;
          Alcotest.(check int) "request queue purged" 0
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request);
          Alcotest.(check int) "reply queue purged" 0
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Reply);
          Alcotest.(check int) "purged envelopes counted" 2
            (Flash.Sips.stale_purged_count sips)))

let qcheck_firewall_vector_roundtrip =
  QCheck.Test.make ~name:"firewall grant/revoke tracks exact processor sets"
    ~count:200
    QCheck.(pair (int_bound 1) (list_of_size Gen.(0 -- 6) (int_bound 1)))
    (fun (pfn_node, grants) ->
      let fw = Flash.Firewall.create cfg in
      let pfn = pfn_node * cfg.Flash.Config.mem_pages_per_node in
      let by = pfn_node in
      List.iter (fun p -> Flash.Firewall.grant fw ~by ~pfn ~proc:p) grants;
      List.for_all
        (fun p ->
          Flash.Firewall.allowed fw ~pfn ~proc:p = List.mem p grants
          || List.mem p grants)
        [ 0; 1 ])

let qcheck_memory_roundtrip =
  QCheck.Test.make ~name:"memory write/read roundtrip preserves bytes"
    ~count:100
    QCheck.(pair (int_bound 200) string)
    (fun (off, s) ->
      QCheck.assume (String.length s > 0 && String.length s <= 256);
      let eng = Sim.Engine.create () in
      let m = Flash.Machine.create eng cfg in
      let ok = ref false in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             let mem = Flash.Machine.memory m in
             let fw = Flash.Machine.firewall m in
             Flash.Firewall.grant fw ~by:0 ~pfn:0 ~proc:0;
             Flash.Firewall.grant fw ~by:0 ~pfn:1 ~proc:0;
             Flash.Memory.write eng mem ~by:0 off (Bytes.of_string s);
             let back = Flash.Memory.read eng mem ~by:0 off (String.length s) in
             ok := Bytes.to_string back = s));
      Sim.Engine.run eng;
      !ok)

let suite =
  [
    Alcotest.test_case "address mapping" `Quick test_addr_mapping;
    Alcotest.test_case "firewall changes are local-processor-only" `Quick
      test_firewall_local_only;
    Alcotest.test_case "firewall grant/revoke" `Quick test_firewall_grant_revoke;
    Alcotest.test_case "large-machine configs and geometry validated" `Quick
      test_config_large_machines;
    Alcotest.test_case "firewall masked page scan" `Quick
      test_firewall_pages_writable_by_mask;
    Alcotest.test_case "firewall writable_by scan" `Quick
      test_firewall_writable_by;
    Alcotest.test_case "write requires firewall permission" `Quick
      test_memory_write_requires_firewall;
    Alcotest.test_case "local write after self-grant" `Quick
      test_memory_local_write_allowed;
    Alcotest.test_case "failed node gives bus errors" `Quick
      test_memory_failed_node_bus_error;
    Alcotest.test_case "memory cutoff refuses remote only" `Quick
      test_memory_cutoff;
    Alcotest.test_case "read latency = one miss per line" `Quick
      test_memory_read_latency;
    Alcotest.test_case "memory read_into matches read" `Quick
      test_memory_read_into_matches_read;
    Alcotest.test_case "write latency includes firewall check" `Quick
      test_memory_write_latency_includes_firewall_check;
    Alcotest.test_case "wild writes bounce off the firewall" `Quick
      test_wild_write_honours_firewall;
    Alcotest.test_case "sips roundtrip" `Quick test_sips_roundtrip;
    Alcotest.test_case "sips size cap" `Quick test_sips_latency_and_size;
    Alcotest.test_case "sips to failed node raises" `Quick
      test_sips_to_failed_node;
    Alcotest.test_case "cpu FIFO occupancy" `Quick test_cpu_fifo;
    Alcotest.test_case "cpu interrupt stealing stretches bursts" `Quick
      test_cpu_interrupt_steals;
    Alcotest.test_case "halted cpu raises" `Quick test_cpu_halt;
    Alcotest.test_case "disk sequential faster than random" `Quick
      test_disk_sequential_faster;
    Alcotest.test_case "node failure listener" `Quick test_node_failure_listener;
    Alcotest.test_case "restore node zeroes memory" `Quick test_restore_node;
    Alcotest.test_case "sips degradation is deterministic" `Quick
      test_sips_degradation_deterministic;
    Alcotest.test_case "sips degradation window expires" `Quick
      test_degradation_window_expires;
    Alcotest.test_case "restore purges pre-failure envelopes" `Quick
      test_restore_purges_prefailure_envelopes;
    QCheck_alcotest.to_alcotest qcheck_firewall_vector_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_memory_roundtrip;
  ]
