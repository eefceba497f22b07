(* Integration tests for the Hive kernel: memory sharing, RPC, processes,
   fault containment, recovery. *)

let small_params = Hive.Params.default

and () = ()

(* Boot a fresh system for each test. *)
let with_sys ?(ncells = 2) ?(nodes = 2) ?(oracle = false) ?(wax = false)
    ?(params = Hive.Params.default) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells ~oracle ~wax eng in
  f eng sys

let run_proc sys ~on ~name body =
  let c = sys.Hive.Types.cells.(on) in
  Hive.Process.spawn sys c ~name (fun s p -> body s p)

let finish sys procs =
  let ok =
    Hive.System.run_until_processes_done sys ~deadline:60_000_000_000L procs
  in
  Alcotest.(check bool) "workload completed in time" true ok

let exit_code (p : Hive.Types.process) =
  match p.Hive.Types.exit_code with Some c -> c | None -> -1

let test_boot () =
  with_sys (fun _eng sys ->
      Alcotest.(check int) "two cells" 2 (Array.length sys.Hive.Types.cells);
      Array.iter
        (fun (c : Hive.Types.cell) ->
          Alcotest.(check bool) "cell up" true (Hive.Types.cell_alive c);
          Alcotest.(check bool) "has free frames" true
            (c.Hive.Types.free_frame_count > 100))
        sys.Hive.Types.cells)

let test_local_file_io () =
  with_sys (fun _eng sys ->
      let result = ref "" in
      let p =
        run_proc sys ~on:0 ~name:"io" (fun sys p ->
            (* "/tmp/..." is homed on cell 0, so this is all local. *)
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "hello hive")
                "/tmp/local.txt"
            in
            Hive.Syscall.close sys p ~fd;
            let fd = Hive.Syscall.openf sys p "/tmp/local.txt" in
            result := Bytes.to_string (Hive.Syscall.read sys p ~fd ~len:10);
            Hive.Syscall.close sys p ~fd)
      in
      finish sys [ p ];
      Alcotest.(check int) "clean exit" 0 (exit_code p);
      Alcotest.(check string) "file content" "hello hive" !result)

let test_remote_file_io () =
  with_sys (fun _eng sys ->
      let result = ref "" in
      (* Writer on cell 0 creates the /tmp file (homed on cell 0); reader on
         cell 1 reads it through export/import. *)
      let writer =
        run_proc sys ~on:0 ~name:"writer" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "cross-cell!")
                "/tmp/shared.txt"
            in
            Hive.Syscall.close sys p ~fd)
      in
      finish sys [ writer ];
      let reader =
        run_proc sys ~on:1 ~name:"reader" (fun sys p ->
            let fd = Hive.Syscall.openf sys p "/tmp/shared.txt" in
            result := Bytes.to_string (Hive.Syscall.read sys p ~fd ~len:11);
            Hive.Syscall.close sys p ~fd)
      in
      finish sys [ reader ];
      Alcotest.(check int) "reader exit" 0 (exit_code reader);
      Alcotest.(check string) "read across cells" "cross-cell!" !result;
      (* The reader must have imported pages from cell 0. *)
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check bool) "imports happened" true
        (Sim.Stats.value c1.Hive.Types.counters "share.imports" > 0))

let test_remote_write_then_local_read () =
  with_sys (fun _eng sys ->
      (* Cell 1 writes a /tmp file (homed on cell 0) through imported
         writable pages, then a cell-0 process reads it back. *)
      let writer =
        run_proc sys ~on:1 ~name:"remote-writer" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:Bytes.empty "/tmp/rw.txt"
            in
            ignore (Hive.Syscall.write sys p ~fd (Bytes.of_string "written remotely"));
            Hive.Syscall.close sys p ~fd)
      in
      finish sys [ writer ];
      Alcotest.(check int) "writer exit" 0 (exit_code writer);
      let result = ref "" in
      let reader =
        run_proc sys ~on:0 ~name:"reader" (fun sys p ->
            let fd = Hive.Syscall.openf sys p "/tmp/rw.txt" in
            result := Bytes.to_string (Hive.Syscall.read sys p ~fd ~len:16))
      in
      finish sys [ reader ];
      Alcotest.(check string) "data visible at home" "written remotely" !result)

let test_fork_local_and_wait () =
  with_sys (fun _eng sys ->
      let child_ran = ref false in
      let p =
        run_proc sys ~on:0 ~name:"parent" (fun sys p ->
            let child =
              Hive.Syscall.fork sys p ~name:"child" (fun sys c ->
                  Hive.Syscall.compute sys c 100_000L;
                  child_ran := true)
            in
            let code = Hive.Syscall.wait sys p child in
            assert (code = 0))
      in
      finish sys [ p ];
      Alcotest.(check bool) "child ran" true !child_ran;
      Alcotest.(check int) "parent exit" 0 (exit_code p))

let test_fork_remote () =
  with_sys (fun _eng sys ->
      let child_cell = ref (-1) in
      let p =
        run_proc sys ~on:0 ~name:"parent" (fun sys p ->
            let child =
              Hive.Syscall.fork sys p ~on_cell:1 ~name:"child" (fun sys c ->
                  child_cell := Hive.Syscall.getcell c;
                  Hive.Syscall.compute sys c 50_000L)
            in
            ignore (Hive.Syscall.wait sys p child))
      in
      finish sys [ p ];
      Alcotest.(check int) "child ran on cell 1" 1 !child_cell)

let test_anon_memory_and_cow () =
  with_sys (fun _eng sys ->
      let parent_sees = ref 0L and child_sees = ref 0L in
      let p =
        run_proc sys ~on:0 ~name:"cowtest" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:4 in
            let vp = r.Hive.Types.start_page in
            (* Parent writes 42 before forking. *)
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 42L;
            let child =
              Hive.Syscall.fork sys p ~name:"child" (fun sys c ->
                  (* Child reads the pre-fork value through the COW tree,
                     then writes its own copy. *)
                  child_sees := Hive.Syscall.read_word sys c ~vpage:vp ~offset:0;
                  Hive.Syscall.write_word sys c ~vpage:vp ~offset:0 99L)
            in
            ignore (Hive.Syscall.wait sys p child);
            (* The child's write must not be visible to the parent. *)
            parent_sees := Hive.Syscall.read_word sys p ~vpage:vp ~offset:0)
      in
      finish sys [ p ];
      Alcotest.(check int64) "child saw pre-fork value" 42L !child_sees;
      Alcotest.(check int64) "parent unaffected by child write" 42L !parent_sees)

let test_remote_fork_cow_across_cells () =
  with_sys (fun _eng sys ->
      let child_sees = ref 0L in
      let p =
        run_proc sys ~on:0 ~name:"spanning" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:2 in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 7L;
            let child =
              Hive.Syscall.fork sys p ~on_cell:1 ~name:"remote-child"
                (fun sys c ->
                  (* The COW search walks a tree whose interior node lives
                     on cell 0, from cell 1, using careful references. *)
                  child_sees := Hive.Syscall.read_word sys c ~vpage:vp ~offset:0)
            in
            ignore (Hive.Syscall.wait sys p child))
      in
      finish sys [ p ];
      Alcotest.(check int64) "remote child read pre-fork page" 7L !child_sees)

let test_rpc_timeout_reports_hint () =
  with_sys (fun _eng sys ->
      (* Panic cell 1's kernel silently, then RPC it: the call must time
         out (or bounce) rather than hang, and a hint must be recorded. *)
      let p =
        run_proc sys ~on:0 ~name:"caller" (fun sys p ->
            ignore p;
            Hive.Panic.panic sys sys.Hive.Types.cells.(1) "test";
            let c0 = sys.Hive.Types.cells.(0) in
            match
              Hive.Rpc.call sys ~from:c0 ~target:1 ~op:Hive.Agreement.ping_op
                ~timeout_ns:1_000_000L Hive.Types.P_unit
            with
            | Ok _ -> failwith "expected failure"
            | Error Hive.Types.EHOSTDOWN -> ()
            | Error _ -> failwith "unexpected errno")
      in
      finish sys [ p ];
      Alcotest.(check int) "caller ok" 0 (exit_code p))

let test_hw_failure_detected_and_recovered () =
  (* Keep the failed cell down: this test checks the contained state
     itself, not the master's automatic repair. *)
  with_sys ~ncells:2 ~nodes:2
    ~params:{ Hive.Params.default with Hive.Params.auto_reintegrate = false }
    (fun eng sys ->
      (* Let things settle, then kill node 1 (= cell 1). *)
      Sim.Engine.run ~until:50_000_000L eng;
      let t_fault = Sim.Engine.now eng in
      Hive.System.inject_node_failure sys 1;
      let ok =
        Hive.System.run_until sys ~deadline:(Int64.add t_fault 2_000_000_000L)
          (fun () ->
            (not sys.Hive.Types.recovery_in_progress)
            && sys.Hive.Types.recovery_events <> [])
      in
      Alcotest.(check bool) "recovery ran" true ok;
      (* Containment: cell 0 is alive, cell 1 is down. *)
      Alcotest.(check bool) "cell 0 alive" true
        (Hive.Types.cell_alive sys.Hive.Types.cells.(0));
      Alcotest.(check bool) "cell 1 down" false
        (Hive.Types.cell_alive sys.Hive.Types.cells.(1));
      (* Detection latency is bounded by a few clock ticks. *)
      (match Hive.System.detection_latency_ns sys ~t_fault with
      | Some ns ->
        let ms = Int64.to_float ns /. 1e6 in
        Alcotest.(check bool)
          (Printf.sprintf "detection latency %.1f ms reasonable" ms)
          true
          (ms > 0.0 && ms < 100.0)
      | None -> Alcotest.fail "no recovery events");
      (* The survivor still works: run a process doing local I/O. *)
      let p =
        run_proc sys ~on:0 ~name:"survivor" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "alive")
                "/tmp/after.txt"
            in
            Hive.Syscall.close sys p ~fd)
      in
      finish sys [ p ];
      Alcotest.(check int) "survivor works" 0 (exit_code p))

let test_preemptive_discard_gives_eio () =
  with_sys ~ncells:2 ~nodes:2 (fun eng sys ->
      (* A cell-1 process writes a /tmp file (home cell 0) but the data
         stays dirty in cell 0's cache with cell 1 holding write access.
         Then cell 1 dies: cell 0 must discard the page (writable by the
         failed cell) and bump the file generation, so the old descriptor
         gets EIO while a fresh open reads stale-but-stable disk data. *)
      let got_eio = ref false in
      let fd_holder =
        run_proc sys ~on:0 ~name:"holder" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "stable data")
                "/tmp/discard.txt"
            in
            Hive.Syscall.sync sys p;
            (* Give cell 1 write access by letting it write the file. *)
            let writer_done = Sim.Ivar.create () in
            let _writer =
              Hive.Syscall.fork sys p ~on_cell:1 ~name:"dirtier" (fun sys c ->
                  let wfd = Hive.Syscall.openf sys c ~writable:true "/tmp/discard.txt" in
                  ignore
                    (Hive.Syscall.pwrite sys c ~fd:wfd ~pos:0
                       (Bytes.of_string "dirty!!"));
                  Sim.Ivar.fill sys.Hive.Types.eng writer_done ());
            in
            ignore (Sim.Ivar.read sys.Hive.Types.eng writer_done);
            (* Kill cell 1 while the page is remotely writable. *)
            Hive.System.inject_node_failure sys 1;
            (* Wait for recovery to finish. *)
            Sim.Engine.delay 500_000_000L;
            (* Our fd was opened before the failure: EIO expected. *)
            (try ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:5)
             with Hive.Types.Syscall_error Hive.Types.EIO -> got_eio := true);
            (* A fresh open sees the stable on-disk contents. *)
            let fd2 = Hive.Syscall.openf sys p "/tmp/discard.txt" in
            let back = Hive.Syscall.pread sys p ~fd:fd2 ~pos:0 ~len:11 in
            assert (Bytes.to_string back = "stable data"))
      in
      ignore eng;
      finish sys [ fd_holder ];
      Alcotest.(check bool) "EIO on pre-failure descriptor" true !got_eio;
      Alcotest.(check int) "holder exit ok" 0 (exit_code fd_holder))

let test_wild_write_blocked_by_firewall () =
  with_sys (fun _eng sys ->
      (* A faulty cell-1 kernel tries to scribble on cell 0's kernel
         memory: the firewall must refuse. *)
      let p =
        run_proc sys ~on:1 ~name:"faulty" (fun sys p ->
            ignore p;
            let c0 = sys.Hive.Types.cells.(0) in
            let target = c0.Hive.Types.clock_addr in
            match
              Flash.Memory.poke_wild
                (Flash.Machine.memory sys.Hive.Types.machine)
                ~by:1 target (Bytes.make 8 '\xff')
            with
            | () -> failwith "wild write got through!"
            | exception Flash.Memory.Bus_error _ -> ())
      in
      finish sys [ p ];
      Alcotest.(check int) "wild write blocked" 0 (exit_code p))

let test_cow_corruption_contained () =
  with_sys ~ncells:2 ~nodes:2 (fun eng sys ->
      (* Corrupt a COW node on cell 0, then have cell 0's process walk it:
         cell 0 must panic (kernel corruption) and cell 1 must survive. *)
      let rng = Sim.Prng.create 7 in
      let p =
        run_proc sys ~on:0 ~name:"victim" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:2 in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 1L;
            (* Fork so the leaf has a parent worth walking. *)
            let child =
              Hive.Syscall.fork sys p ~name:"c" (fun sys c ->
                  Hive.Syscall.compute sys c 10_000L)
            in
            ignore (Hive.Syscall.wait sys p child);
            (* Corrupt our own region's leaf parent pointer. *)
            ignore
              (Hive.System.corrupt_address_map sys p Hive.System.Random_address rng);
            (* Next fault on a NOT-yet-materialized page walks the tree and
               trips over the corruption. *)
            ignore (Hive.Syscall.read_word sys p ~vpage:(vp + 1) ~offset:0))
      in
      ignore p;
      (* Run until recovery completes or deadline. *)
      let _ =
        Hive.System.run_until sys ~deadline:5_000_000_000L (fun () ->
            sys.Hive.Types.recovery_events <> []
            && not sys.Hive.Types.recovery_in_progress)
      in
      ignore eng;
      Alcotest.(check bool) "cell 1 survived" true
        (Hive.Types.cell_alive sys.Hive.Types.cells.(1)))

let test_careful_ref_defends_remote_corruption () =
  with_sys ~ncells:2 ~nodes:2 (fun _eng sys ->
      (* Cell 1 walks a corrupted COW node owned by cell 0 via the careful
         reference protocol: it must defend, not crash. *)
      let defended = ref false in
      let p =
        run_proc sys ~on:1 ~name:"walker" (fun sys p ->
            ignore p;
            let c0 = sys.Hive.Types.cells.(0) and c1 = sys.Hive.Types.cells.(1) in
            (* Build a real node on cell 0, then corrupt its tag. *)
            let node = Hive.Cow.create_root sys c0 () in
            Flash.Memory.poke
              (Flash.Machine.memory sys.Hive.Types.machine)
              node.Hive.Types.cow_addr (Bytes.make 8 '\x00');
            match Hive.Cow.lookup sys c1 node ~page:0 with
            | Hive.Cow.Defended _ -> defended := true
            | _ -> ())
      in
      finish sys [ p ];
      Alcotest.(check bool) "careful reference defended" true !defended;
      Alcotest.(check bool) "reader cell alive" true
        (Hive.Types.cell_alive sys.Hive.Types.cells.(1)))

let test_borrow_frames () =
  with_sys (fun _eng sys ->
      let p =
        run_proc sys ~on:0 ~name:"borrower" (fun sys p ->
            ignore p;
            let c0 = sys.Hive.Types.cells.(0) in
            let before = Hive.Page_alloc.free_count c0 in
            let got = Hive.Page_alloc.borrow_from sys c0 ~home:1 ~count:4 in
            assert (List.length got = 4);
            assert (Hive.Page_alloc.free_count c0 = before + 4);
            (* All borrowed frames live on cell 1's nodes. *)
            List.iter
              (fun pfn ->
                assert (Flash.Addr.node_of_pfn sys.Hive.Types.mcfg pfn = 1))
              got;
            (* Return one. *)
            let pf = Hashtbl.find c0.Hive.Types.frames (List.hd got) in
            Hive.Page_alloc.return_frame sys c0 pf)
      in
      finish sys [ p ];
      Alcotest.(check int) "borrow/return ok" 0 (exit_code p))

(* The free-frame pool against the plain list it replaces: [push_free]
   prepends, [push_free_last] appends, [take_free] pops the head,
   [remove_free] drops every occurrence. Random operation sequences over
   a two-node cell (node = pfn / 100, some pfns on foreign nodes) must
   agree on every result, on [free_frame_count], on membership, on the
   first local frame and on the final allocation order. *)
type pool_op =
  | Push of int
  | Push_last of int
  | Take
  | Remove of int
  | Mem of int
  | First_local

let qcheck_free_pool_matches_list =
  let pfn = QCheck.Gen.int_bound 399 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun p -> Push p) pfn);
          (2, map (fun p -> Push_last p) pfn);
          (5, return Take);
          (2, map (fun p -> Remove p) pfn);
          (2, map (fun p -> Mem p) pfn);
          (1, return First_local);
        ])
  in
  QCheck.Test.make ~name:"free-frame pool matches its list model" ~count:300
    QCheck.(
      make
        Gen.(
          triple (int_bound 99) (int_bound 99) (list_size (0 -- 300) op)))
    (fun (skip0, skip1, ops) ->
      let c = Hive.Cell.make Flash.Config.small ~id:0 ~nodes:[ 0; 1 ] in
      let node_of_pfn p = p / 100 in
      let ranges = [ (skip0, 99); (100 + skip1, 199) ] in
      Hive.Types.reset_free c ranges;
      let model =
        ref
          (List.concat_map
             (fun (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i))
             ranges)
      in
      let local p = List.mem (node_of_pfn p) [ 0; 1 ] in
      let step = function
        | Push p ->
          Hive.Types.push_free c p;
          model := p :: !model;
          true
        | Push_last p ->
          Hive.Types.push_free_last c p;
          model := !model @ [ p ];
          true
        | Take ->
          let want =
            match !model with
            | p :: rest ->
              model := rest;
              Some p
            | [] -> None
          in
          Hive.Types.take_free c = want
        | Remove p ->
          Hive.Types.remove_free c p;
          model := List.filter (fun q -> q <> p) !model;
          true
        | Mem p -> Hive.Types.mem_free c p = List.mem p !model
        | First_local ->
          Hive.Types.first_local_free c ~node_of_pfn
          = List.find_opt local !model
      in
      List.for_all
        (fun o ->
          step o && c.Hive.Types.free_frame_count = List.length !model)
        ops
      &&
      let rec drain acc =
        match Hive.Types.take_free c with
        | Some p -> drain (p :: acc)
        | None -> List.rev acc
      in
      drain [] = !model && c.Hive.Types.free_frame_count = 0)

let suite =
  [
    Alcotest.test_case "boot" `Quick test_boot;
    Alcotest.test_case "local file io" `Quick test_local_file_io;
    Alcotest.test_case "remote file io (export/import)" `Quick
      test_remote_file_io;
    Alcotest.test_case "remote write visible at home" `Quick
      test_remote_write_then_local_read;
    Alcotest.test_case "fork local + wait" `Quick test_fork_local_and_wait;
    Alcotest.test_case "fork remote" `Quick test_fork_remote;
    Alcotest.test_case "anon memory + COW semantics" `Quick
      test_anon_memory_and_cow;
    Alcotest.test_case "COW across cells (careful ref walk)" `Quick
      test_remote_fork_cow_across_cells;
    Alcotest.test_case "rpc timeout reports failure" `Quick
      test_rpc_timeout_reports_hint;
    Alcotest.test_case "hw failure detected, contained, recovered" `Quick
      test_hw_failure_detected_and_recovered;
    Alcotest.test_case "preemptive discard + generation EIO" `Quick
      test_preemptive_discard_gives_eio;
    Alcotest.test_case "wild write blocked by firewall" `Quick
      test_wild_write_blocked_by_firewall;
    Alcotest.test_case "local COW corruption contained to cell" `Quick
      test_cow_corruption_contained;
    Alcotest.test_case "careful ref defends remote corruption" `Quick
      test_careful_ref_defends_remote_corruption;
    Alcotest.test_case "physical-level borrow/return" `Quick test_borrow_frames;
    QCheck_alcotest.to_alcotest qcheck_free_pool_matches_list;
  ]
