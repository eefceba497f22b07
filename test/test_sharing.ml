(* Memory-sharing corner cases: the logical/physical interactions of
   Section 5.5 and the Wax-directed clock hand. *)

let with_sys ?(ncells = 2) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells ~wax:false eng in
  f eng sys

let in_thread sys body =
  let eng = sys.Hive.Types.eng in
  let thr = Sim.Engine.spawn eng ~name:"t" body in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
  Alcotest.(check bool) "thread done" true thr.Sim.Engine.dead

(* A frame simultaneously loaned out and imported back into its memory
   home (the CC-NUMA placement optimization): the memory home's pfdat is
   reused, not shadowed by an extended pfdat. *)
let test_loaned_and_reimported () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let c1 = sys.Hive.Types.cells.(1) in
          (* Cell 0 borrows a frame from cell 1 (cell 1 = memory home). *)
          let pfns = Hive.Page_alloc.borrow_from sys c0 ~home:1 ~count:1 in
          let pfn = List.hd pfns in
          let home_pf = Hashtbl.find c1.Hive.Types.frames pfn in
          Alcotest.(check bool) "loan recorded at memory home" true
            (home_pf.Hive.Types.loaned_to = Some 0);
          (* Cell 0 (data home) caches a logical page in the borrowed
             frame and exports it back to cell 1. *)
          let lid =
            { Hive.Types.tag =
                Hive.Types.File_obj { Hive.Types.home = 0; ino = 777 };
              page = 0 }
          in
          let data_pf = Hashtbl.find c0.Hive.Types.frames pfn in
          Hive.Pfdat.insert c0 lid data_pf;
          Hive.Share.export sys c0 data_pf ~client:1 ~writable:false;
          (* Cell 1 imports the page that physically lives in its own
             loaned frame: the preexisting pfdat must be reused. *)
          let imp =
            Hive.Share.import sys c1 ~pfn ~data_home:0 ~lid ~gen:0
              ~writable:false
          in
          Alcotest.(check bool) "reused the loaned pfdat" true (imp == home_pf);
          Alcotest.(check bool) "logical level bound" true
            (imp.Hive.Types.imported_from = Some 0);
          Alcotest.(check bool) "physical level intact" true
            (imp.Hive.Types.loaned_to = Some 0);
          Alcotest.(check int) "reimport counted" 1
            (Sim.Stats.value c1.Hive.Types.counters "share.reimports");
          (* Releasing the import keeps the loan. *)
          Hive.Share.release sys c1 imp;
          Alcotest.(check bool) "import dropped" true
            (imp.Hive.Types.imported_from = None);
          Alcotest.(check bool) "loan survives release" true
            (imp.Hive.Types.loaned_to = Some 0);
          Alcotest.(check bool) "frame record survives" true
            (Hashtbl.mem c1.Hive.Types.frames pfn)))

let test_clock_hand_returns_borrowed_frames () =
  with_sys (fun eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let c1 = sys.Hive.Types.cells.(1) in
          let loans_before = List.length c1.Hive.Types.reserved_loans in
          ignore (Hive.Page_alloc.borrow_from sys c0 ~home:1 ~count:4);
          Alcotest.(check int) "loans outstanding" (loans_before + 4)
            (List.length c1.Hive.Types.reserved_loans);
          (* Wax marks cell 1 as pressured; the clock hand must return the
             idle borrowed frames on its next sweep. *)
          c0.Hive.Types.clock_hand_targets <- [ 1 ]);
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 600_000_000L) eng;
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check int) "loans returned by the clock hand" 0
        (List.length c1.Hive.Types.reserved_loans);
      let c0 = sys.Hive.Types.cells.(0) in
      Alcotest.(check bool) "clock hand counted its work" true
        (Sim.Stats.value c0.Hive.Types.counters "clock_hand.released" >= 4))

let test_borrowed_frames_not_returned_without_hint () =
  with_sys (fun eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          ignore (Hive.Page_alloc.borrow_from sys c0 ~home:1 ~count:2));
      (* No Wax hint: several sweeps later the loan must still stand
         (the data home keeps its CC-NUMA placement). *)
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 600_000_000L) eng;
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check int) "loans kept without pressure hint" 2
        (List.length c1.Hive.Types.reserved_loans))

let test_exhaustion_borrows_transparently () =
  (* Allocating far beyond a cell's own memory transparently borrows from
     the other cell (physical-level sharing under pressure). *)
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let own_pages = c0.Hive.Types.free_frame_count in
          let n = own_pages + 64 in
          let remote = ref 0 in
          for _ = 1 to n do
            let pf = Hive.Page_alloc.alloc_frame sys c0 in
            if Flash.Addr.node_of_pfn sys.Hive.Types.mcfg pf.Hive.Types.pfn <> 0
            then incr remote
          done;
          Alcotest.(check bool) "borrowed under pressure" true (!remote >= 64)))

(* Property: the firewall's remotely-writable page count on the home
   always equals the number of pages with an outstanding writable export,
   through any interleaving of writable/read-only exports and releases. *)
let qcheck_firewall_tracks_exports =
  QCheck.Test.make
    ~name:"firewall count equals outstanding writable exports" ~count:30
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 7) bool))
    (fun script ->
      let eng = Sim.Engine.create () in
      let mcfg =
        { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 512 }
      in
      let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
      let ok = ref true in
      let thr =
        Sim.Engine.spawn eng ~name:"q" (fun () ->
            let c0 = sys.Hive.Types.cells.(0) in
            let c1 = sys.Hive.Types.cells.(1) in
            (* Eight pages of a cell-0 file. *)
            let pfs =
              List.init 8 (fun page ->
                  let pf = Hive.Page_alloc.alloc_frame sys c0 in
                  let lid =
                    { Hive.Types.tag =
                        Hive.Types.File_obj { Hive.Types.home = 0; ino = 500 };
                      page }
                  in
                  Hive.Pfdat.insert c0 lid pf;
                  (lid, pf))
            in
            let writable_exports = Hashtbl.create 8 in
            List.iter
              (fun (page, writable) ->
                let lid, pf = List.nth pfs page in
                if Hashtbl.mem writable_exports page then begin
                  (* Release from the client side. *)
                  (match Hive.Pfdat.lookup c1 lid with
                  | Some imp -> Hive.Share.release sys c1 imp
                  | None -> ());
                  Hashtbl.remove writable_exports page
                end
                else begin
                  Hive.Share.export sys c0 pf ~client:1 ~writable;
                  ignore
                    (Hive.Share.import sys c1 ~pfn:pf.Hive.Types.pfn
                       ~data_home:0 ~lid ~gen:0 ~writable);
                  if writable then Hashtbl.replace writable_exports page ()
                end;
                let expected = Hashtbl.length writable_exports in
                let measured =
                  Hive.Wild_write.remotely_writable_pages sys c0
                in
                if measured <> expected then ok := false)
              script)
      in
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
      !ok && thr.Sim.Engine.dead)

let suite =
  [
    Alcotest.test_case "loaned frame reimported reuses pfdat (S5.5)" `Quick
      test_loaned_and_reimported;
    Alcotest.test_case "clock hand returns loans to pressured homes" `Quick
      test_clock_hand_returns_borrowed_frames;
    Alcotest.test_case "loans kept without pressure hint" `Quick
      test_borrowed_frames_not_returned_without_hint;
    Alcotest.test_case "allocation borrows transparently when exhausted"
      `Quick test_exhaustion_borrows_transparently;
    QCheck_alcotest.to_alcotest qcheck_firewall_tracks_exports;
  ]
