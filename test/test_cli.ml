(* End-to-end checks of the hive_sim command line: the binary is run as a
   subprocess and judged by its exit status and output. *)

let hive_sim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/hive_sim.exe"

(* Run [hive_sim args], returning the exit status and stdout+stderr. *)
let run args =
  let out = Filename.temp_file "hive_sim" ".out" in
  let status =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote hive_sim) args
         (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (status, text)

let lines_with prefix text =
  String.split_on_char '\n' text
  |> List.filter (String.starts_with ~prefix)

let test_bad_output_paths () =
  List.iter
    (fun args ->
      let status, text = run args in
      Alcotest.(check int) (args ^ ": exit status") 2 status;
      Alcotest.(check int)
        (args ^ ": one-line message") 1
        (List.length (lines_with "hive_sim: cannot write output file" text)))
    [ "workload pmake --metrics-json ''";
      "workload pmake --trace-out /nonexistent-dir/trace.json";
      "fuzz --replay 1 --metrics-json ''";
      "fuzz --replay 1 --trace-out /nonexistent-dir/trace.json";
      "fault node --trace-out /" ]

let test_corrupt_cow_and_map_differ () =
  let injected kind =
    let status, text = run ("fault " ^ kind ^ " --victim 2") in
    Alcotest.(check int) (kind ^ ": exit status") 0 status;
    lines_with "injected:" text
  in
  Alcotest.(check (list string)) "corrupt-cow injects a COW-tree fault"
    [ "injected: corrupt COW tree on cell 2 @ 300ms -> cell 2" ]
    (injected "corrupt-cow");
  Alcotest.(check (list string)) "corrupt-map injects an address-map fault"
    [ "injected: corrupt address map on cell 2 @ 300ms -> cell 2" ]
    (injected "corrupt-map")

(* The exit status is [Fuzz.passed]: a clean oracle is not enough when
   the fault never landed (here, long after pmake's processes are gone). *)
let test_unlanded_fault_fails () =
  let status, text = run "fault corrupt-map --victim 1 --at-ms 30000" in
  Alcotest.(check int) "exit status" 1 status;
  Alcotest.(check (list string)) "oracle clean" [ "invariants: clean" ]
    (lines_with "invariants:" text);
  Alcotest.(check (list string)) "shortfall reported"
    [ "faults landed: 0 of 1" ]
    (lines_with "faults landed:" text)

let suite =
  [
    Alcotest.test_case "bad output paths exit 2 before boot" `Quick
      test_bad_output_paths;
    Alcotest.test_case "fault corrupt-cow and corrupt-map differ" `Slow
      test_corrupt_cow_and_map_differ;
    Alcotest.test_case "fault that never lands fails" `Quick
      test_unlanded_fault_fails;
  ]
