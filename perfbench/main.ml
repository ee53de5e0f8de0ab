(* The validator benchmark.

     main.exe --workload soak|fuzz|testgen|fabric --seed N --seconds S --trace 0|1

   prints, as its last stdout line, one JSON object with "correct",
   "attempted", "failed" and "metrics": the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. It exits 1 when an
   output check fails. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME soak, fuzz, testgen or fabric");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed phase runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let r =
    if !trace = 0 then Workloads.run_e2e !workload ~seed:!seed ~seconds:!seconds
    else begin
      (* spans stay in memory during the run and are written at its end *)
      if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
      let spans = Printf.sprintf ".perfbench/%s-%d.spans.jsonl" !workload !seed in
      Workloads.run_traced !workload ~seed:!seed ~seconds:!seconds ~spans
    end
  in
  print_endline (Common.result_json r);
  exit (if r.Common.correct then 0 else 1)
