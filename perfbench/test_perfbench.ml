(* The benchmark's own tests: its inputs are a function of the seed, its
   layer rows add up, and its checks catch a tampered output. *)

open Perfbench
module Functional = Netdebug.Usecases.Functional

let hex bits = Bitutil.Bitstring.to_hex bits

(* ---------------- same seed, same inputs ---------------- *)

let test_soak_inputs () =
  let pool s = Array.map hex (Obs.Soak.flow_pool ~seed:s) in
  Alcotest.(check (array string)) "flow pool repeats" (pool 7) (pool 7);
  Alcotest.(check bool) "another seed, another pool" false (pool 7 = pool 8)

let test_solver_seeds () =
  let seeds s = List.init 40 (fun k -> Testgen_wl.solver_seed ~seed:s ~sweep:(k / 13) (k mod 13)) in
  Alcotest.(check (list int)) "solver seeds repeat" (seeds 3) (seeds 3);
  Alcotest.(check bool) "another seed, other solver seeds" false (seeds 3 = seeds 4)

let test_fuzz_inputs () =
  let inputs s =
    let layout = Fuzz.Mutate.layout_of Fuzz_wl.bundle in
    let prng = Bitutil.Prng.create s in
    let seeds = Array.of_list (Fuzz_wl.templates ()) in
    List.init 200 (fun i -> hex (Fuzz.Mutate.mutate layout prng seeds.(i mod 3)))
  in
  Alcotest.(check (list string)) "mutations repeat" (inputs 5) (inputs 5)

(* ---------------- layer rows add up ---------------- *)

let sum_rows (layers, residual, total) =
  (List.fold_left (fun a r -> a +. r.Tracer.r_self_s) residual layers, total)

let test_synthetic_spans () =
  let tr = Tracer.create () in
  let root = Tracer.add tr ~parent:(-1) "w" ~t0:0. ~t1:10. ~words:100. in
  let a = Tracer.add tr ~parent:root "a" ~t0:1. ~t1:4. ~words:30. in
  ignore (Tracer.add tr ~parent:a "b" ~t0:2. ~t1:3. ~words:10.);
  ignore (Tracer.add tr ~parent:root "b" ~t0:5. ~t1:7. ~words:20.);
  let ((layers, residual, total) as t) = Workloads.layer_table ~root:"w" tr in
  let self n = (List.find (fun r -> r.Tracer.r_name = n) layers).Tracer.r_self_s in
  Alcotest.(check (float 1e-12)) "a self" 2. (self "a");
  Alcotest.(check (float 1e-12)) "b self" 3. (self "b");
  Alcotest.(check (float 1e-12)) "residual" 5. residual;
  let sum, total' = sum_rows t in
  Alcotest.(check (float 1e-12)) "rows + residual = total" total sum;
  Alcotest.(check (float 1e-12)) "total" 10. total'

let test_traced_rows_add_up () =
  let tr = Tracer.create () in
  let h = Netdebug.Harness.deploy P4ir.Programs.basic_router in
  ignore (Testgen_wl.traced_check_paths tr ~seed:1 h);
  let sum, total = sum_rows (Workloads.layer_table ~root:"testgen" tr) in
  Alcotest.(check (float 1e-9)) "rows + residual = traced total" total sum;
  Alcotest.(check bool) "spans recorded" true (Tracer.count tr > 5)

(* ---------------- a tampered output fails its check ---------------- *)

let fails f =
  let c = Common.checks () in
  f c;
  not (Common.all_passed c)

let test_tampered_testgen () =
  let h = Netdebug.Harness.deploy P4ir.Programs.basic_router in
  let i = 0 in
  Alcotest.(check string) "program 0" "basic_router" (Testgen_wl.name Testgen_wl.programs.(i));
  let r = Functional.check_paths ~seed:1 h in
  Alcotest.(check bool) "real report passes" false (fails (fun c -> ignore (Testgen_wl.check_program c i r)));
  let extra = { Functional.dv_path = 3; dv_descr = ""; dv_expected = ""; dv_got = "" } in
  let tampered = { r with Functional.pr_divergences = extra :: r.Functional.pr_divergences } in
  Alcotest.(check bool) "extra divergence fails" true
    (fails (fun c -> ignore (Testgen_wl.check_program c i tampered)));
  let missing = { r with Functional.pr_divergences = List.tl r.Functional.pr_divergences } in
  Alcotest.(check bool) "missing divergence fails" true
    (fails (fun c -> ignore (Testgen_wl.check_program c i missing)))

let test_tampered_fuzz () =
  let reference = Fuzz.Campaign.run ~budget:10_000 ~seed:2 Fuzz_wl.bundle in
  let r = Fuzz_wl.campaign ~budget:10_000 ~seed:2 () in
  Alcotest.(check bool) "real campaign passes" false
    (fails (fun c -> Fuzz_wl.check_report c ~reference r));
  let blame_none d = { d with Fuzz.Campaign.dv_quirks = [] } in
  let tampered = { r with Fuzz.Campaign.rp_divergences = List.map blame_none r.Fuzz.Campaign.rp_divergences } in
  Alcotest.(check bool) "unattributed divergences fail" true
    (fails (fun c -> Fuzz_wl.check_report c ~reference tampered));
  let fewer = { r with Fuzz.Campaign.rp_divergences = List.tl r.Fuzz.Campaign.rp_divergences } in
  Alcotest.(check bool) "a lost divergence fails" true
    (fails (fun c -> Fuzz_wl.check_report c ~reference fewer))

let test_tampered_soak () =
  let o =
    {
      Soak_wl.o_packets = 100_000;
      o_windows = 500;
      o_validated = 500;
      o_drift = 0;
      o_healthy = true;
      o_virtual_s = 0.05;
      o_rate_mpps = 2.0;
      o_latency_count = 100_500;
      o_counters = [ ("soak/background", 100_000L) ];
    }
  in
  (* a seed without a recorded reference: checked against its first soak *)
  let seed = 1_000_003 in
  Alcotest.(check bool) "consistent soak passes" false
    (fails (fun c -> Soak_wl.check_outputs c ~seed ~first:(Some o) o));
  Alcotest.(check bool) "drift fails" true
    (fails (fun c -> Soak_wl.check_outputs c ~seed ~first:None { o with Soak_wl.o_drift = 1 }));
  Alcotest.(check bool) "unhealthy fails" true
    (fails (fun c -> Soak_wl.check_outputs c ~seed ~first:None { o with Soak_wl.o_healthy = false }));
  Alcotest.(check bool) "moved virtual time fails" true
    (fails (fun c ->
         Soak_wl.check_outputs c ~seed ~first:(Some o) { o with Soak_wl.o_virtual_s = 0.0500001 }));
  Alcotest.(check bool) "recorded seed, other outputs fails" true
    (fails (fun c -> Soak_wl.check_outputs c ~seed:1 ~first:None o))

let test_tampered_reproduction () =
  Alcotest.(check bool) "traced output differing from untraced fails" true
    (fails (fun c -> Common.check_reproduces c ~what:"x" ~untraced:[ ("k", "a") ] [ ("k", "b") ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "soak flow pool" `Quick test_soak_inputs;
          Alcotest.test_case "testgen solver seeds" `Quick test_solver_seeds;
          Alcotest.test_case "fuzz mutations" `Quick test_fuzz_inputs;
        ] );
      ( "layers",
        [
          Alcotest.test_case "synthetic spans" `Quick test_synthetic_spans;
          Alcotest.test_case "traced check_paths" `Quick test_traced_rows_add_up;
        ] );
      ( "checks",
        [
          Alcotest.test_case "testgen" `Quick test_tampered_testgen;
          Alcotest.test_case "fuzz" `Quick test_tampered_fuzz;
          Alcotest.test_case "soak" `Quick test_tampered_soak;
          Alcotest.test_case "traced vs untraced" `Quick test_tampered_reproduction;
        ] );
    ]
