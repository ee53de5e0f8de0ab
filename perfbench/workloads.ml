(* The four workloads and the metric sets the benchmark prints. *)

open Common

let names = [ "soak"; "fuzz"; "testgen"; "fabric" ]

let e2e_of = function
  | "soak" -> Soak_wl.run
  | "fuzz" -> Fuzz_wl.run
  | "testgen" -> Testgen_wl.run
  | "fabric" -> Fabric_wl.run
  | w -> invalid_arg ("unknown workload " ^ w)

(* End-to-end metrics, printed for every workload by the untraced run.
   What an op is differs per workload; see perfbench/README.md. Every
   time is at the reference clock (Hostclock): ops_per_s is the median
   of the per-unit rates (a unit is a soak, a campaign or a sweep),
   op_tail_ms the tail op time. The wall-clock rates go to stderr. *)
let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_tail_ms", "ms");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let run_e2e name ~seed ~seconds =
  let e = (e2e_of name) ~seed ~seconds in
  let values =
    [
      ("ops_per_s", median e.e_rates);
      ("op_tail_ms", tail e.e_lat_ms);
      ("setup_s", median e.e_setups);
      ("heap_peak_mb", heap_peak_mb ());
    ]
  in
  Printf.eprintf "%s: %d ops in %.3f s timed, %d rate samples, %d latency samples (tail = p%.0f), %d set-ups\n%!" name
    e.e_ops e.e_wall (List.length e.e_rates) (List.length e.e_lat_ms)
    (100. *. tail_q (List.length e.e_lat_ms))
    (List.length e.e_setups);
  let qs = [ 0.; 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ] in
  Printf.eprintf "op ms quantiles (reference clock) %s; wall-clock mean rate %.6g/s\n%!"
    (String.concat " " (List.map (fun q -> Printf.sprintf "p%g=%.6g" (100. *. q) (quantile e.e_lat_ms q)) qs))
    (float_of_int e.e_ops /. e.e_wall);
  Printf.eprintf "unit rates: median %.6g/s at the reference clock, %.6g/s wall clock\n%!" (median e.e_rates)
    (median e.e_wall_rates);
  (match e.e_outputs with [ (k, v) ] -> Printf.eprintf "outputs %s: %s\n%!" k (digest v) | _ -> ());
  {
    correct = all_passed e.e_checks;
    attempted = e.e_attempted;
    failed = e.e_failed;
    metrics = List.map (fun (n, u) -> metric n u (List.assoc n values)) end_to_end;
  }

(* Per-layer metrics, printed for every workload by the traced run. A
   layer a workload does not pass through reads 0 there: that is the
   bypass case, where a change to the layer should move nothing. *)
let per_layer =
  [
    ("device.inject_us", "us");
    ("device.words_per_pkt", "words");
    ("device.bare_inject_us", "us");
    ("device.queue_drops", "count");
    ("checker.tap_us", "us");
    ("checker.fail_per_seen", "ratio");
    ("checker.tap_share", "ratio");
    ("validation.us_per_vector", "us");
    ("obs.us_per_window", "us");
    ("obs.words_per_window", "words");
    ("spec.us_per_pkt", "us");
    ("spec.words_per_pkt", "words");
    ("mgmt.rpcs_per_vector", "count");
    ("mgmt.bytes_per_vector", "B");
    ("mgmt.us_per_vector", "us");
    ("mutate.us_per_call", "us");
    ("oracle.us_per_exec", "us");
    ("oracle.words_per_exec", "words");
    ("corpus.useful_ratio", "ratio");
    ("minimize.ms", "ms");
    ("par.scaling", "ratio");
    ("sexec.explore_ms", "ms");
    ("solver.ms_per_program", "ms");
    ("solver.unknown_ratio", "ratio");
    ("route.path_us_per_pair", "us");
    ("route.path_share", "ratio");
    ("fabric.run_us_per_hop", "us");
    ("fabric.hop_overhead_us", "us");
    ("fabric.hops_per_pair", "count");
    ("harness.deploy_ms", "ms");
    ("gc.minor_words_per_op", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.residual_share", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("count.checker.seen", "count");
    ("count.checker.pass", "count");
    ("count.checker.fail", "count");
    ("count.drop.queue", "count");
    ("count.stage.seen", "count");
    ("count.stage.hit", "count");
    ("count.stage.miss", "count");
    ("count.generator.sent", "count");
    ("count.fuzz.executions", "count");
    ("count.fuzz.edges", "count");
  ]

let traced_of = function
  | "soak" -> Soak_wl.traced
  | "fuzz" -> Fuzz_wl.traced
  | "testgen" -> Testgen_wl.traced
  | "fabric" -> Fabric_wl.traced
  | w -> invalid_arg ("unknown workload " ^ w)

(* The layer table of a traced run: one row per span name with its self
   time, and the root's own self time printed as the residual. Rows plus
   residual sum to the traced total. *)
let layer_table ~root tr =
  let rows = Tracer.table tr in
  let total = Tracer.root_total tr in
  let residual = match List.find_opt (fun r -> r.Tracer.r_name = root) rows with Some r -> r.Tracer.r_self_s | None -> 0. in
  let layers = List.filter (fun r -> r.Tracer.r_name <> root) rows in
  (layers, residual, total)

let print_table ~title (layers, residual, total) =
  Printf.eprintf "%s\n  %-22s %10s %12s %8s %14s\n" title "layer" "calls" "self ms" "share" "self words";
  List.iter
    (fun r ->
      Printf.eprintf "  %-22s %10d %12.3f %7.1f%% %14.0f\n" r.Tracer.r_name r.Tracer.r_calls
        (1e3 *. r.Tracer.r_self_s) (100. *. ratio r.Tracer.r_self_s total) r.Tracer.r_self_words)
    layers;
  Printf.eprintf "  %-22s %10s %12.3f %7.1f%%\n  %-22s %10s %12.3f\n%!" "(residual)" "" (1e3 *. residual)
    (100. *. ratio residual total) "total" "" (1e3 *. total)

(* The traced run: an untraced phase for the GC deltas and the per-op
   baseline, then the traced loops with their probes. *)
let run_traced name ~seed ~seconds ~spans =
  let untraced, gc = gc_phase (fun () -> (e2e_of name) ~seed ~seconds:(seconds /. 3.)) in
  let tr = Tracer.create () and probe = Tracer.create () in
  let t = (traced_of name) tr ~probe ~seed ~seconds:(seconds /. 3.) ~untraced in
  let ((_, residual, total) as table) = layer_table ~root:name tr in
  print_table ~title:(Printf.sprintf "%s traced: %d ops" name t.t_ops) table;
  if Tracer.count probe > 0 then print_table ~title:"probes (outside the traced loop)" (layer_table ~root:"" probe);
  let values =
    t.t_layers
    @ [
        ("gc.minor_words_per_op", gc.g_minor_words /. float_of_int untraced.e_ops);
        ("gc.minor_collections", float_of_int gc.g_minor);
        ("gc.major_collections", float_of_int gc.g_major);
        ("trace.residual_share", ratio residual total);
        ("trace.overhead_ratio", ratio (total /. float_of_int t.t_ops) t.t_base_s_per_op);
      ]
    @ List.map (fun (k, v) -> ("count." ^ k, float_of_int v)) t.t_counts
  in
  Tracer.write tr spans;
  Tracer.write probe (spans ^ ".probes");
  Printf.eprintf "spans written to %s and %s.probes\n%!" spans spans;
  {
    correct = all_passed untraced.e_checks && all_passed t.t_checks;
    attempted = t.t_attempted;
    failed = t.t_failed;
    metrics =
      List.map (fun (n, u) -> metric n u (try List.assoc n values with Not_found -> 0.)) per_layer;
  }
