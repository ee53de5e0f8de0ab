(* testgen: every bundle in P4ir.Programs through
   Functional.check_paths on a harness deployed with the shipped quirks.
   In host time it is a closed loop of library sweeps; each (program,
   sweep) pair gets its own solver seed derived from the command-line
   seed. The op latency is one sweep of all 13 programs. *)

open Common
module Functional = Netdebug.Usecases.Functional
module Harness = Netdebug.Harness
module Testgen = Symexec.Testgen

let programs = Array.of_list P4ir.Programs.all
let name (b : P4ir.Programs.bundle) = b.P4ir.Programs.program.P4ir.Ast.p_name
let deploy_all () = Array.map (fun b -> Harness.deploy b) programs
let solver_seed ~seed ~sweep i = derive seed ((sweep * 64) + i)

(* An operation is a covering vector driven through the device; a
   failure is a divergence outside the recorded reference. A path the
   bounded solver left unknown yields no vector, so it is neither: the
   unknowns are reported per layer as solver.unknown_ratio. *)
let check_paths c i ~(stats : Testgen.stats) ~checked got =
  let nm = name programs.(i) in
  let want = try List.assoc nm Reference.testgen with Not_found -> [] in
  let outside = List.filter (fun p -> not (List.mem p want)) got in
  check c (Printf.sprintf "testgen: %s diverged outside the reference on paths [%s]" nm
             (String.concat "," (List.map string_of_int outside)))
    (outside = []);
  (* a reference path may go unseen only when the solver left paths
     unknown *)
  if stats.Testgen.tg_unknown = 0 then
    check c (Printf.sprintf "testgen: %s diverging paths [%s], reference [%s]" nm
               (String.concat "," (List.map string_of_int got))
               (String.concat "," (List.map string_of_int want)))
      (got = want);
  (checked, List.length outside)

let diverging (r : Functional.path_report) = List.map (fun d -> d.Functional.dv_path) r.Functional.pr_divergences
let stats (r : Functional.path_report) = r.Functional.pr_oracle.Testgen.tg_stats
let check_program c i r = check_paths c i ~stats:(stats r) ~checked:r.Functional.pr_checked (diverging r)
let paths_of ps = String.concat "," (List.map string_of_int ps)

let key ~sweep i = Printf.sprintf "%d/%s" sweep (name programs.(i))

(* A set-up sample is the mean of [setup_batch] deployments of all 13
   programs. One more is taken after every [setup_every] timed sweeps. *)
let setup_samples = 9
let setup_batch = 8
let setup_every = 30
let setup clock = setup_sample clock ~batch:setup_batch (fun () -> ignore (deploy_all ()))

let run ~seed ~seconds =
  let c = checks () in
  let clock = Hostclock.create () in
  let setups = ref (List.init setup_samples (fun _ -> setup clock)) in
  let hs = deploy_all () in
  let lat = ref [] and rates = ref [] and wall_rates = ref [] in
  let paths = ref 0 and wall = ref 0. and att = ref 0 and fails = ref 0 in
  let outputs = ref [] in
  (* one untimed sweep first, on seeds no timed sweep uses *)
  Array.iteri
    (fun i h -> ignore (check_program c i (Functional.check_paths ~seed:(solver_seed ~seed ~sweep:(-1) i) h)))
    hs;
  repeat ~seconds (fun sweep ->
      if sweep mod setup_every = setup_every - 1 then setups := setup clock :: !setups;
      let t_sweep = ref 0. and at_ref = ref 0. and checked = ref 0 in
      Array.iteri
        (fun i h ->
          let r, dt =
            timed (fun () -> Functional.check_paths ~seed:(solver_seed ~seed ~sweep i) h)
          in
          Hostclock.probe clock;
          let tried, failed = check_program c i r in
          t_sweep := !t_sweep +. dt;
          at_ref := !at_ref +. (dt *. Hostclock.scale clock);
          checked := !checked + r.Functional.pr_checked;
          att := !att + tried;
          fails := !fails + failed;
          outputs := (key ~sweep i, paths_of (diverging r)) :: !outputs)
        hs;
      lat := (!at_ref *. 1e3) :: !lat;
      rates := (float_of_int !checked /. !at_ref) :: !rates;
      wall_rates := (float_of_int !checked /. !t_sweep) :: !wall_rates;
      paths := !paths + !checked;
      wall := !wall +. !t_sweep);
  {
    e_checks = c;
    e_attempted = !att;
    e_failed = !fails;
    e_ops = !paths;
    e_wall = !wall;
    e_lat_ms = !lat;
    e_rates = !rates;
    e_wall_rates = !wall_rates;
    e_setups = !setups;
    e_outputs = !outputs;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let never_forward_rule = Netdebug.Controller.expect ~name:"unexpected-output" (P4ir.Ast.Const P4ir.Value.fls)

(* Functional.check_paths rebuilt from public calls: generate the
   covering vectors, then per usable vector reset the registers and run
   the management protocol — clear, configure checker, configure
   generator, start, read back — and judge the summary. *)
let traced_check_paths tr ~seed (h : Harness.t) =
  let module C = Netdebug.Controller in
  let module W = Netdebug.Wire in
  let root = Tracer.enter tr "testgen" in
  let oracle = h.Harness.bundle in
  let oracle_rt = Functional.oracle_runtime oracle in
  let report =
    Tracer.span tr "testgen.generate" (fun () ->
        Testgen.generate ~seed ~jobs:1 ~ingress_port:Harness.generator_port
          oracle.P4ir.Programs.program oracle_rt)
  in
  let usable = List.filter (fun v -> not v.Testgen.v_state_dependent) report.Testgen.tg_vectors in
  let ctl = h.Harness.controller in
  let rpc name f = Tracer.span tr name f in
  let ( let* ) = Result.bind in
  let check v =
    P4ir.Regstate.reset (Target.Device.registers h.Harness.device);
    let summary =
      Tracer.span tr "mgmt" (fun () ->
          let* () = rpc "mgmt.clear" (fun () -> C.clear_test_state ctl) in
          let rules =
            match v.Testgen.v_expected with
            | Testgen.Forward port -> [ C.expect_port port ]
            | Testgen.Drop _ -> [ never_forward_rule ]
          in
          let* () = rpc "mgmt.checker" (fun () -> C.configure_checker ctl rules) in
          let* () = rpc "mgmt.generator" (fun () -> C.configure_generator ctl [ C.stream v.Testgen.v_packet ]) in
          let* () = rpc "mgmt.start" (fun () -> C.start_generator ctl) in
          rpc "mgmt.read" (fun () -> C.read_checker ctl))
    in
    match summary with
    | Error e -> Some (v.Testgen.v_path, "error: " ^ e)
    | Ok s -> (
        let seen = s.W.cs_total_seen > 0 in
        match v.Testgen.v_expected with
        | Testgen.Forward _ ->
            if not seen then Some (v.Testgen.v_path, "never emitted")
            else if List.exists (fun rs -> rs.W.rs_failed > 0) s.W.cs_rules then
              Some (v.Testgen.v_path, "forwarded elsewhere")
            else None
        | Testgen.Drop _ -> if seen then Some (v.Testgen.v_path, "forwarded") else None)
  in
  let divergences = List.filter_map check usable in
  Tracer.leave tr root;
  (report, List.length usable, List.map fst divergences)

(* Path exploration alone, the part of generation before solving. *)
let explore probe (h : Harness.t) =
  let b = h.Harness.bundle in
  Tracer.span probe "sexec.explore" (fun () ->
      ignore (Symexec.Sexec.explore b.P4ir.Programs.program (Functional.oracle_runtime b)))

let traced tr ~probe ~seed ~seconds ~(untraced : e2e) =
  let c = checks () in
  let hs, deploy_s = timed deploy_all in
  let att = ref 0 and fails = ref 0 and ops = ref 0 and paths = ref 0 and unknown = ref 0 in
  let calls = ref 0 and bytes = ref 0 in
  repeat ~seconds (fun sweep ->
      Array.iteri
        (fun i h ->
          explore probe h;
          let b0 = Netdebug.Controller.mgmt_bytes h.Harness.controller in
          let report, checked, divs = traced_check_paths tr ~seed:(solver_seed ~seed ~sweep i) h in
          bytes := !bytes + (Netdebug.Controller.mgmt_bytes h.Harness.controller - b0);
          let tried, failed = check_paths c i ~stats:report.Testgen.tg_stats ~checked divs in
          check_reproduces c ~what:"testgen" ~untraced:untraced.e_outputs [ (key ~sweep i, paths_of divs) ];
          att := !att + tried;
          fails := !fails + failed;
          ops := !ops + checked;
          paths := !paths + report.Testgen.tg_stats.Testgen.tg_paths;
          unknown := !unknown + report.Testgen.tg_stats.Testgen.tg_unknown;
          incr calls)
        hs);
  let counts =
    Array.fold_left
      (fun acc h -> add_counts acc (program_counts (Target.Device.metrics h.Harness.device)))
      zero_counts hs
  in
  let vectors = float_of_int !ops and programs = float_of_int !calls in
  let explore_s = Tracer.self_s probe "sexec.explore" in
  let generate_s = Tracer.self_s tr "testgen.generate" in
  let rpcs =
    List.fold_left (fun a n -> a + Tracer.calls tr n) 0
      [ "mgmt.clear"; "mgmt.checker"; "mgmt.generator"; "mgmt.start"; "mgmt.read" ]
  in
  {
    t_checks = c;
    t_attempted = !att;
    t_failed = !fails;
    t_ops = !ops;
    t_base_s_per_op = untraced.e_wall /. float_of_int untraced.e_ops;
    t_counts = counts;
    t_layers =
      [
        ("mgmt.rpcs_per_vector", ratio (float_of_int rpcs) vectors);
        ("mgmt.bytes_per_vector", ratio (float_of_int !bytes) vectors);
        ("mgmt.us_per_vector", 1e6 *. ratio (Tracer.root_total tr -. generate_s) vectors);
        ("sexec.explore_ms", 1e3 *. ratio explore_s programs);
        ("solver.ms_per_program", 1e3 *. ratio (generate_s -. explore_s) programs);
        ("solver.unknown_ratio", ratio (float_of_int !unknown) (float_of_int !paths));
        ("harness.deploy_ms", 1e3 *. deploy_s /. float_of_int (Array.length hs));
      ];
  }
