(* soak: basic_router under Obs.Soak's default configuration — 2 Mpkt/s
   of virtual open-loop background traffic over the 256-flow DNS/HTTP
   mix, 100 us windows, one validation per window — on one domain. In
   host time it is a closed loop of whole soaks, each on a freshly
   deployed harness so every soak's counters start from zero. *)

open Common
module Soak = Obs.Soak
module Harness = Netdebug.Harness
module Device = Target.Device
module Functional = Netdebug.Usecases.Functional
module Prng = Bitutil.Prng

let bundle = P4ir.Programs.basic_router
let cfg ~seed = { Soak.default_cfg with Soak.sk_seed = seed }
let deploy () = Harness.deploy bundle

(* Everything a soak computes in virtual time: none of it may depend on
   how fast the host ran it. *)
type outputs = {
  o_packets : int;
  o_windows : int;
  o_validated : int;
  o_drift : int;
  o_healthy : bool;
  o_virtual_s : float;
  o_rate_mpps : float;
  o_latency_count : int;
  o_counters : (string * int64) list;
}

let outputs_of ~packets ~windows ~validated ~drift ~healthy ~virtual_s (h : Harness.t) =
  let reg = Device.metrics h.Harness.device in
  {
    o_packets = packets;
    o_windows = windows;
    o_validated = validated;
    o_drift = drift;
    o_healthy = healthy;
    o_virtual_s = virtual_s;
    o_rate_mpps = float_of_int packets /. virtual_s /. 1e6;
    o_latency_count = hist_count reg "pipeline/latency_ns";
    o_counters = counters reg;
  }

let of_report (r : Soak.report) h =
  outputs_of ~packets:r.Soak.so_packets ~windows:r.Soak.so_windows
    ~validated:r.Soak.so_validated ~drift:r.Soak.so_drift ~healthy:r.Soak.so_healthy
    ~virtual_s:r.Soak.so_virtual_s h

let render o =
  let b = Buffer.create 2048 in
  Printf.bprintf b "packets %d\nwindows %d\nvalidated %d\ndrift %d\nhealthy %b\n" o.o_packets
    o.o_windows o.o_validated o.o_drift o.o_healthy;
  Printf.bprintf b "virtual_s %h\nrate_mpps %h\npipeline/latency_ns count %d\n" o.o_virtual_s
    o.o_rate_mpps o.o_latency_count;
  List.iter (fun (k, v) -> Printf.bprintf b "%s %Ld\n" k v) o.o_counters;
  Buffer.contents b

let get o name = try Int64.to_int (List.assoc name o.o_counters) with Not_found -> 0

(* The checks every soak must pass: no drift, a healthy verdict, the
   floor rate, and virtual-time outputs equal to the seed's first soak
   in this run (and to the recorded reference, when there is one). *)
let check_outputs c ~seed ~first o =
  check c "soak: drifting validation vectors" (o.o_drift = 0);
  check c "soak: health verdict is not healthy" o.o_healthy;
  check c "soak: sustained virtual rate below floor" (o.o_rate_mpps >= Soak.default_cfg.Soak.sk_min_rate_mpps);
  check c "soak: every background packet counted"
    (get o "soak/background" = Soak.default_cfg.Soak.sk_budget);
  (match first with
  | Some f -> check c "soak: virtual-time outputs differ between identical soaks" (render f = render o)
  | None -> ());
  match List.assoc_opt seed Reference.soak with
  | Some want -> check_eq c "soak: outputs digest vs reference" ~pp:Fun.id ~want (digest (render o))
  | None -> ()

let failures o = o.o_drift + get o "drop/queue"
let attempted o = o.o_packets + o.o_validated

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* A set-up sample is the mean of [setup_batch] deploys: one deploy takes
   well under a millisecond. One more is taken after every second timed
   soak. *)
let setup_samples = 9
let setup_batch = 50
let setup clock = setup_sample clock ~batch:setup_batch (fun () -> ignore (deploy ()))

let run ~seed ~seconds =
  let c = checks () in
  let clock = Hostclock.create () in
  let setups = ref (List.init setup_samples (fun _ -> setup clock)) in
  let windows = ref [] and rates = ref [] and wall_rates = ref [] in
  let wall = ref 0. and pkts = ref 0 and att = ref 0 and fails = ref 0 in
  let first = ref None in
  let fresh () =
    Gc.full_major ();
    deploy ()
  in
  (* one untimed soak first: the heap grows to its working size *)
  ignore (Soak.run ~cfg:(cfg ~seed) (fresh ()));
  repeat ~seconds (fun i ->
      if i mod 2 = 1 then setups := setup clock :: !setups;
      let h = fresh () in
      (* each window is scaled by a probe taken right after it; the
         probes' own time is left out of the soak's *)
      let last = ref (now ()) and at_ref = ref 0. and probes = ref 0. in
      let on_window _ =
        let t = now () in
        Hostclock.probe clock;
        let w = (t -. !last) *. Hostclock.scale clock in
        windows := w *. 1e3 :: !windows;
        at_ref := !at_ref +. w;
        last := now ();
        probes := !probes +. (!last -. t)
      in
      let t0 = now () in
      last := t0;
      let r = Soak.run ~cfg:(cfg ~seed) ~on_window h in
      let t1 = now () in
      let dt = t1 -. t0 -. !probes in
      at_ref := !at_ref +. ((t1 -. !last) *. Hostclock.scale clock);
      wall := !wall +. dt;
      let o = of_report r h in
      rates := (float_of_int o.o_packets /. !at_ref) :: !rates;
      wall_rates := (float_of_int o.o_packets /. dt) :: !wall_rates;
      check_outputs c ~seed ~first:!first o;
      if !first = None then first := Some o;
      pkts := !pkts + o.o_packets;
      att := !att + attempted o;
      fails := !fails + failures o);
  {
    e_checks = c;
    e_attempted = !att;
    e_failed = !fails;
    e_ops = !pkts;
    e_wall = !wall;
    e_lat_ms = !windows;
    e_rates = !rates;
    e_wall_rates = !wall_rates;
    e_setups = !setups;
    e_outputs = (match !first with Some o -> [ ("soak", render o) ] | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Obs.Soak.run rebuilt call for call from public functions, with a span
   around each layer: the device per background packet, the window's
   validation batch, and the observability plane (profile, sample,
   health) per window. Returns the soak's outputs and, for the replay,
   every background packet with its ingress port and due time. *)
let traced_soak tr ~seed (h : Harness.t) =
  let cfg = cfg ~seed in
  let root = Tracer.enter tr "soak" in
  let device = h.Harness.device in
  let registry = Device.metrics device in
  let ports = (Device.config device).Target.Config.ports in
  let c_bg = Telemetry.Registry.counter registry "soak/background" in
  let c_ok = Telemetry.Registry.counter registry "soak/validated" in
  let c_drift = Telemetry.Registry.counter registry "soak/verdict_drift" in
  let health = Obs.Health.create (Soak.default_rules cfg) in
  let profile = Obs.Profile.attach registry in
  let sampler =
    Obs.Sampler.create ~interval_ns:cfg.Soak.sk_window_ns registry ~start_ns:(Device.now_ns device)
  in
  let pool = Soak.flow_pool ~seed:cfg.Soak.sk_seed in
  let prng = Prng.create cfg.Soak.sk_seed in
  let oracle_rt = Functional.oracle_runtime bundle in
  let interval_ns = 1000. /. cfg.Soak.sk_rate_mpps in
  let per_window = max 1 (int_of_float (cfg.Soak.sk_window_ns /. interval_ns)) in
  let t0 = Device.now_ns device in
  let budget = cfg.Soak.sk_budget in
  let sent = Array.make budget (0, 0., pool.(0)) in
  let injected = ref 0 and validated = ref 0 and vec_idx = ref 0 and windows = ref 0 in
  let sched = ref t0 in
  while !injected < budget do
    let batch = min per_window (budget - !injected) in
    sched := Float.max !sched (Device.now_ns device);
    for _ = 1 to batch do
      sched := !sched +. interval_ns;
      let pkt = Prng.choose prng pool in
      let port = Prng.int prng ports in
      let at_ns = !sched in
      Tracer.span tr "device.inject" (fun () ->
          ignore (Device.inject device ~source:(Device.External port) ~at_ns pkt));
      sent.(!injected) <- (port, at_ns, pkt);
      Stats.Counter.incr c_bg;
      incr injected
    done;
    let n = cfg.Soak.sk_validations_per_window in
    if n > 0 then begin
      let pkts = Array.init n (fun k -> pool.((!vec_idx + k) mod Array.length pool)) in
      let verdicts =
        Tracer.span tr "validation" (fun () ->
            Functional.check_batch ~base:(!vec_idx + 1) bundle oracle_rt h pkts)
      in
      vec_idx := !vec_idx + n;
      validated := !validated + n;
      Array.iter
        (function Some _ -> Stats.Counter.incr c_drift | None -> Stats.Counter.incr c_ok)
        verdicts
    end;
    Tracer.span tr "obs" (fun () ->
        Obs.Profile.tick profile;
        let w = Obs.Sampler.sample sampler ~now_ns:(Device.now_ns device) in
        ignore (Obs.Health.observe health w));
    incr windows
  done;
  Device.quiesce device;
  Tracer.leave tr root;
  let o =
    outputs_of ~packets:!injected ~windows:!windows ~validated:!validated
      ~drift:(Int64.to_int (Stats.Counter.get c_drift))
      ~healthy:(Obs.Health.healthy health)
      ~virtual_s:((Device.now_ns device -. t0) /. 1e9)
      h
  in
  (o, sent)

(* The same packets and schedule into an unarmed replica: what the device
   costs when no checker rule judges its emissions. *)
let bare_replay probe (h : Harness.t) sent =
  let replica = Harness.replicate h in
  let device = replica.Harness.device in
  Array.iteri
    (fun i (port, at_ns, pkt) ->
      Tracer.span probe "device.bare_inject" (fun () ->
          ignore (Device.inject device ~source:(Device.External port) ~at_ns pkt));
      if i land 1023 = 0 then ignore (Device.outputs device))
    sent

(* One traced soak: 100 000 packets and 1 000 windows are enough spans
   for the layer rows. *)
let traced tr ~probe ~seed ~seconds:_ ~(untraced : e2e) =
  let c = checks () in
  Gc.full_major ();
  let h, deploy_s = timed deploy in
  let o, sent = traced_soak tr ~seed h in
  check_outputs c ~seed ~first:None o;
  check_reproduces c ~what:"soak" ~untraced:untraced.e_outputs [ ("soak", render o) ];
  bare_replay probe h sent;
  let counts = program_counts (Device.metrics h.Harness.device) in
  let pkts = float_of_int (Tracer.calls tr "device.inject") in
  let windows = float_of_int (Tracer.calls tr "obs") in
  let vectors = float_of_int (Tracer.calls tr "validation" * Soak.default_cfg.Soak.sk_validations_per_window) in
  let inject_us = 1e6 *. ratio (Tracer.self_s tr "device.inject") pkts in
  let bare_us =
    1e6 *. ratio (Tracer.self_s probe "device.bare_inject") (float_of_int (Tracer.calls probe "device.bare_inject"))
  in
  let cnt k = float_of_int (List.assoc k counts) in
  {
    t_checks = c;
    t_attempted = attempted o;
    t_failed = failures o;
    t_ops = o.o_packets;
    t_base_s_per_op = untraced.e_wall /. float_of_int untraced.e_ops;
    t_counts = counts;
    t_layers =
      [
        ("device.inject_us", inject_us);
        ("device.words_per_pkt", ratio (Tracer.self_words tr "device.inject") pkts);
        ("device.bare_inject_us", bare_us);
        ("device.queue_drops", cnt "drop.queue");
        ("checker.tap_us", inject_us -. bare_us);
        ("checker.tap_share", ratio ((inject_us -. bare_us) *. 1e-6 *. pkts) (Tracer.root_total tr));
        ("checker.fail_per_seen", ratio (cnt "checker.fail") (cnt "checker.seen"));
        ("validation.us_per_vector", 1e6 *. ratio (Tracer.self_s tr "validation") vectors);
        ("obs.us_per_window", 1e6 *. ratio (Tracer.self_s tr "obs") windows);
        ("obs.words_per_window", ratio (Tracer.self_words tr "obs") windows);
        ("harness.deploy_ms", 1e3 *. deploy_s);
      ];
  }
