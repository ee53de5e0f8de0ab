(* fabric: reachability over every ordered host pair of a k=8 fat tree
   (80 switches, 128 hosts, 16 256 pairs) with one worker and the default
   26-byte probe payload. It has no random input: the seed is recorded
   and unused. In host time it is a closed loop of all-pairs sweeps, each
   on a freshly built fabric so virtual time restarts at zero. *)

open Common
module Fleet = Net.Fleet
module Fabric = Net.Fabric
module Topology = Net.Topology

let k = 8
let build () = Fabric.create (Topology.fat_tree k)

let check_report c (r : Fleet.report) =
  check_eq c "fabric: pairs ok" ~pp:string_of_int ~want:r.Fleet.r_pairs r.Fleet.r_passed;
  check_eq c "fabric: pairs" ~pp:string_of_int ~want:16_256 r.Fleet.r_pairs;
  check_eq c "fabric: outcomes digest" ~pp:Fun.id ~want:Reference.fabric_outcomes
    (digest (Fleet.render_outcomes r))

let setup_samples = 4

let run ~seed:_ ~seconds =
  let c = checks () in
  let clock = Hostclock.create () in
  let setups = ref [] in
  let fresh () =
    Gc.full_major ();
    let f, _, at_ref = Hostclock.bracket clock build in
    setups := at_ref :: !setups;
    f
  in
  for _ = 2 to setup_samples do ignore (fresh ()) done;
  let lat = ref [] and rates = ref [] and wall_rates = ref [] in
  let pairs = ref 0 and wall = ref 0. and fails = ref 0 in
  let outputs = ref [] in
  repeat ~seconds ~min_iters:2 (fun _ ->
      let f = fresh () in
      let r, dt, at_ref = Hostclock.sampled clock (fun () -> Fleet.run Fleet.Reachability f) in
      check_report c r;
      outputs := [ ("outcomes", digest (Fleet.render_outcomes r)) ];
      lat := (at_ref *. 1e3) :: !lat;
      rates := (float_of_int r.Fleet.r_pairs /. at_ref) :: !rates;
      wall_rates := (float_of_int r.Fleet.r_pairs /. dt) :: !wall_rates;
      wall := !wall +. dt;
      pairs := !pairs + r.Fleet.r_pairs;
      fails := !fails + (r.Fleet.r_pairs - r.Fleet.r_passed));
  {
    e_checks = c;
    e_attempted = !pairs;
    e_failed = !fails;
    e_ops = !pairs;
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

(* Fleet.run's pair loop for reachability at one job, rebuilt from public
   calls: the route oracle, then the probe through the co-simulated
   fabric, then the verdict on what arrived. *)
let initial_ttl = 64L
let epoch_ns = 1_000_000.

let traced_pair tr f ~payload_bytes i ((src : Topology.host), (dst : Topology.host)) =
  let topo = Fabric.topology f in
  Fabric.clear_probes f;
  let expected =
    Tracer.span tr "route.path" (fun () ->
        Net.Route.path topo ~src_edge:src.Topology.h_node ~dst_edge:dst.Topology.h_node)
  in
  let sent_ns = float_of_int (i + 1) *. epoch_ns in
  let bits = Fleet.probe_bits ~payload_bytes src dst in
  let id =
    Tracer.span tr "fabric.run" (fun () ->
        let id = Fabric.send f ~src ~at_ns:sent_ns bits in
        Fabric.run f;
        id)
  in
  let hops = List.length (Fabric.trail f id) in
  let mk ok latency detail =
    { Fleet.o_index = i; o_src = src.Topology.h_name; o_dst = dst.Topology.h_name; o_ok = ok;
      o_hops = hops; o_latency_ns = latency; o_detail = detail }
  in
  match (Fabric.fate f id, expected) with
  | Fabric.Lost { l_device; l_reason }, Some _ ->
      mk false nan (Printf.sprintf "lost at %s: %s" l_device l_reason)
  | Fabric.Lost _, None -> mk true nan "no route by design; probe dropped as expected"
  | Fabric.Delivered { d_host; _ }, None ->
      mk false nan
        (Printf.sprintf "delivered to %s despite no route existing"
           topo.Topology.hosts.(d_host).Topology.h_name)
  | Fabric.In_flight, _ -> mk false nan "probe still in flight after run (fabric bug)"
  | Fabric.Delivered { d_host; d_at_ns; d_bits }, Some path ->
      let latency = d_at_ns -. sent_ns in
      let pkt = Packet.parse d_bits in
      let ttl = match Packet.find_ipv4 pkt with Some ip -> ip.Packet.Ipv4.ttl | None -> -1L in
      let eth_dst = match Packet.find_eth pkt with Some e -> e.Packet.Eth.dst | None -> -1L in
      let want_ttl = Int64.sub initial_ttl (Int64.of_int (List.length path)) in
      if d_host <> dst.Topology.h_id then
        mk false latency
          (Printf.sprintf "misdelivered to %s" topo.Topology.hosts.(d_host).Topology.h_name)
      else if eth_dst <> dst.Topology.h_mac then
        mk false latency (Printf.sprintf "wrong destination MAC 0x%Lx" eth_dst)
      else if ttl <> want_ttl then
        mk false latency (Printf.sprintf "ttl %Ld after %d hops (want %Ld)" ttl hops want_ttl)
      else mk true latency (Printf.sprintf "ok: %d hops, ttl %Ld, %.0f ns" hops ttl latency)

let pairs_of (topo : Topology.t) =
  let hosts = Array.to_list topo.Topology.hosts in
  Array.of_list
    (List.concat_map
       (fun (s : Topology.host) ->
         List.filter_map
           (fun (d : Topology.host) -> if s.Topology.h_id <> d.Topology.h_id then Some (s, d) else None)
           hosts)
       hosts)

let traced_run tr f =
  let root = Tracer.enter tr "fabric" in
  let topo = Fabric.topology f in
  let pairs = pairs_of topo in
  let outcomes = Array.mapi (fun i p -> traced_pair tr f ~payload_bytes:26 i p) pairs in
  Tracer.leave tr root;
  let passed = Array.fold_left (fun n o -> if o.Fleet.o_ok then n + 1 else n) 0 outcomes in
  {
    Fleet.r_topo = topo.Topology.t_name;
    r_scenario = Fleet.Reachability;
    r_jobs = 1;
    r_pairs = Array.length pairs;
    r_passed = passed;
    r_outcomes = outcomes;
    r_registry = Fabric.registry f;
    r_wall_s = 0.;
  }

(* A bare forward: each sampled probe injected into its source's edge
   switch alone, outside the fabric's event loop. *)
let bare_forwards probe f =
  let topo = Fabric.topology f in
  let hosts = topo.Topology.hosts in
  let n = Array.length hosts in
  for i = 0 to 2047 do
    let src = hosts.(i mod n) and dst = hosts.((i * 7 + 1 + (i / n)) mod n) in
    if src.Topology.h_id <> dst.Topology.h_id then begin
      let dev = (Fabric.device f src.Topology.h_node).Netdebug.Harness.device in
      let bits = Fleet.probe_bits ~payload_bytes:26 src dst in
      Tracer.span probe "device.bare_inject" (fun () ->
          ignore (Target.Device.inject dev ~source:(Target.Device.External src.Topology.h_port) bits);
          ignore (Target.Device.outputs dev))
    end
  done

let traced tr ~probe ~seed:_ ~seconds ~(untraced : e2e) =
  let c = checks () in
  let deploys =
    List.init 10 (fun _ ->
        snd (timed (fun () -> ignore (Netdebug.Harness.deploy ~install_entries:false (Net.Route.bundle ())))))
  in
  let ops = ref 0 and fails = ref 0 and hops = ref 0 and counts = ref zero_counts in
  repeat ~seconds (fun _ ->
      Gc.full_major ();
      let f = build () in
      let r = traced_run tr f in
      check_report c r;
      check_reproduces c ~what:"fabric" ~untraced:untraced.e_outputs
        [ ("outcomes", digest (Fleet.render_outcomes r)) ];
      ops := !ops + r.Fleet.r_pairs;
      fails := !fails + (r.Fleet.r_pairs - r.Fleet.r_passed);
      Array.iter (fun o -> hops := !hops + o.Fleet.o_hops) r.Fleet.r_outcomes;
      let reg = Telemetry.Registry.create () in
      for id = 0 to Array.length (Fabric.topology f).Topology.nodes - 1 do
        Telemetry.Registry.merge ~into:reg (Target.Device.metrics (Fabric.device f id).Netdebug.Harness.device)
      done;
      counts := add_counts !counts (program_counts reg));
  let f = build () in
  bare_forwards probe f;
  let pairs = float_of_int !ops and hops = float_of_int !hops in
  let run_us_per_hop = 1e6 *. ratio (Tracer.self_s tr "fabric.run") hops in
  let bare_us =
    1e6 *. ratio (Tracer.self_s probe "device.bare_inject") (float_of_int (Tracer.calls probe "device.bare_inject"))
  in
  {
    t_checks = c;
    t_attempted = !ops;
    t_failed = !fails;
    t_ops = !ops;
    t_base_s_per_op = untraced.e_wall /. float_of_int untraced.e_ops;
    t_counts = !counts;
    t_layers =
      [
        ("route.path_us_per_pair", 1e6 *. ratio (Tracer.self_s tr "route.path") pairs);
        ("route.path_share", ratio (Tracer.self_s tr "route.path") (Tracer.root_total tr));
        ("fabric.run_us_per_hop", run_us_per_hop);
        ("device.bare_inject_us", bare_us);
        ("fabric.hop_overhead_us", run_us_per_hop -. bare_us);
        ("fabric.hops_per_pair", ratio hops pairs);
        ("harness.deploy_ms", 1e3 *. median deploys);
      ];
  }
