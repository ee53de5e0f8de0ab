(* Differential tests for the staged closure engine (P4ir.Compilecore):
   staged vs tree observations over the whole program library, fuzz-driven
   equivalence at 1 and 4 domains, counter-ordering pins, matcher
   specialization corner cases, and the staged device checked against a
   tree-module reference walk of its pipeline, quirks, registers and
   injected faults included. *)

module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng
module Ast = P4ir.Ast
module Value = P4ir.Value
module Entry = P4ir.Entry
module Runtime = P4ir.Runtime
module Regstate = P4ir.Regstate
module Parse = P4ir.Parse
module Env = P4ir.Env
module Exec = P4ir.Exec
module Deparse = P4ir.Deparse
module Interp = P4ir.Interp
module Programs = P4ir.Programs
module Dsl = P4ir.Dsl
module Mutate = Fuzz.Mutate
module Pool = Par.Pool
module Quirks = Sdnet.Quirks
module Compile = Sdnet.Compile
module Device = Target.Device
module Pipeline = Target.Pipeline
module Fault = Target.Fault
module P = Packet
module Eth = Packet.Eth
module Ipv4 = Packet.Ipv4
module Mpls = Packet.Mpls

let check_int = Alcotest.(check int)

let deploy (b : Programs.bundle) =
  let rt = Runtime.create () in
  (match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (b.Programs.program, rt)

(* ---------------- observation equality ---------------- *)

let result_equal a b =
  match (a, b) with
  | Interp.Forwarded (pa, ba), Interp.Forwarded (pb, bb) ->
      pa = pb && Bitstring.equal ba bb
  | Interp.Dropped ra, Interp.Dropped rb -> String.equal ra rb
  | _ -> false

let obs_equal (a : Interp.observation) (b : Interp.observation) =
  result_equal a.Interp.result b.Interp.result
  && a.Interp.parser.Parse.accepted = b.Interp.parser.Parse.accepted
  && a.Interp.parser.Parse.error = b.Interp.parser.Parse.error
  && a.Interp.parser.Parse.states_visited = b.Interp.parser.Parse.states_visited
  && a.Interp.tables = b.Interp.tables
  && a.Interp.counters = b.Interp.counters
  && a.Interp.failed_asserts = b.Interp.failed_asserts

let show_obs (o : Interp.observation) =
  let res =
    match o.Interp.result with
    | Interp.Forwarded (p, b) -> Printf.sprintf "Forwarded(%d,%s)" p (Bitstring.to_hex b)
    | Interp.Dropped r -> Printf.sprintf "Dropped(%s)" r
  in
  Printf.sprintf "%s parser={acc=%b err=%d visited=%s} tables=[%s] counters=[%s] asserts=[%s]"
    res o.Interp.parser.Parse.accepted o.Interp.parser.Parse.error
    (String.concat ">" o.Interp.parser.Parse.states_visited)
    (String.concat ";"
       (List.map (fun (t, h, a) -> Printf.sprintf "%s/%b/%s" t h a) o.Interp.tables))
    (String.concat ";"
       (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) o.Interp.counters))
    (String.concat ";" o.Interp.failed_asserts)

let regs_equal prog ra rb =
  List.for_all
    (fun (r : Ast.register_decl) ->
      let da = Regstate.dump ra r.Ast.r_name and db = Regstate.dump rb r.Ast.r_name in
      Array.length da = Array.length db
      && Array.for_all2 (fun x y -> Value.equal x y) da db)
    prog.Ast.p_registers

(* Run one packet under both engines (optionally threading register state)
   and fail loudly on any observable divergence. *)
let check_both ?rega ?regb ~what (prog, rt) ~port bits =
  let oa = Interp.process ~engine:`Tree ?regs:rega prog rt ~ingress_port:port bits in
  let ob = Interp.process ~engine:`Staged ?regs:regb prog rt ~ingress_port:port bits in
  if not (obs_equal oa ob) then
    Alcotest.failf "%s: engines diverge\n  tree:   %s\n  staged: %s" what (show_obs oa)
      (show_obs ob);
  (match (rega, regb) with
  | Some ra, Some rb ->
      if not (regs_equal prog ra rb) then
        Alcotest.failf "%s: register end-state diverges" what
  | _ -> ());
  oa

(* ---------------- engine matrix over the program library ---------------- *)

(* A probe set that exercises accepts, rejects, truncations and garbage in
   every bundle; each bundle's parser decides what it means. *)
let probes =
  let v6 dst_hi =
    P.serialize
      (P.fixup
         (P.make
            [
              P.Eth (Eth.make ~ethertype:0x86DDL ());
              P.Ipv6 (Packet.Ipv6.make ~dst:(dst_hi, 1L) ~payload_len:0 ());
            ]
            ()))
  in
  let vlan vid =
    P.serialize
      (P.fixup
         (P.make
            [
              P.Eth (Eth.make ());
              P.Vlan (Packet.Vlan.make ~vid ());
              P.Ipv4 (Ipv4.make ~dst:0x0A000099L ~payload_len:0 ());
            ]
            ()))
  in
  let mpls label =
    P.serialize
      (P.fixup
         (P.make
            [
              P.Eth (Eth.make ());
              P.Mpls (Mpls.make ~label ~bos:1L ());
              P.Ipv4 (Ipv4.make ~payload_len:0 ());
            ]
            ()))
  in
  let calc op =
    let w = Bitstring.Writer.create () in
    Bitstring.Writer.push_bits w
      (Eth.to_bits
         (Eth.make ~dst:0x020000000002L ~src:0x020000000001L ~ethertype:0x1234L ()));
    Bitstring.Writer.push_int64 w ~width:8 op;
    Bitstring.Writer.push_int64 w ~width:32 1234L;
    Bitstring.Writer.push_int64 w ~width:32 77L;
    Bitstring.Writer.push_int64 w ~width:32 0L;
    Bitstring.Writer.contents w
  in
  let prng = Prng.create 0x5EED in
  [
    P.serialize (P.udp_ipv4 ~dst:0x0A000005L ~ttl:64L ());
    P.serialize (P.udp_ipv4 ~dst:0x0A010203L ~ttl:2L ());
    P.serialize (P.udp_ipv4 ~dst:0xC0A80001L ~ttl:1L ());
    P.serialize (P.udp_ipv4 ~dst:0x08080808L ());
    P.serialize (P.udp_ipv4 ~eth_dst:0x020000000002L ~eth_src:0x02AAAAAAAAAAL ());
    P.serialize (P.tcp_ipv4 ~src:0x0A000001L ~dst:0x0A010001L ~dst_port:23L ());
    P.serialize (P.tcp_ipv4 ~src:0xC0A80001L ~dst:0x0A010005L ~dst_port:80L ());
    P.serialize (P.arp_request ());
    P.serialize
      (P.map_ipv4 (fun ip -> { ip with Ipv4.checksum = 0xBADL }) (P.udp_ipv4 ()));
    v6 0x20010DB8_0001_BBBBL;
    v6 0xFD00_0000_0000_0000L;
    vlan 10L;
    vlan 99L;
    mpls 100L;
    mpls 999L;
    calc 1L;
    calc 77L;
    Bitstring.empty;
    Bitstring.of_hex "45000014";
    Bitstring.random prng 64;
    Bitstring.random prng 112;
    Bitstring.random prng 272;
    Bitstring.random prng 513;
    Bitstring.random prng 1207;
  ]

let test_engine_matrix () =
  List.iter
    (fun (b : Programs.bundle) ->
      let dut = deploy b in
      let prog = fst dut in
      (* stateless pass: fresh registers per call in both engines *)
      List.iteri
        (fun i bits ->
          ignore
            (check_both
               ~what:(Printf.sprintf "%s probe %d" prog.Ast.p_name i)
               dut ~port:(i mod 4) bits))
        probes;
      (* stateful pass: one register store per engine, threaded *)
      if prog.Ast.p_registers <> [] then begin
        let rega = Regstate.create prog and regb = Regstate.create prog in
        List.iteri
          (fun i bits ->
            ignore
              (check_both ~rega ~regb
                 ~what:(Printf.sprintf "%s stateful probe %d" prog.Ast.p_name i)
                 dut ~port:(i mod 4) bits))
          probes
      end)
    Programs.all

(* ---------------- counter first-increment ordering ---------------- *)

let test_counter_order_pinned () =
  let program =
    {
      Programs.reflector.Programs.program with
      Ast.p_name = "ctr_order";
      p_counters = [ "alpha"; "zeta" ];
      p_ingress =
        [
          Dsl.count "zeta";
          Dsl.count "alpha";
          Dsl.count "zeta";
          Dsl.count "mid";
          Dsl.count "alpha";
          Dsl.egress_port 1;
        ];
    }
  in
  let rt = Runtime.create () in
  let bits = P.serialize (P.udp_ipv4 ()) in
  List.iter
    (fun engine ->
      let obs = Interp.process ~engine program rt ~ingress_port:0 bits in
      Alcotest.(check (list (pair string int)))
        "counters in first-increment order, not alphabetical"
        [ ("zeta", 2); ("alpha", 2); ("mid", 1) ]
        obs.Interp.counters)
    [ `Tree; `Staged ]

(* ---------------- matcher specialization ---------------- *)

(* Ternary table over eth.ethertype; priorities, specificity and install
   order all get a say. *)
let tern_bundle entries =
  let base = Programs.reflector.Programs.program in
  {
    Programs.program =
      {
        base with
        Ast.p_name = "tern_ties";
        p_actions =
          [
            Dsl.action "to1" [] [ Dsl.egress_port 1 ];
            Dsl.action "to2" [] [ Dsl.egress_port 2 ];
            Dsl.action "to3" [] [ Dsl.egress_port 3 ];
            Dsl.action "nop" [] [];
          ];
        p_tables =
          [
            Dsl.table "t" [ (Dsl.fld "eth" "ethertype", Ast.Ternary) ]
              [ "to1"; "to2"; "to3"; "nop" ] ~default:"nop" ();
          ];
        p_ingress = [ Dsl.apply "t" ];
      };
    entries;
    description = "ternary tie-break exerciser";
  }

let tern_entry ?priority v mask action =
  ("t", Entry.make ?priority ~keys:[ Entry.ternary (Value.of_int ~width:16 v) (Value.of_int ~width:16 mask) ] ~action ())

let expect_action what (obs : Interp.observation) action =
  match obs.Interp.tables with
  | [ ("t", _, a) ] -> Alcotest.(check string) what action a
  | other ->
      Alcotest.failf "%s: unexpected table trace (%d applies)" what (List.length other)

let test_ternary_tie_breaks () =
  let dut =
    deploy
      (tern_bundle
         [
           tern_entry ~priority:10 0x0800 0xFF00 "to1";
           (* same priority, more specific mask: wins on exact 0x0800 *)
           tern_entry ~priority:10 0x0800 0xFFFF "to2";
           (* identical to the previous row, installed later: loses *)
           tern_entry ~priority:10 0x0800 0xFFFF "to3";
         ])
  in
  let ipv4 = P.serialize (P.udp_ipv4 ()) in
  let obs = check_both ~what:"specificity tie" dut ~port:0 ipv4 in
  expect_action "specificity beats install order" obs "to2";
  (* runtime mutation mid-stream: the staged matcher must rebuild *)
  let prog, rt = dut in
  Runtime.add_exn prog rt ~table:"t"
    (snd (tern_entry ~priority:99 0 0 "to3"));
  let obs = check_both ~what:"priority after generation bump" dut ~port:0 ipv4 in
  expect_action "priority beats specificity" obs "to3"

let test_exact_hash_winner () =
  (* single exact key -> hash matcher; duplicate keys keep the first row *)
  let base = Programs.reflector.Programs.program in
  let b =
    {
      Programs.program =
        {
          base with
          Ast.p_name = "hash_dup";
          p_actions =
            [
              Dsl.action "to1" [] [ Dsl.egress_port 1 ];
              Dsl.action "to2" [] [ Dsl.egress_port 2 ];
              Dsl.action "nop" [] [];
            ];
          p_tables =
            [
              Dsl.table "t" [ (Dsl.fld "eth" "ethertype", Ast.Exact) ]
                [ "to1"; "to2"; "nop" ] ~default:"nop" ();
            ];
          p_ingress = [ Dsl.apply "t" ];
        };
      entries =
        [
          ("t", Entry.make ~keys:[ Entry.exact (Value.of_int ~width:16 0x0800) ] ~action:"to1" ());
          ("t", Entry.make ~keys:[ Entry.exact (Value.of_int ~width:16 0x0800) ] ~action:"to2" ());
        ];
      description = "exact duplicate exerciser";
    }
  in
  let dut = deploy b in
  let obs = check_both ~what:"exact dup" dut ~port:0 (P.serialize (P.udp_ipv4 ())) in
  expect_action "first install wins among exact duplicates" obs "to1";
  let obs = check_both ~what:"exact miss" dut ~port:0 (P.serialize (P.arp_request ())) in
  expect_action "miss falls to default" obs "nop"

let test_lpm_zero_and_long () =
  (* /0 must match everything; longer prefixes must still beat it *)
  let b = Programs.basic_router in
  let dut = deploy b in
  let prog, rt = dut in
  Runtime.add_exn prog rt ~table:"ipv4_lpm"
    (Entry.make
       ~keys:[ Entry.lpm (Value.of_int ~width:32 0) 0 ]
       ~action:"set_nexthop"
       ~args:[ Value.of_int ~width:9 7; Value.of_int ~width:48 0xFE ]
       ());
  let port_of dst =
    let obs =
      check_both ~what:(Printf.sprintf "lpm %Lx" dst) dut ~port:0
        (P.serialize (P.udp_ipv4 ~dst ()))
    in
    match obs.Interp.result with
    | Interp.Forwarded (p, _) -> p
    | Interp.Dropped r -> Alcotest.failf "lpm %Lx dropped: %s" dst r
  in
  check_int "/0 catches previously-missing dst" 7 (port_of 0x08080808L);
  check_int "/16 still beats /0" 2 (port_of 0x0A010203L);
  check_int "/8 still beats /0" 1 (port_of 0x0A020304L)

(* ---------------- fuzz-driven differential (jobs 1 and 4) ---------------- *)

let file_bundles =
  lazy
    (List.map
       (fun f ->
         (* dune runtest copies the .p4 files next to the binary; fall back
            to the source tree when run by hand via dune exec *)
         let f =
           if Sys.file_exists f then f else Filename.concat "examples/programs" f
         in
         match P4front.Front.parse_file f with
         | Ok b -> b
         | Error e ->
             Alcotest.failf "parse %s: %d:%d %s" f e.P4front.Front.line
               e.P4front.Front.col e.P4front.Front.message)
       [ "router.p4"; "kv_cache.p4"; "heavy_hitter.p4" ])

let mutated_cases ~per_bundle seed =
  let prng = Prng.create seed in
  List.concat_map
    (fun (b : Programs.bundle) ->
      let lay = Mutate.layout_of b in
      let base =
        [|
          P.serialize (P.udp_ipv4 ~dst:0x0A000005L ());
          Bitstring.random prng lay.Mutate.total_bits;
        |]
      in
      List.init per_bundle (fun i ->
          let bits = Mutate.mutate lay prng (Prng.choose prng base) in
          (b, i, bits)))
    (Lazy.force file_bundles)

let prop_fuzz_differential_seq =
  QCheck.Test.make ~count:60 ~name:"staged == tree on mutated packets (jobs=1)"
    QCheck.(int_bound 0xFFFFFF)
    (fun seed ->
      List.for_all
        (fun ((b : Programs.bundle), i, bits) ->
          let prog, rt = deploy b in
          let rega = Regstate.create prog and regb = Regstate.create prog in
          let oa =
            Interp.process ~engine:`Tree ~regs:rega prog rt ~ingress_port:(i mod 4) bits
          in
          let ob =
            Interp.process ~engine:`Staged ~regs:regb prog rt ~ingress_port:(i mod 4)
              bits
          in
          obs_equal oa ob && regs_equal prog rega regb)
        (mutated_cases ~per_bundle:6 seed))

let test_fuzz_differential_par () =
  (* same differential, fanned over 4 domains: exercises the per-domain
     compile and instantiation caches *)
  let duts =
    List.map (fun b -> (b, deploy b)) (Lazy.force file_bundles)
  in
  let cases =
    Array.of_list
      (List.concat_map
         (fun seed ->
           List.map
             (fun ((b : Programs.bundle), _, bits) ->
               let _, dut = List.find (fun (b', _) -> b' == b) duts in
               (dut, bits))
             (mutated_cases ~per_bundle:8 seed))
         [ 11; 222; 3333 ])
  in
  let results =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map_chunks pool ~chunk:4
          (fun ~worker:_ i ((prog, rt), bits) ->
            let rega = Regstate.create prog and regb = Regstate.create prog in
            let oa =
              Interp.process ~engine:`Tree ~regs:rega prog rt ~ingress_port:(i mod 4)
                bits
            in
            let ob =
              Interp.process ~engine:`Staged ~regs:regb prog rt ~ingress_port:(i mod 4)
                bits
            in
            obs_equal oa ob && regs_equal prog rega regb)
          cases)
  in
  Array.iteri
    (fun i ok -> if not ok then Alcotest.failf "jobs=4 case %d diverged" i)
    results

(* ---------------- device parity: staged device vs reference walk ---------------- *)

(* A packet's fate at the device's check point, as the reference computes
   it: emitted on a port, dropped by program semantics, or swallowed by an
   injected fault. *)
type fate = Out of int * Bitstring.t | Drop of string | Lost of string

exception Swallowed of string

(* The reference the staged device is checked against: a walk of the
   pipeline's program through the tree modules under the pipeline's own
   quirk hooks, carrying the device's fault model at the same points —
   drop-class faults on stage entry (entries counted across packets until
   the fault is replaced or cleared), [Corrupt_field] right after a
   table's apply callback and on the other stages after entry or parse,
   [Stuck_miss] through [table_always_miss]. Registers persist across
   packets, as on the device. *)
type reference = {
  r_pipeline : Pipeline.t;
  r_runtime : Runtime.t;
  r_regs : Regstate.t;
  mutable r_fault : (string * Fault.t) option;
  mutable r_entries : int;
}

let reference_walk r ~port bits =
  let p = r.r_pipeline in
  let program = p.Pipeline.program in
  let fault_at stage =
    match r.r_fault with Some (s, f) when String.equal s stage -> Some f | _ -> None
  in
  let stage_of_table tbl =
    List.find_map
      (fun (s : Pipeline.stage) ->
        match s.Pipeline.s_kind with
        | Pipeline.Match_action t when String.equal t tbl -> Some s.Pipeline.s_name
        | _ -> None)
      p.Pipeline.stages
  in
  let env = Env.create program in
  let enter stage =
    match fault_at stage with
    | Some Fault.Drop_at_stage -> raise (Swallowed stage)
    | Some (Fault.Intermittent_drop n) ->
        r.r_entries <- r.r_entries + 1;
        if n > 0 && r.r_entries mod n = 0 then raise (Swallowed stage)
    | _ -> ()
  in
  let corrupt stage =
    match fault_at stage with
    | Some (Fault.Corrupt_field (h, f, mask)) when Env.is_valid env h ->
        let cur = Env.get_field env h f in
        Env.set_field env h f (Value.logxor cur (Value.make ~width:(Value.width cur) mask))
    | _ -> ()
  in
  let base = p.Pipeline.exec_hooks in
  let table_always_miss tbl =
    base.Exec.table_always_miss tbl
    ||
    match Option.bind (stage_of_table tbl) fault_at with
    | Some Fault.Stuck_miss -> true
    | _ -> false
  in
  let on_table ~table ~hit:_ ~action:_ =
    Option.iter
      (fun stage ->
        enter stage;
        corrupt stage)
      (stage_of_table table)
  in
  let ctx =
    Exec.make_ctx ~hooks:{ base with Exec.table_always_miss } ~on_table ~regs:r.r_regs ~env
      ~runtime:r.r_runtime ()
  in
  Env.set_std env Ast.Ingress_port (Value.of_int ~width:9 port);
  try
    enter "parser";
    let outcome = Parse.run ~hooks:p.Pipeline.parse_hooks ctx bits in
    corrupt "parser";
    if not outcome.Parse.accepted then
      Drop ("parser:" ^ P4ir.Stdmeta.error_name outcome.Parse.error)
    else begin
      Exec.set_phase ctx Exec.Ingress;
      Exec.run_stmts ctx program.Ast.p_ingress;
      if Env.dropped env then Drop "ingress"
      else begin
        enter "egress";
        corrupt "egress";
        Exec.set_phase ctx Exec.Egress;
        Exec.run_stmts ctx program.Ast.p_egress;
        if Env.dropped env then Drop "egress"
        else begin
          enter "deparser";
          corrupt "deparser";
          let out = Deparse.run ~update_ipv4_checksum:p.Pipeline.update_ipv4_checksum env in
          Out (Value.to_int (Env.get_std env Ast.Egress_spec), out)
        end
      end
    end
  with Swallowed stage -> Lost stage

let install (b : Programs.bundle) rt =
  match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* A staged device and its reference, each with its own control plane
   and register store. *)
let build_pair ?(quirks = Quirks.default) (b : Programs.bundle) =
  let pipeline = (Compile.compile_exn ~quirks b.Programs.program).Compile.pipeline in
  let d = Device.create pipeline in
  install b (Device.runtime d);
  let r_runtime = Runtime.create () in
  install b r_runtime;
  ( d,
    {
      r_pipeline = pipeline;
      r_runtime;
      r_regs = Regstate.create pipeline.Pipeline.program;
      r_fault = None;
      r_entries = 0;
    } )

let inject_fault (d, r) ~stage fault =
  Device.inject_fault d ~stage fault;
  r.r_fault <- Some (stage, fault);
  r.r_entries <- 0

let clear_faults (d, r) =
  Device.clear_faults d;
  r.r_fault <- None;
  r.r_entries <- 0

let fate_of_disp = function
  | Device.Emitted o -> Out (o.Device.o_port, o.Device.o_bits)
  | Device.Dropped_pipeline reason -> Drop reason
  | Device.Lost_in_stage stage -> Lost stage
  | Device.Dropped_queue -> Alcotest.fail "probe tail-dropped at the input queue"

let fate_equal a b =
  match (a, b) with
  | Out (pa, ba), Out (pb, bb) -> pa = pb && Bitstring.equal ba bb
  | Drop ra, Drop rb | Lost ra, Lost rb -> String.equal ra rb
  | _ -> false

let show_fate = function
  | Out (p, bits) -> Printf.sprintf "Out(port=%d %s)" p (Bitstring.to_hex bits)
  | Drop r -> Printf.sprintf "Drop(%s)" r
  | Lost s -> Printf.sprintf "Lost(%s)" s

let device_probe_set =
  [
    P.serialize (P.udp_ipv4 ~dst:0x0A000005L ());
    P.serialize (P.udp_ipv4 ~dst:0x0A010203L ());
    P.serialize (P.udp_ipv4 ~dst:0xC0A80001L ());
    P.serialize (P.udp_ipv4 ~dst:0x08080808L ());
    P.serialize (P.arp_request ());
    P.serialize
      (P.map_ipv4 (fun ip -> { ip with Ipv4.checksum = 0xBADL }) (P.udp_ipv4 ()));
    Bitstring.of_hex "45000014";
  ]

(* Inject every probe into the device and the reference, failing on the
   first divergence; returns the agreed fates. *)
let run_pair_and_compare ~what (d, r) bits_list =
  List.mapi
    (fun i bits ->
      let port = i mod 4 in
      let _, disp = Device.inject d ~source:(Device.External port) bits in
      let got = fate_of_disp disp and want = reference_walk r ~port bits in
      if not (fate_equal got want) then
        Alcotest.failf
          "%s pkt %d: device diverges from the reference\n  reference: %s\n  device:    %s" what
          i (show_fate want) (show_fate got);
      got)
    bits_list

let test_device_parity_quirked () =
  (* default quirks include the reject-continue bug: the arp probe takes the
     quirk path through the whole pipeline *)
  ignore
    (run_pair_and_compare ~what:"basic_router/default-quirks"
       (build_pair Programs.basic_router)
       device_probe_set);
  ignore
    (run_pair_and_compare ~what:"basic_router/no-quirks"
       (build_pair ~quirks:Quirks.none Programs.basic_router)
       device_probe_set);
  ignore
    (run_pair_and_compare ~what:"acl/all-quirks"
       (build_pair ~quirks:Quirks.all Programs.acl_firewall)
       (List.map P.serialize
          [
            P.tcp_ipv4 ~src:0x0A000001L ~dst:0x0A010001L ~dst_port:23L ();
            P.tcp_ipv4 ~src:0xC0A80001L ~dst:0x0A010005L ~dst_port:80L ();
            P.udp_ipv4 ~src:0x0A000001L ~dst:0x0A000002L ~dst_port:4321L ();
          ]))

let test_device_parity_registers () =
  let ((d, r) as pair) = build_pair ~quirks:Quirks.none Programs.rate_limiter in
  let bursts = List.init 6 (fun _ -> P.serialize (P.udp_ipv4 ~dst:0x0A000005L ())) in
  ignore (run_pair_and_compare ~what:"rate_limiter" pair bursts);
  if not (regs_equal r.r_pipeline.Pipeline.program (Device.registers d) r.r_regs) then
    Alcotest.fail "rate_limiter: device register state diverges from the reference"

let test_device_parity_faults () =
  let faults =
    [
      ("ma:ipv4_lpm", Fault.Stuck_miss);
      ("ma:ipv4_lpm", Fault.Corrupt_field ("ipv4", "dst", 0x00FF0000L));
      ("egress", Fault.Drop_at_stage);
      ("deparser", Fault.Intermittent_drop 3);
      ("parser", Fault.Intermittent_drop 2);
    ]
  in
  let probes = device_probe_set @ device_probe_set in
  let clean =
    run_pair_and_compare ~what:"unfaulted" (build_pair Programs.basic_router) probes
  in
  List.iter
    (fun (stage, fault) ->
      let what = Printf.sprintf "fault %s@%s" (Format.asprintf "%a" Fault.pp fault) stage in
      let pair = build_pair Programs.basic_router in
      inject_fault pair ~stage fault;
      let faulted = run_pair_and_compare ~what pair probes in
      (* the fault must change some fate, or device and reference could
         agree by both ignoring it *)
      if List.for_all2 fate_equal faulted clean then Alcotest.failf "%s changed no fate" what;
      (* clearing restores the unfaulted behaviour *)
      clear_faults pair;
      ignore
        (run_pair_and_compare ~what:(Printf.sprintf "cleared fault @%s" stage) pair
           device_probe_set))
    faults

let () =
  Alcotest.run "compilecore"
    [
      ( "engine matrix",
        [ Alcotest.test_case "all bundles, all probes" `Quick test_engine_matrix ] );
      ( "counters",
        [ Alcotest.test_case "first-increment order pinned" `Quick test_counter_order_pinned ] );
      ( "matchers",
        [
          Alcotest.test_case "ternary tie-breaks + rebuild" `Quick test_ternary_tie_breaks;
          Alcotest.test_case "exact hash winner" `Quick test_exact_hash_winner;
          Alcotest.test_case "lpm /0 and overlap" `Quick test_lpm_zero_and_long;
        ] );
      ( "fuzz differential",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_differential_seq;
          Alcotest.test_case "mutated packets, jobs=4" `Quick test_fuzz_differential_par;
        ] );
      ( "device parity",
        [
          Alcotest.test_case "quirked pipelines" `Quick test_device_parity_quirked;
          Alcotest.test_case "register state" `Quick test_device_parity_registers;
          Alcotest.test_case "injected faults" `Quick test_device_parity_faults;
        ] );
    ]
