module Compilecore = P4ir.Compilecore
module Device = Target.Device
module Bitstring = Bitutil.Bitstring

type rule_state = {
  rule : Wire.rule;
  applies : Compilecore.inst -> bool;  (* compiled filter; always true without one *)
  holds : Compilecore.inst -> bool;  (* compiled expect *)
  mutable matched : int;
  mutable passed : int;
  mutable failed : int;
}

type t = {
  capture_limit : int;
  mutable rules : rule_state list;
  mutable total_seen : int;
  (* the program compiled with [check_parse_hooks] and one instance of it,
     built on the first non-empty [configure]: a checker that never arms
     a rule never pays the compile *)
  staged : (Compilecore.t * Compilecore.inst) Lazy.t;
  mutable captures : Wire.capture list;  (* newest first, bounded *)
  mutable n_captures : int;
  lat : Stats.Histogram.t;
  rate : Stats.Rate.t;
  (* cumulative verdict counters in the device registry; unlike the
     per-test-run [rule_state] tallies, [clear] never resets these *)
  c_seen : Stats.Counter.t;
  c_pass : Stats.Counter.t;
  c_fail : Stats.Counter.t;
}

(* the checker observes; it never drops what it parses *)
let check_parse_hooks =
  { P4ir.Parse.on_reject = `Continue; verify_checksum = false; max_steps = 64 }

let rec judge t inst (out : Device.output) = function
  | [] -> ()
  | rs :: rest ->
      if rs.applies inst then begin
        rs.matched <- rs.matched + 1;
        if rs.holds inst then begin
          rs.passed <- rs.passed + 1;
          Stats.Counter.incr t.c_pass
        end
        else begin
          rs.failed <- rs.failed + 1;
          Stats.Counter.incr t.c_fail;
          if t.n_captures < t.capture_limit then begin
            t.captures <-
              {
                Wire.cap_rule = rs.rule.Wire.r_name;
                cap_port = out.Device.o_port;
                cap_time_ns = out.Device.o_out_time_ns;
                cap_bits = out.Device.o_bits;
              }
              :: t.captures;
            t.n_captures <- t.n_captures + 1
          end
        end
      end;
      judge t inst out rest

let on_output t (out : Device.output) =
  t.total_seen <- t.total_seen + 1;
  Stats.Counter.incr t.c_seen;
  Stats.Histogram.add t.lat (out.Device.o_out_time_ns -. out.Device.o_in_time_ns);
  Stats.Rate.record t.rate ~now_ns:out.Device.o_out_time_ns
    ~bytes:(Bitstring.byte_length out.Device.o_bits);
  (* with no rules armed (soak background traffic outside a validation
     burst, fabric forwarding hops) the tap stays at counter-and-histogram
     cost; otherwise one staged parse of the emission, with the observed
     port as [egress_spec], feeds every rule's compiled closures *)
  if t.rules <> [] then begin
    let _, inst = Lazy.force t.staged in
    Compilecore.reset inst;
    Compilecore.run_parser inst out.Device.o_bits;
    Compilecore.set_egress_spec inst out.Device.o_port;
    judge t inst out t.rules
  end

let create ?(capture_limit = 64) ~program device =
  let metrics = Device.metrics device in
  let staged =
    lazy
      (let cp = Compilecore.compile ~parse_hooks:check_parse_hooks program in
       (cp, Compilecore.instantiate cp ~runtime:(P4ir.Runtime.create ())))
  in
  let t =
    {
      capture_limit;
      rules = [];
      total_seen = 0;
      staged;
      captures = [];
      n_captures = 0;
      lat = Stats.Histogram.create ();
      rate = Stats.Rate.create ();
      c_seen =
        Telemetry.Registry.counter metrics
          ~help:"emissions the checker observed at the check point" "checker/seen";
      c_pass =
        Telemetry.Registry.counter metrics
          ~help:"rule evaluations that held" "checker/pass";
      c_fail =
        Telemetry.Registry.counter metrics
          ~help:"rule evaluations that failed" "checker/fail";
    }
  in
  Device.set_check_tap device (fun out -> on_output t out);
  t

(* Each filter and expect is compiled once here, so judging an emission
   runs closures over the staged parse. *)
let configure t rules =
  t.rules <-
    (match rules with
    | [] -> []
    | _ ->
        let cp, _ = Lazy.force t.staged in
        let compile = Compilecore.compile_predicate cp in
        List.map
          (fun (rule : Wire.rule) ->
            {
              rule;
              applies =
                (match rule.Wire.r_filter with None -> fun _ -> true | Some f -> compile f);
              holds = compile rule.Wire.r_expect;
              matched = 0;
              passed = 0;
              failed = 0;
            })
          rules)

let rules t = List.map (fun rs -> rs.rule) t.rules

let summary t =
  {
    Wire.cs_total_seen = t.total_seen;
    cs_pps = Stats.Rate.packets_per_sec t.rate;
    cs_gbps = Stats.Rate.gbps t.rate;
    cs_lat_mean_ns = Stats.Histogram.mean t.lat;
    cs_lat_p50_ns = Stats.Histogram.percentile t.lat 50.0;
    cs_lat_p99_ns = Stats.Histogram.percentile t.lat 99.0;
    cs_rules =
      List.map
        (fun rs ->
          {
            Wire.rs_name = rs.rule.Wire.r_name;
            rs_matched = rs.matched;
            rs_passed = rs.passed;
            rs_failed = rs.failed;
          })
        t.rules;
    cs_captures = List.rev t.captures;
  }

let latency t = t.lat

let throughput t = t.rate

let clear t =
  t.total_seen <- 0;
  t.captures <- [];
  t.n_captures <- 0;
  Stats.Histogram.clear t.lat;
  Stats.Rate.clear t.rate;
  List.iter
    (fun rs ->
      rs.matched <- 0;
      rs.passed <- 0;
      rs.failed <- 0)
    t.rules
