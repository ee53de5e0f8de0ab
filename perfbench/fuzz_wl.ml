(* fuzz: a coverage-guided differential campaign on basic_router with the
   shipped quirks, on the async engine (the `netdebug fuzz` default
   engine) at one job. In host time it is a closed loop of whole
   campaigns of a fixed budget, all from the command-line seed.

   The timed loop runs one job: at two, on a two-vCPU shared host, a
   campaign waits for whichever vCPU the host slowed, and its wall-clock
   10th-percentile campaign rate spread 0.14 of its median over five runs
   against 0.095 at one; the host clock probe, on one vCPU, can only
   track a campaign that runs on one.
   The traced run still measures two jobs against one (par.scaling). *)

open Common
open Fuzz
module Campaign = Fuzz.Campaign

let bundle = P4ir.Programs.basic_router
let budget = 50_000
let jobs = 1

let campaign ?(jobs = jobs) ?(budget = budget) ~seed () =
  Campaign.run ~deterministic:false ~jobs ~budget ~seed bundle

(* The campaign's verdict set: six divergences, all blamed on the reject
   quirk. Coverage saturates at 25 edges; the deterministic engine's
   count is a pure function of the seed, recorded for some seeds and
   otherwise within its seed-to-seed tail of 3 edges below saturation. *)
let want_divergences = 6
let max_edges = 25
let min_edges = max_edges - 3
let want_quirk = "reject-unimplemented"

let culpable (d : Campaign.divergence) = List.map Sdnet.Quirks.name d.Campaign.dv_quirks

let fingerprints (r : Campaign.report) =
  List.sort compare (List.map (fun d -> d.Campaign.dv_fingerprint) r.Campaign.rp_divergences)

(* The deterministic engine's campaign at the same seed and budget is
   the run's reference: its report is a pure function of (seed, budget),
   so its edge count is checked exactly. The async engine guarantees the
   same verdict set, but its coverage tail moves with the merge schedule
   by up to 3 edges (see Fuzz.Campaign), so its edges are checked within
   that band. *)
let reference c ~seed =
  let r = Campaign.run ~deterministic:true ~jobs:1 ~budget ~seed bundle in
  let edges = r.Campaign.rp_edges in
  Printf.eprintf "fuzz: deterministic engine covers %d edges\n%!" edges;
  (match List.assoc_opt seed Reference.fuzz_edges with
  | Some want -> check_eq c "fuzz: deterministic coverage edges" ~pp:string_of_int ~want edges
  | None ->
      check c (Printf.sprintf "fuzz: %d deterministic coverage edges" edges)
        (edges >= min_edges && edges <= max_edges));
  r

let check_report c ~(reference : Campaign.report) (r : Campaign.report) =
  check_eq c "fuzz: divergences" ~pp:string_of_int ~want:want_divergences
    (List.length r.Campaign.rp_divergences);
  check c "fuzz: verdict set differs from the deterministic engine's"
    (fingerprints r = fingerprints reference);
  check c
    (Printf.sprintf "fuzz: %d coverage edges, outside the async band around %d" r.Campaign.rp_edges
       reference.Campaign.rp_edges)
    (abs (r.Campaign.rp_edges - reference.Campaign.rp_edges) <= 3);
  List.iter
    (fun d ->
      check_eq c "fuzz: culpable quirks" ~pp:(String.concat ",") ~want:[ want_quirk ] (culpable d))
    r.Campaign.rp_divergences

(* A failure is a divergence that no quirk explains. Executions that
   raise abort the campaign, which fails the run outright. *)
let failures (r : Campaign.report) =
  List.length (List.filter (fun d -> d.Campaign.dv_quirks = []) r.Campaign.rp_divergences)

(* A set-up sample is the mean of [setup_batch] one-execution campaigns:
   the eight oracle deploys happen inside Campaign.run and take about a
   millisecond together. One more is taken after every [setup_every]
   timed campaigns. *)
let setup_samples = 9
let setup_batch = 50
let setup_every = 8
let setup clock ~seed = setup_sample clock ~batch:setup_batch (fun () -> ignore (campaign ~budget:1 ~seed ()))

let run ~seed ~seconds =
  let c = checks () in
  let clock = Hostclock.create () in
  let setups = ref (List.init setup_samples (fun _ -> setup clock ~seed)) in
  let reference = reference c ~seed in
  check_report c ~reference reference;
  check_report c ~reference (campaign ~seed ());
  let lat = ref [] and rates = ref [] and wall_rates = ref [] in
  let execs = ref 0 and wall = ref 0. and fails = ref 0 in
  repeat ~seconds (fun i ->
      if i mod setup_every = setup_every - 1 then setups := setup clock ~seed :: !setups;
      (* every campaign starts on a collected heap, as a soak does, so
         that major collections of earlier campaigns' garbage do not land
         in whichever campaign happens to run next *)
      Gc.full_major ();
      let r, dt, at_ref = Hostclock.bracket clock (fun () -> campaign ~seed ()) in
      check_report c ~reference r;
      lat := (at_ref *. 1e3) :: !lat;
      rates := (float_of_int r.Campaign.rp_total_executions /. at_ref) :: !rates;
      wall_rates := (float_of_int r.Campaign.rp_total_executions /. dt) :: !wall_rates;
      wall := !wall +. dt;
      execs := !execs + r.Campaign.rp_total_executions;
      fails := !fails + failures r);
  {
    e_checks = c;
    e_attempted = !execs;
    e_failed = !fails;
    e_ops = !execs;
    e_wall = !wall;
    e_lat_ms = !lat;
    e_rates = !rates;
    e_wall_rates = !wall_rates;
    e_setups = !setups;
    e_outputs = [ ("verdicts", String.concat "\n" (fingerprints reference)) ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* The async scheduler cannot be rebuilt from public calls, so the traced
   run executes one shard's loop on a single domain: the same seed corpus,
   energy-weighted pick and mutate, batched oracle execution in windows
   of 64, corpus admission on new coverage, then minimization and quirk
   attribution of each first sighting. It checks the verdict set, not
   byte identity. *)
let templates () =
  [
    Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000001L ());
    Packet.serialize (Packet.tcp_ipv4 ~dst:0xC0A80101L ());
    Packet.serialize (Packet.make [ Packet.Eth (Packet.Eth.make ()) ] ());
  ]

let window = 64

let traced_loop tr ~seed ~budget =
  let root = Tracer.enter tr "fuzz" in
  let oracle = Tracer.span tr "harness.deploy" (fun () -> Oracle.create bundle) in
  let layout = Mutate.layout_of bundle in
  let corpus = Corpus.create () in
  let seeds = templates () in
  List.iter (Corpus.add corpus) seeds;
  let prng = Bitutil.Prng.create seed in
  let pending = ref seeds in
  let seen = Hashtbl.create 8 and sightings = ref [] in
  let useful = ref 0 and executed = ref 0 in
  let sample = ref [] in
  while !executed < budget do
    let n = min window (budget - !executed) in
    Tracer.span tr "oracle.window" (fun () ->
        Oracle.with_batch oracle (fun () ->
            for _ = 1 to n do
              let input, parent =
                match !pending with
                | s :: rest ->
                    pending := rest;
                    (s, None)
                | [] ->
                    Tracer.span tr "mutate" (fun () ->
                        let p = Corpus.pick corpus prng in
                        (Mutate.mutate layout prng (Corpus.bits p), Some p))
              in
              let before = Coverage.edges (Oracle.coverage oracle) in
              let x = Tracer.span tr "oracle.exec" (fun () -> Oracle.execute oracle input) in
              (match parent with
              | Some p when Coverage.edges (Oracle.coverage oracle) > before ->
                  Tracer.span tr "corpus" (fun () ->
                      Corpus.add corpus input;
                      Corpus.reward corpus p);
                  incr useful
              | Some _ | None -> ());
              (match x.Oracle.x_divergence with
              | Some d when not (Hashtbl.mem seen d.Oracle.d_fingerprint) ->
                  Hashtbl.replace seen d.Oracle.d_fingerprint ();
                  sightings := (input, d.Oracle.d_fingerprint) :: !sightings
              | Some _ | None -> ());
              if !executed land 15 = 0 then sample := input :: !sample;
              incr executed
            done))
  done;
  let divergences =
    List.rev_map
      (fun (input, fp) ->
        Tracer.span tr "minimize" (fun () ->
            let repro = Minimize.minimize oracle layout ~fingerprint:fp input in
            (fp, List.map Sdnet.Quirks.name (Oracle.attribute oracle repro))))
      !sightings
  in
  Tracer.leave tr root;
  (oracle, divergences, !useful, !sample)

(* The reference interpreter alone on a sample of the executed inputs. *)
let spec_replay probe inputs =
  let rt = Netdebug.Usecases.Functional.oracle_runtime bundle in
  let program = bundle.P4ir.Programs.program in
  List.iter
    (fun input ->
      Tracer.span probe "spec.process" (fun () ->
          ignore
            (P4ir.Interp.process program rt ~ingress_port:Netdebug.Harness.generator_port input)))
    inputs

let traced_budget = 50_000

let traced tr ~probe ~seed ~seconds:_ ~(untraced : e2e) =
  let c = checks () in
  let oracle, divergences, useful, sample = traced_loop tr ~seed ~budget:traced_budget in
  spec_replay probe sample;
  let fps = List.sort compare (List.map fst divergences) in
  check_eq c "fuzz: traced divergences" ~pp:string_of_int ~want:want_divergences (List.length fps);
  List.iter
    (fun (_, q) -> check_eq c "fuzz: traced culpable quirks" ~pp:(String.concat ",") ~want:[ want_quirk ] q)
    divergences;
  check_reproduces c ~what:"fuzz" ~untraced:untraced.e_outputs [ ("verdicts", String.concat "\n" fps) ];
  (* parallel scaling: the same campaign at one and at two jobs *)
  let rate j =
    median
      (List.init 3 (fun _ ->
           let r, dt = timed (fun () -> campaign ~jobs:j ~seed ()) in
           float_of_int r.Campaign.rp_total_executions /. dt))
  in
  let rate1 = rate 1 in
  let scaling = ratio (rate 2) rate1 in
  let reg = Oracle.metrics oracle in
  let execs = float_of_int (Oracle.executions oracle) in
  let calls name = float_of_int (Tracer.calls tr name) in
  let spec_n = float_of_int (Tracer.calls probe "spec.process") in
  {
    t_checks = c;
    t_attempted = Oracle.executions oracle;
    t_failed = List.length (List.filter (fun (_, q) -> q = []) divergences);
    t_ops = traced_budget;
    (* the traced loop runs on one domain: its baseline is one job *)
    t_base_s_per_op = 1. /. rate1;
    t_counts = program_counts reg @ [ ("fuzz.edges", Coverage.edges (Oracle.coverage oracle)) ];
    t_layers =
      [
        ("mutate.us_per_call", 1e6 *. ratio (Tracer.self_s tr "mutate") (calls "mutate"));
        ("oracle.us_per_exec", 1e6 *. ratio (Tracer.self_s tr "oracle.exec") (calls "oracle.exec"));
        ("oracle.words_per_exec", ratio (Tracer.self_words tr "oracle.exec") (calls "oracle.exec"));
        ("corpus.useful_ratio", ratio (float_of_int useful) execs);
        ("minimize.ms", 1e3 *. ratio (Tracer.self_s tr "minimize") (calls "minimize"));
        ("spec.us_per_pkt", 1e6 *. ratio (Tracer.self_s probe "spec.process") spec_n);
        ("spec.words_per_pkt", ratio (Tracer.self_words probe "spec.process") spec_n);
        ("par.scaling", scaling);
        ("harness.deploy_ms", 1e3 *. Tracer.self_s tr "harness.deploy");
      ];
  }
