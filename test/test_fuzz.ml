(* Tests for the coverage-guided differential fuzzing engine: coverage
   map, mutators, corpus scheduling, oracle, minimizer and campaigns. *)

module Programs = P4ir.Programs
module Quirks = Sdnet.Quirks
module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng
module Coverage = Fuzz.Coverage
module Mutate = Fuzz.Mutate
module Corpus = Fuzz.Corpus
module Oracle = Fuzz.Oracle
module Campaign = Fuzz.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------------- coverage map ---------------- *)

let test_coverage_interning () =
  let c = Coverage.create () in
  check_bool "first sighting is new" true (Coverage.note c "a");
  check_bool "second sighting is old" false (Coverage.note c "a");
  check_bool "distinct label is new" true (Coverage.note c "b");
  check_int "two edges" 2 (Coverage.edges c);
  check_bool "labels retained" true (List.mem "a" (Coverage.labels c))

let test_coverage_growth () =
  (* the bitmap grows transparently past its initial capacity *)
  let c = Coverage.create () in
  for i = 0 to 4999 do
    ignore (Coverage.note c (string_of_int i))
  done;
  check_int "5000 edges" 5000 (Coverage.edges c);
  check_bool "re-noting stays old" false (Coverage.note c "4999")

(* ---------------- mutators ---------------- *)

let test_layout_fields () =
  let layout = Mutate.layout_of Programs.basic_router in
  check_bool "ethernet+ipv4 fields present" true (Array.length layout.Mutate.fields >= 10);
  check_bool "dictionary harvested" true (Array.length layout.Mutate.dict > 0);
  (* offsets are within the packet prefix they describe *)
  Array.iter
    (fun f ->
      check_bool "field fits" true
        (f.Mutate.fl_off + f.Mutate.fl_width <= layout.Mutate.total_bits))
    layout.Mutate.fields

let test_mutate_deterministic () =
  let layout = Mutate.layout_of Programs.basic_router in
  let seed = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000001L ()) in
  let a = List.init 50 (fun _ -> Mutate.mutate layout (Prng.create 9) seed) in
  (* same PRNG seed, same children *)
  let b = List.init 50 (fun _ -> Mutate.mutate layout (Prng.create 9) seed) in
  ignore a;
  ignore b;
  let p1 = Prng.create 9 and p2 = Prng.create 9 in
  for _ = 1 to 50 do
    check_bool "replayed mutation identical" true
      (Bitstring.equal (Mutate.mutate layout p1 seed) (Mutate.mutate layout p2 seed))
  done

(* ---------------- corpus ---------------- *)

let test_corpus_energy () =
  let c = Corpus.create () in
  Corpus.add c (Bitstring.of_hex "aa");
  Corpus.add c (Bitstring.of_hex "bb");
  check_int "two inputs" 2 (Corpus.size c);
  let item = Corpus.pick c (Prng.create 3) in
  (* rewards double energy up to the cap, so picks stay total-preserving *)
  for _ = 1 to 10 do
    Corpus.reward c item
  done;
  let prng = Prng.create 4 in
  for _ = 1 to 100 do
    ignore (Corpus.pick c prng)
  done;
  check_int "corpus unchanged by picks" 2 (Corpus.size c)

(* ---------------- campaigns ---------------- *)

let guided = lazy (Campaign.run ~budget:2000 ~seed:1 Programs.basic_router)

let test_campaign_deterministic () =
  let a = Lazy.force guided in
  let b = Campaign.run ~budget:2000 ~seed:1 Programs.basic_router in
  check_string "equal seeds render bit-identically" (Campaign.render a)
    (Campaign.render b)

let test_campaign_finds_reject_unimplemented () =
  (* the acceptance regression: on basic_router under the shipped quirks,
     a small guided campaign must rediscover the reject-unimplemented
     divergence and attribute it by knock-out *)
  let r = Lazy.force guided in
  check_bool "at least one divergence" true (List.length r.Campaign.rp_divergences >= 1);
  check_bool "attributed to reject-unimplemented" true
    (List.exists
       (fun d -> List.mem Quirks.Reject_unimplemented d.Campaign.dv_quirks)
       r.Campaign.rp_divergences)

let test_campaign_faithful_is_clean () =
  let r = Campaign.run ~quirks:Quirks.none ~budget:2000 ~seed:1 Programs.basic_router in
  check_int "no divergences against a faithful device" 0
    (List.length r.Campaign.rp_divergences)

let test_seed_corpus_reaches_guided_coverage () =
  (* the oracle loop: a corpus of symbolic-execution covering vectors
     must reach the guided campaign's edge count with zero random
     discovery. Every shard holds the full corpus as pending seeds, so
     budget = shards * |corpus| replays seeds only — no mutation ever
     runs *)
  let b = Programs.basic_router in
  let rt = P4ir.Runtime.create () in
  (match P4ir.Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let corpus =
    Symexec.Testgen.packets
      (Symexec.Testgen.generate
         ~ingress_port:Netdebug.Harness.generator_port b.Programs.program rt)
  in
  check_bool "corpus is path-covering" true (List.length corpus >= 8);
  let budget = 8 * List.length corpus in
  let seeded = Campaign.run ~seed_corpus:corpus ~budget ~seed:1 b in
  let guided = Lazy.force guided in
  check_bool
    (Printf.sprintf "seeded (%d edges, %d execs) >= guided (%d edges, %d execs)"
       seeded.Campaign.rp_edges seeded.Campaign.rp_executions guided.Campaign.rp_edges
       guided.Campaign.rp_executions)
    true
    (seeded.Campaign.rp_edges >= guided.Campaign.rp_edges);
  (* the hardened drop-path witnesses expose the reject quirk directly *)
  check_bool "seed corpus alone finds a divergence" true
    (List.length seeded.Campaign.rp_divergences >= 1)

let test_guided_beats_blind () =
  let budget = 600 in
  let g = Campaign.run ~budget ~seed:1 Programs.basic_router in
  let b = Campaign.run_blind ~budget ~seed:1 Programs.basic_router in
  check_bool
    (Printf.sprintf "guided (%d edges) > blind (%d edges) at equal budget"
       g.Campaign.rp_edges b.Campaign.rp_edges)
    true
    (g.Campaign.rp_edges > b.Campaign.rp_edges)

let test_campaign_jobs_invariant () =
  (* the tentpole guarantee: jobs only schedules the fixed logical shards
     onto domains, so any jobs value renders byte-identically *)
  let seq = Lazy.force guided in
  let par = Campaign.run ~jobs:4 ~budget:2000 ~seed:1 Programs.basic_router in
  check_string "guided: jobs=4 renders identically to jobs=1" (Campaign.render seq)
    (Campaign.render par);
  let bseq = Campaign.run_blind ~budget:500 ~seed:7 Programs.basic_router in
  let bpar = Campaign.run_blind ~jobs:3 ~budget:500 ~seed:7 Programs.basic_router in
  check_string "blind: jobs=3 renders identically to jobs=1" (Campaign.render bseq)
    (Campaign.render bpar)

let test_campaign_odd_budgets () =
  (* budgets below / not divisible by the shard count still run exactly
     [budget] executions with in-range discovery indices *)
  List.iter
    (fun budget ->
      let r = Campaign.run ~jobs:2 ~budget ~seed:3 Programs.basic_router in
      check_int
        (Printf.sprintf "budget %d spent exactly" budget)
        budget r.Campaign.rp_executions;
      List.iter
        (fun d ->
          check_bool "found_at within budget" true
            (d.Campaign.dv_found_at >= 1 && d.Campaign.dv_found_at <= budget))
        r.Campaign.rp_divergences)
    [ 1; 5; 8; 13; 100 ]

let test_campaign_rejects_zero_budget () =
  Alcotest.check_raises "budget must be positive"
    (Invalid_argument "Fuzz.Campaign.run: budget must be positive") (fun () ->
      ignore (Campaign.run ~budget:0 ~seed:1 Programs.basic_router))

let test_report_golden () =
  let r = Lazy.force guided in
  (* dune runtest copies the golden next to the binary; fall back to the
     source tree when the binary is run by hand from the repository root *)
  let file = "fuzz_report.golden" in
  let ic = open_in (if Sys.file_exists file then file else Filename.concat "test" file) in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  check_string "report matches golden" golden (Campaign.render r)

(* ---------------- batched oracle ---------------- *)

let test_exec_batch_singleton_identity () =
  (* exec_batch [| x |] is observably identical to execute x: same
     verdicts, same execution counters, same coverage map *)
  let inputs = Array.of_list (Netdebug.Vectors.fuzz ~seed:5 ~count:40 ()) in
  let one = Oracle.create Programs.basic_router in
  let batched = Oracle.create Programs.basic_router in
  let dev = function
    | Oracle.Dev_forwarded (p, bits) -> Printf.sprintf "fwd:%d:%s" p (Bitstring.to_hex bits)
    | Oracle.Dev_dropped -> "drop"
  in
  let fp = function None -> "-" | Some d -> d.Oracle.d_fingerprint in
  Array.iter
    (fun x ->
      let a = Oracle.execute one x in
      let b = (Oracle.exec_batch batched [| x |]).(0) in
      check_string "same device result" (dev a.Oracle.x_dev) (dev b.Oracle.x_dev);
      check_string "same fingerprint" (fp a.Oracle.x_divergence) (fp b.Oracle.x_divergence))
    inputs;
  check_int "same executions" (Oracle.executions one) (Oracle.executions batched);
  check_int "same coverage edges"
    (Coverage.edges (Oracle.coverage one))
    (Coverage.edges (Oracle.coverage batched));
  Alcotest.(check (list string))
    "same coverage labels"
    (List.sort compare (Coverage.labels (Oracle.coverage one)))
    (List.sort compare (Coverage.labels (Oracle.coverage batched)))

(* ---------------- async engine ---------------- *)

let fingerprints r =
  List.sort compare (List.map (fun d -> d.Campaign.dv_fingerprint) r.Campaign.rp_divergences)

let test_async_pure_replay_identical () =
  (* with a path-covering seed corpus and budget = shards * |corpus|,
     every execution is a seed replay — no mutation, so nothing
     schedule-dependent remains and the async engine must match the
     barrier engine byte-for-byte at any jobs value *)
  let b = Programs.basic_router in
  let rt = P4ir.Runtime.create () in
  (match P4ir.Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let corpus =
    Symexec.Testgen.packets
      (Symexec.Testgen.generate ~ingress_port:Netdebug.Harness.generator_port
         b.Programs.program rt)
  in
  let budget = 8 * List.length corpus in
  let det = Campaign.run ~seed_corpus:corpus ~budget ~seed:1 b in
  List.iter
    (fun jobs ->
      let a =
        Campaign.run ~jobs ~deterministic:false ~seed_corpus:corpus ~budget ~seed:1 b
      in
      check_string
        (Printf.sprintf "async jobs=%d replays byte-identically" jobs)
        (Campaign.render det) (Campaign.render a);
      check_int "same edges" det.Campaign.rp_edges a.Campaign.rp_edges;
      check_int "same corpus" det.Campaign.rp_corpus a.Campaign.rp_corpus)
    [ 1; 4 ]

(* ---------------- qcheck properties ---------------- *)

(* Minimized reproducers are standalone: replayed on a fresh oracle they
   still diverge, with the same fingerprint the campaign deduped on. *)
let prop_minimized_repros_still_diverge =
  QCheck.Test.make ~count:4 ~name:"minimized repros still diverge"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let r = Campaign.run ~budget:300 ~seed Programs.basic_router in
      List.for_all
        (fun d ->
          let oracle = Oracle.create ~quirks:r.Campaign.rp_quirks Programs.basic_router in
          match (Oracle.execute oracle d.Campaign.dv_repro).Oracle.x_divergence with
          | Some dd -> String.equal dd.Oracle.d_fingerprint d.Campaign.dv_fingerprint
          | None -> false)
        r.Campaign.rp_divergences)

(* The async engine's contract: on a fixed (seed, budget) the minimized
   divergence fingerprint set matches the deterministic engine at every
   jobs value and the budget is spent exactly. Coverage saturates to the
   same core edge set, but its stochastic tail (rare mutation-dependent
   labels) moves by a couple of edges with the merge schedule — both
   engines show the same spread across seeds — so the edge count is
   banded, not exact; the pure-replay test above checks the
   mutation-free configuration bit-exactly. *)
let prop_async_preserves_verdicts =
  QCheck.Test.make ~count:4 ~name:"async preserves verdict set and edge count"
    QCheck.(oneofl [ 1; 2; 5; 7 ])
    (fun seed ->
      let det = Campaign.run ~budget:2000 ~seed Programs.basic_router in
      List.for_all
        (fun jobs ->
          let a =
            Campaign.run ~jobs ~deterministic:false ~budget:2000 ~seed
              Programs.basic_router
          in
          fingerprints a = fingerprints det
          && abs (a.Campaign.rp_edges - det.Campaign.rp_edges) <= 3
          && a.Campaign.rp_executions = 2000)
        [ 1; 4 ])

(* Minimization never grows the input. *)
let prop_repro_no_larger =
  QCheck.Test.make ~count:4 ~name:"minimized repro never larger than the input"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let r = Campaign.run ~budget:300 ~seed Programs.basic_router in
      List.for_all
        (fun d ->
          Bitstring.length d.Campaign.dv_repro <= Bitstring.length d.Campaign.dv_input)
        r.Campaign.rp_divergences)

let () =
  Alcotest.run "fuzz"
    [
      ( "coverage",
        [
          Alcotest.test_case "label interning" `Quick test_coverage_interning;
          Alcotest.test_case "bitmap growth" `Quick test_coverage_growth;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "layout of basic_router" `Quick test_layout_fields;
          Alcotest.test_case "deterministic replay" `Quick test_mutate_deterministic;
        ] );
      ("corpus", [ Alcotest.test_case "energy scheduling" `Quick test_corpus_energy ]);
      ( "campaign",
        [
          Alcotest.test_case "determinism" `Quick test_campaign_deterministic;
          Alcotest.test_case "rediscovers reject-unimplemented" `Quick
            test_campaign_finds_reject_unimplemented;
          Alcotest.test_case "faithful device is clean" `Quick
            test_campaign_faithful_is_clean;
          Alcotest.test_case "guided beats blind" `Quick test_guided_beats_blind;
          Alcotest.test_case "seed corpus reaches guided coverage" `Quick
            test_seed_corpus_reaches_guided_coverage;
          Alcotest.test_case "jobs invariance" `Quick test_campaign_jobs_invariant;
          Alcotest.test_case "odd budgets" `Quick test_campaign_odd_budgets;
          Alcotest.test_case "zero budget rejected" `Quick
            test_campaign_rejects_zero_budget;
          Alcotest.test_case "golden report" `Quick test_report_golden;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exec_batch singleton identity" `Quick
            test_exec_batch_singleton_identity;
        ] );
      ( "async",
        [
          Alcotest.test_case "pure replay identical" `Quick
            test_async_pure_replay_identical;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_async_preserves_verdicts;
          QCheck_alcotest.to_alcotest prop_minimized_repros_still_diverge;
          QCheck_alcotest.to_alcotest prop_repro_no_larger;
        ] );
    ]
