(* Shared pieces of the benchmark: clocks, order statistics, checks,
   registry reads and the result line. *)

module Registry = Telemetry.Registry

let now = Tracer.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear interpolation between closest ranks, as Python's
   statistics.quantiles(method="inclusive") does. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The highest percentile with at least ten samples beyond it, capped at
   p99. A run with fewer than 20 samples has no such percentile above
   its median, so it reports the median: the maximum of a handful of
   samples is set by whichever one the host slowed. *)
let tail_q n = if n < 20 then 0.5 else Float.min 0.99 (1. -. (10. /. float_of_int n))

let tail xs = quantile xs (tail_q (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b

(* Run [f] at least [min_iters] times and until [seconds] have passed. *)
let repeat ~seconds ?(min_iters = 1) f =
  let t0 = now () in
  let i = ref 0 in
  while !i < min_iters || now () -. t0 < seconds do
    f !i;
    incr i
  done

(* One set-up sample: the mean of [batch] calls of [f], each too short
   to time alone, at the reference clock. Workloads take a few samples
   up front and one more every few timed units, outside the units'
   timing, so the median spans the whole run and not only its first
   moments. Each sample starts on a collected heap, so that one taken
   after a timed unit does not pay for that unit's garbage. *)
let setup_sample clock ~batch f =
  Gc.full_major ();
  let (), _, at_ref = Hostclock.bracket clock (fun () -> for _ = 1 to batch do f () done) in
  at_ref /. float_of_int batch

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.

let digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Program counters                                                    *)
(* ------------------------------------------------------------------ *)

let counter reg name = Int64.to_int (Stats.Counter.Set.get (Registry.counter_set reg) name)

let counters reg = Stats.Counter.Set.to_alist (Registry.counter_set reg)

let hist_count reg name =
  List.fold_left
    (fun n (m, _, v) ->
      match v with Registry.Histogram h when m = name -> n + Stats.Histogram.count h | _ -> n)
    0 (Registry.snapshot reg)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* A failed check marks the whole run incorrect and is reported on
   stderr, never folded into a timing. *)
type checks = { mutable failed_checks : string list; mutable passed : int }

let checks () = { failed_checks = []; passed = 0 }

let check c label ok =
  if ok then c.passed <- c.passed + 1
  else begin
    c.failed_checks <- label :: c.failed_checks;
    Printf.eprintf "check failed: %s\n%!" label
  end

let check_eq c label ~pp ~want got =
  check c (Printf.sprintf "%s: want %s, got %s" label (pp want) (pp got)) (want = got)

let all_passed c = c.failed_checks = []

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0.0"

let result_json r =
  let ms =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value) m.m_unit)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " ms)

(* Gc.quick_stat deltas around a phase. *)
type gc_delta = { g_minor_words : float; g_minor : int; g_major : int }

let gc_phase f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    {
      g_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      g_minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      g_major = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* Per-workload seeds are derived, never shared: a workload sees only
   the inputs generated from the command-line seed. *)
let derive seed k = (Hashtbl.hash (seed, k, "perfbench") land 0x3FFFFFFF) + 1

(* What an untraced run measured: [ops] operations in [wall] seconds of
   timed phase, one latency sample per op batch, the op rate of each
   timed unit (a soak, a campaign, a sweep), several set-up samples, and
   the deterministic outputs keyed so a traced run can be compared
   against them. Latencies, rates and set-ups are at the reference clock
   (Hostclock); [wall] and [e_wall_rates] are plain wall time. *)
type e2e = {
  e_checks : checks;
  e_attempted : int;
  e_failed : int;
  e_ops : int;
  e_wall : float;
  e_lat_ms : float list;
  e_rates : float list;
  e_wall_rates : float list;
  e_setups : float list;
  e_outputs : (string * string) list;
}

let sum_counters reg ~prefix ~suffix =
  List.fold_left
    (fun n (k, v) ->
      if String.starts_with ~prefix k && String.ends_with ~suffix k then n + Int64.to_int v else n)
    0 (counters reg)

(* Program counters read as exact per-run counts. *)
let program_counts reg =
  [
    ("checker.seen", counter reg "checker/seen");
    ("checker.pass", counter reg "checker/pass");
    ("checker.fail", counter reg "checker/fail");
    ("drop.queue", counter reg "drop/queue");
    ("stage.seen", sum_counters reg ~prefix:"stage/" ~suffix:"/seen");
    ("stage.hit", sum_counters reg ~prefix:"stage/" ~suffix:"/hit");
    ("stage.miss", sum_counters reg ~prefix:"stage/" ~suffix:"/miss");
    ("generator.sent", counter reg "generator/sent");
    ("fuzz.executions", counter reg "fuzz/executions");
  ]

let add_counts a b = List.map (fun (k, v) -> (k, v + try List.assoc k b with Not_found -> 0)) a
let zero_counts = List.map (fun (k, _) -> (k, 0)) (program_counts (Registry.create ()))

(* Compare a traced run's deterministic outputs with the untraced run's
   under the same keys. *)
let check_reproduces c ~what ~untraced traced =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k untraced with
      | Some u -> check c (Printf.sprintf "%s: traced run differs from untraced at %s" what k) (u = v)
      | None -> ())
    traced

(* What a traced run measured: per-layer values and exact program counts
   over [t_ops] operations of the traced loop. *)
type traced = {
  t_checks : checks;
  t_attempted : int;
  t_failed : int;
  t_ops : int;
  t_base_s_per_op : float;  (* untraced seconds per op, the overhead baseline *)
  t_layers : (string * float) list;
  t_counts : (string * int) list;
}
