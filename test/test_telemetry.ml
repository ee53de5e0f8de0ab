(* Tests for the telemetry subsystem: span store mechanics, exporter golden
   files, well-nesting/monotonicity properties of device-produced span
   trees, and the device metrics registry. *)

module Span = Telemetry.Span
module Registry = Telemetry.Registry
module Export = Telemetry.Export
module Programs = P4ir.Programs
module Runtime = P4ir.Runtime
module Compile = Sdnet.Compile
module Quirks = Sdnet.Quirks
module Device = Target.Device
module Counter = Stats.Counter
module Histogram = Stats.Histogram
module P = Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let build ?(quirks = Quirks.none) (b : Programs.bundle) =
  let report = Compile.compile_exn ~quirks b.Programs.program in
  let device = Device.create report.Compile.pipeline in
  (match
     Runtime.install_all b.Programs.program (Device.runtime device) b.Programs.entries
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  device

let udp dst = P.serialize (P.udp_ipv4 ~dst ())

(* ---------------- span store mechanics ---------------- *)

let test_span_record_roundtrip () =
  let s = Span.create ~capacity:8 () in
  let n = Span.intern s "parse" in
  let note = Span.intern s "accept" in
  let id =
    Span.add s ~parent:Span.no_parent ~packet:7 ~kind:Span.Parse ~name:n ~t0:10.0 ~t1:40.0
      ~bytes:0 ~flags:Span.flag_fault ~note
  in
  match Span.spans s with
  | [ sp ] ->
      check_int "id" id sp.Span.sp_id;
      check_int "packet" 7 sp.Span.sp_packet;
      check_string "name" "parse" sp.Span.sp_name;
      check_bool "kind" true (sp.Span.sp_kind = Span.Parse);
      check_bool "fault flag" true sp.Span.sp_fault;
      check_bool "no drop flag" false sp.Span.sp_drop;
      Alcotest.(check (option string)) "note" (Some "accept") sp.Span.sp_note
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_span_intern_stable () =
  let s = Span.create () in
  let a = Span.intern s "x" in
  let b = Span.intern s "y" in
  check_int "same string, same id" a (Span.intern s "x");
  check_bool "distinct strings, distinct ids" true (a <> b);
  check_string "name_of" "y" (Span.name_of s b);
  (* intern table grows past its initial array *)
  let ids = List.init 100 (fun i -> Span.intern s (string_of_int i)) in
  check_string "growth keeps names" "42" (Span.name_of s (List.nth ids 42))

(* storage grows on demand (from 256 slots, doubling, up to the
   capacity), so the larger cases cross the growth steps before and
   after the ring wraps *)
let test_span_ring_eviction () =
  List.iter
    (fun (capacity, n) ->
      let s = Span.create ~capacity () in
      let e = Span.intern s "e" in
      for i = 0 to n - 1 do
        ignore
          (Span.add s ~parent:(i - 1) ~packet:i ~kind:Span.Stage ~name:e
             ~t0:(float_of_int i) ~t1:(float_of_int i) ~bytes:0 ~flags:0 ~note:Span.no_note)
      done;
      let kept = min capacity n in
      check_int "retained" kept (Span.count s);
      check_int "evicted" (n - kept) (Span.dropped s);
      (* oldest first, and only the newest [capacity] survive intact *)
      let first = n - kept in
      let span_t = Alcotest.(triple int int (float 0.0)) in
      Alcotest.(check (list span_t))
        "survivors"
        (List.init kept (fun j -> (first + j, first + j - 1, float_of_int (first + j))))
        (List.map
           (fun sp -> (sp.Span.sp_packet, sp.Span.sp_parent, sp.Span.sp_start_ns))
           (Span.spans s)))
    [ (4, 10); (1000, 300); (1000, 2500) ]

let test_span_sampling () =
  let s = Span.create ~sampling:4 () in
  let picks = List.init 8 (fun _ -> Span.sample s) in
  Alcotest.(check (list bool))
    "1-in-4, first always"
    [ true; false; false; false; true; false; false; false ]
    picks;
  Span.set_sampling s 1;
  check_bool "1/1 samples everything" true (Span.sample s && Span.sample s);
  Span.set_sampling s 0;
  check_bool "0 disables" false (Span.sample s);
  Span.set_sampling s 4;
  check_bool "set_sampling resets the phase" true (Span.sample s)

(* ---------------- exporter golden files ---------------- *)

(* A tiny store built by hand: a parse child recorded before its packet
   root, the root filled in last under a reserved id — exactly the order
   the device records in. *)
let golden_store () =
  let s = Span.create ~capacity:16 () in
  let n_pkt = Span.intern s "packet" in
  let n_parse = Span.intern s "parse" in
  let note = Span.intern s "accept" in
  let root = Span.next_id s in
  ignore
    (Span.add s ~parent:root ~packet:0 ~kind:Span.Parse ~name:n_parse ~t0:10.0 ~t1:40.0
       ~bytes:0 ~flags:0 ~note);
  Span.record s ~id:root ~parent:Span.no_parent ~packet:0 ~kind:Span.Packet ~name:n_pkt
    ~t0:0.0 ~t1:60.0 ~bytes:64 ~flags:0 ~note:Span.no_note;
  s

let chrome_golden =
  "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\
  \ {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"netdebug device\"}},\n\
  \ {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"parse\"}},\n\
  \ {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"packet\"}},\n\
  \ {\"name\":\"parse\",\"cat\":\"parse\",\"ph\":\"X\",\"ts\":0.010000,\"dur\":0.030000,\"pid\":1,\"tid\":0,\"args\":{\"packet\":0,\"note\":\"accept\"}},\n\
  \ {\"name\":\"packet\",\"cat\":\"packet\",\"ph\":\"X\",\"ts\":0.000000,\"dur\":0.060000,\"pid\":1,\"tid\":1,\"args\":{\"packet\":0,\"bytes\":64}}\n\
   ]}\n"

let test_chrome_golden () =
  check_string "chrome trace" chrome_golden (Export.chrome_trace (golden_store ()))

let jsonl_golden =
  "{\"id\":1,\"parent\":0,\"packet\":0,\"kind\":\"parse\",\"name\":\"parse\",\"start_ns\":10.000,\"end_ns\":40.000,\"bytes\":0,\"drop\":false,\"fault\":false,\"note\":\"accept\"}\n\
   {\"id\":0,\"parent\":-1,\"packet\":0,\"kind\":\"packet\",\"name\":\"packet\",\"start_ns\":0.000,\"end_ns\":60.000,\"bytes\":64,\"drop\":false,\"fault\":false}\n"

let test_jsonl_golden () =
  check_string "jsonl" jsonl_golden (Export.jsonl (golden_store ()))

let text_golden =
  "[        10.0 ..         40.0] pkt=0     parse    parse                    accept\n\
   [         0.0 ..         60.0] pkt=0     packet   packet                     64B\n\
   2 spans retained, 0 evicted (capacity 16)\n"

let test_text_golden () =
  check_string "text" text_golden (Export.text (golden_store ()))

let prometheus_golden =
  "# HELP netdebug_lat_ns a histogram\n\
   # TYPE netdebug_lat_ns summary\n\
   netdebug_lat_ns{quantile=\"0.5\"} 0.5\n\
   netdebug_lat_ns{quantile=\"0.9\"} 0.5\n\
   netdebug_lat_ns{quantile=\"0.99\"} 0.5\n\
   netdebug_lat_ns{quantile=\"0.999\"} 0.5\n\
   netdebug_lat_ns_sum 0.75\n\
   netdebug_lat_ns_count 2\n\
   netdebug_lat_ns_min 0.25\n\
   netdebug_lat_ns_max 0.5\n\
   # HELP netdebug_queue_depth a gauge\n\
   # TYPE netdebug_queue_depth gauge\n\
   netdebug_queue_depth 2.5\n\
   # HELP netdebug_rx_total a counter\n\
   # TYPE netdebug_rx_total counter\n\
   netdebug_rx_total 3\n"

let test_prometheus_golden () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"a counter" "rx/total" in
  Counter.add c 3L;
  Registry.gauge r ~help:"a gauge" "queue/depth" (fun () -> 2.5);
  let h = Registry.histogram r ~help:"a histogram" "lat/ns" in
  (* sub-1.0 samples land in the exact first bin, so the summary
     quantiles are stable literals rather than log-bin approximations *)
  Histogram.add h 0.5;
  Histogram.add h 0.25;
  check_string "prometheus" prometheus_golden (Export.prometheus r)

let test_prometheus_help_escapes () =
  let r = Registry.create () in
  ignore (Registry.counter r ~help:"first line\nsecond \\ line" "x");
  check_string "escaped help"
    "# HELP netdebug_x first line\\nsecond \\\\ line\n# TYPE netdebug_x counter\nnetdebug_x 0\n"
    (Export.prometheus r)

let test_chrome_escapes () =
  let s = Span.create () in
  let n = Span.intern s "we\"ird\\name" in
  ignore
    (Span.add s ~parent:Span.no_parent ~packet:0 ~kind:Span.Stage ~name:n ~t0:0.0 ~t1:1.0
       ~bytes:0 ~flags:0 ~note:Span.no_note);
  let out = Export.chrome_trace s in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "quote escaped" true (contains out "we\\\"ird\\\\name");
  check_bool "raw quote gone" false (contains out "we\"ird")

(* ---------------- registry ---------------- *)

let test_registry_wraps_counter_set () =
  let set = Counter.Set.create () in
  let r = Registry.create ~counters:set () in
  let c = Registry.counter r ~help:"h" "a" in
  Counter.incr c;
  (* same underlying counter as the set's *)
  Alcotest.(check int64) "shared" 1L (Counter.Set.get set "a");
  Counter.Set.incr set "a";
  Alcotest.(check int64) "shared both ways" 2L (Counter.get c);
  (* counters created directly in the set still show up in the snapshot *)
  Counter.Set.add set "b" 5L;
  let names = List.map (fun (n, _, _) -> n) (Registry.snapshot r) in
  Alcotest.(check (list string)) "snapshot sorted, complete" [ "a"; "b" ] names

let test_registry_idempotent_registration () =
  let r = Registry.create () in
  let c1 = Registry.counter r "x" in
  let c2 = Registry.counter r ~help:"late help" "x" in
  Counter.incr c1;
  Alcotest.(check int64) "same counter" 1L (Counter.get c2);
  let h1 = Registry.histogram r "h" in
  let h2 = Registry.histogram r "h" in
  Histogram.add h1 1.0;
  check_int "same histogram" 1 (Histogram.count h2)

(* Two worker shards register the same metric names (exactly what
   per-domain registry replicas do); merging them into a target must sum
   counters and histogram datasets, keep live histogram handles valid,
   and bind the shared help text exactly once — not once per shard. *)
let test_registry_merge_shards () =
  let global = Registry.create () in
  let live = Registry.histogram global ~help:"pipeline latency" "lat/ns" in
  Histogram.add live 1.0;
  let c = Registry.counter global ~help:"rx packets" "rx/total" in
  Counter.incr c;
  let shard n =
    let r = Registry.create () in
    let h = Registry.histogram r ~help:"pipeline latency" "lat/ns" in
    for _ = 1 to n do
      Histogram.add h 2.0
    done;
    Counter.add (Registry.counter r ~help:"rx packets" "rx/total") (Int64.of_int n);
    ignore (Registry.counter r ~help:"shard only" "shard/extra");
    r
  in
  Registry.merge ~into:global (shard 2);
  Registry.merge ~into:global (shard 3);
  (* the pre-merge handle still observes merged data and future updates *)
  check_int "histogram datasets summed" 6 (Histogram.count live);
  Histogram.add live 1.0;
  (match List.assoc_opt "lat/ns" (List.map (fun (n, _, v) -> (n, v)) (Registry.snapshot global)) with
  | Some (Registry.Histogram h) -> check_int "live handle kept" 7 (Histogram.count h)
  | _ -> Alcotest.fail "lat/ns should stay a histogram");
  Alcotest.(check int64)
    "counters summed" 6L
    (Counter.Set.get (Registry.counter_set global) "rx/total");
  Alcotest.(check int64)
    "shard-only counter arrives" 0L
    (Counter.Set.get (Registry.counter_set global) "shard/extra");
  check_string "help bound once, target's kept" "pipeline latency" (Registry.help global "lat/ns");
  check_string "shard help adopted when target has none" "shard only"
    (Registry.help global "shard/extra");
  (* exporters must see exactly one binding: a stacked help would break
     the prometheus exposition with duplicate # HELP lines *)
  let exposition = Export.prometheus global in
  let occurrences needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "single HELP line" 1 (occurrences "# HELP netdebug_lat_ns" exposition)

let test_registry_merge_shared_counter_set () =
  (* shards wrapping the SAME counter set (the device's own) must not
     double-count on merge: the values are already in the set *)
  let set = Counter.Set.create () in
  let a = Registry.create ~counters:set () in
  let b = Registry.create ~counters:set () in
  Counter.incr (Registry.counter a "x");
  Counter.incr (Registry.counter b "x");
  Registry.merge ~into:a b;
  Alcotest.(check int64) "no double count" 2L (Counter.Set.get set "x");
  (* merging a registry into itself is likewise a no-op for counters *)
  Registry.merge ~into:a a;
  Alcotest.(check int64) "self merge is a no-op" 2L (Counter.Set.get set "x")

(* ---------------- device span trees ---------------- *)

let span_names_of_packet d id =
  List.map (fun sp -> sp.Span.sp_name) (Span.spans_for_packet (Device.spans d) id)

let test_device_span_tree_shape () =
  let d = build Programs.basic_router in
  Device.set_span_sampling d 1;
  let id, disp = Device.inject d ~source:(Device.External 0) (udp 0x0A010203L) in
  (match disp with Device.Emitted _ -> () | _ -> Alcotest.fail "expected emission");
  let spans = Span.spans_for_packet (Device.spans d) id in
  let root =
    match List.filter (fun sp -> sp.Span.sp_kind = Span.Packet) spans with
    | [ r ] -> r
    | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)
  in
  check_bool "root is parentless" true (root.Span.sp_parent = Span.no_parent);
  check_bool "root carries bytes" true (root.Span.sp_bytes > 0);
  List.iter
    (fun sp ->
      if sp.Span.sp_id <> root.Span.sp_id then begin
        check_int ("child of root: " ^ sp.Span.sp_name) root.Span.sp_id sp.Span.sp_parent;
        check_bool ("nested start: " ^ sp.Span.sp_name) true
          (sp.Span.sp_start_ns >= root.Span.sp_start_ns -. 1e-6);
        check_bool ("nested end: " ^ sp.Span.sp_name) true
          (sp.Span.sp_end_ns <= root.Span.sp_end_ns +. 1e-6)
      end)
    spans;
  let names = span_names_of_packet d id in
  List.iter
    (fun expected ->
      check_bool ("has " ^ expected) true (List.mem expected names))
    [ "rx_queue"; "parse"; "deparse" ];
  check_bool "has a tx span" true
    (List.exists (fun n -> String.length n > 3 && String.sub n 0 3 = "tx[") names);
  check_bool "has the lpm stage" true
    (List.exists
       (fun n ->
         String.length n > 6
         && String.sub n 0 6 = "stage["
         && String.length n >= 11
         && String.sub n (String.length n - 11) 11 = "ma:ipv4_lpm")
       names)

let test_device_span_sampling () =
  let d = build Programs.basic_router in
  Device.set_span_sampling d 4;
  for _ = 1 to 8 do
    ignore (Device.inject d ~source:(Device.External 0) (udp 0x0A010203L))
  done;
  let roots =
    List.filter (fun sp -> sp.Span.sp_kind = Span.Packet) (Span.spans (Device.spans d))
  in
  check_int "2 of 8 packets spanned" 2 (List.length roots)

let test_device_span_drop_annotation () =
  let d = build Programs.parser_guard in
  Device.set_span_sampling d 1;
  (* a non-IPv4 ethertype: the guard program's parser rejects it *)
  let raw = Bitutil.Bitstring.of_string (String.make 12 '\x01' ^ "\x08\x99" ^ String.make 40 '\x00') in
  let id, disp = Device.inject d ~source:(Device.External 0) raw in
  (match disp with
  | Device.Dropped_pipeline _ -> ()
  | _ -> Alcotest.fail "expected a pipeline drop");
  let root =
    List.find
      (fun sp -> sp.Span.sp_kind = Span.Packet)
      (Span.spans_for_packet (Device.spans d) id)
  in
  check_bool "root marked dropped" true root.Span.sp_drop;
  check_bool "drop reason noted" true (root.Span.sp_note <> None)

let test_device_metrics_registry () =
  let d = build Programs.basic_router in
  for _ = 1 to 3 do
    ignore (Device.inject d ~source:(Device.External 0) (udp 0x0A010203L))
  done;
  let snap = Registry.snapshot (Device.metrics d) in
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) snap with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "metric %s not in snapshot" name
  in
  (match find "rx/external" with
  | Registry.Counter v -> Alcotest.(check int64) "rx counted" 3L v
  | _ -> Alcotest.fail "rx/external should be a counter");
  (match find "pipeline/latency_ns" with
  | Registry.Histogram h -> check_int "latency samples" 3 (Histogram.count h)
  | _ -> Alcotest.fail "pipeline/latency_ns should be a histogram");
  (match find "rxq/depth" with
  | Registry.Gauge _ -> ()
  | _ -> Alcotest.fail "rxq/depth should be a gauge");
  (* every metric help string is present for the prometheus exposition *)
  check_bool "stage seen counter present" true
    (List.exists (fun (n, _, _) -> n = "stage/ma:ipv4_lpm/seen") snap)

(* ---------------- properties ---------------- *)

(* Arbitrary traffic mixes: routable/unroutable destinations, varying
   payloads and inter-arrival gaps. *)
let traffic_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (triple (oneofl [ 0x0A010203L; 0x0A000005L; 0x01020304L ]) (int_range 0 200)
         (int_range 0 500)))

let prop_span_trees_well_nested =
  QCheck.Test.make ~count:50 ~name:"device span trees are well-nested"
    (QCheck.make traffic_gen) (fun traffic ->
      let d = build Programs.basic_router in
      Device.set_span_sampling d 1;
      let t = ref 0.0 in
      List.iter
        (fun (dst, payload_bytes, gap) ->
          t := !t +. float_of_int gap;
          ignore
            (Device.inject d ~source:(Device.External 0) ~at_ns:!t
               (P.serialize (P.udp_ipv4 ~dst ~payload_bytes ()))))
        traffic;
      let spans = Span.spans (Device.spans d) in
      let by_id = Hashtbl.create 64 in
      List.iter (fun sp -> Hashtbl.replace by_id sp.Span.sp_id sp) spans;
      List.for_all
        (fun sp ->
          sp.Span.sp_end_ns >= sp.Span.sp_start_ns -. 1e-9
          &&
          match Hashtbl.find_opt by_id sp.Span.sp_parent with
          | None -> true (* root, or parent evicted from the ring *)
          | Some parent ->
              sp.Span.sp_start_ns >= parent.Span.sp_start_ns -. 1e-6
              && sp.Span.sp_end_ns <= parent.Span.sp_end_ns +. 1e-6
              && sp.Span.sp_packet = parent.Span.sp_packet)
        spans)

let prop_span_roots_monotone =
  QCheck.Test.make ~count:50 ~name:"packet root spans start monotonically in virtual time"
    (QCheck.make traffic_gen) (fun traffic ->
      let d = build Programs.basic_router in
      Device.set_span_sampling d 1;
      let t = ref 0.0 in
      List.iter
        (fun (dst, payload_bytes, gap) ->
          t := !t +. float_of_int gap;
          ignore
            (Device.inject d ~source:(Device.External 0) ~at_ns:!t
               (P.serialize (P.udp_ipv4 ~dst ~payload_bytes ()))))
        traffic;
      let roots =
        List.filter (fun sp -> sp.Span.sp_kind = Span.Packet) (Span.spans (Device.spans d))
      in
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            a.Span.sp_start_ns <= b.Span.sp_start_ns +. 1e-9 && monotone rest
        | _ -> true
      in
      (* ring order is record order; injection order is virtual-time order *)
      monotone roots)

let () =
  Alcotest.run "telemetry"
    [
      ( "span store",
        [
          Alcotest.test_case "record roundtrip" `Quick test_span_record_roundtrip;
          Alcotest.test_case "intern stable" `Quick test_span_intern_stable;
          Alcotest.test_case "ring eviction" `Quick test_span_ring_eviction;
          Alcotest.test_case "sampling" `Quick test_span_sampling;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "text golden" `Quick test_text_golden;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "prometheus help escapes" `Quick test_prometheus_help_escapes;
          Alcotest.test_case "chrome escapes" `Quick test_chrome_escapes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "wraps counter set" `Quick test_registry_wraps_counter_set;
          Alcotest.test_case "idempotent registration" `Quick
            test_registry_idempotent_registration;
          Alcotest.test_case "merge shards" `Quick test_registry_merge_shards;
          Alcotest.test_case "merge with shared counter set" `Quick
            test_registry_merge_shared_counter_set;
        ] );
      ( "device spans",
        [
          Alcotest.test_case "tree shape" `Quick test_device_span_tree_shape;
          Alcotest.test_case "sampling" `Quick test_device_span_sampling;
          Alcotest.test_case "drop annotation" `Quick test_device_span_drop_annotation;
          Alcotest.test_case "metrics registry" `Quick test_device_metrics_registry;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_span_trees_well_nested;
          QCheck_alcotest.to_alcotest prop_span_roots_monotone;
        ] );
    ]
