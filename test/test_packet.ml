(* Tests for protocol codecs and the packet assembler. *)

module Bitstring = Bitutil.Bitstring
module P = Packet
module Eth = Packet.Eth
module Vlan = Packet.Vlan
module Ipv4 = Packet.Ipv4
module Ipv6 = Packet.Ipv6
module Udp = Packet.Udp
module Tcp = Packet.Tcp
module Icmp = Packet.Icmp
module Arp = Packet.Arp
module Mpls = Packet.Mpls
module Addr = Packet.Addr
module Proto = Packet.Proto

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------------- Addr ---------------- *)

let test_mac_roundtrip () =
  let m = 0x0200DEADBEEFL in
  check_str "format" "02:00:de:ad:be:ef" (Addr.mac_to_string m);
  check_i64 "parse" m (Addr.mac_of_string "02:00:de:ad:be:ef")

let test_ipv4_roundtrip () =
  let a = Addr.ipv4_of_string "192.168.1.42" in
  check_str "format" "192.168.1.42" (Addr.ipv4_to_string a);
  check_i64 "value" 0xC0A8012AL a

let test_ipv4_prefix () =
  let addr, len = Addr.ipv4_prefix "10.0.0.0/8" in
  check_i64 "addr" 0x0A000000L addr;
  check_int "len" 8 len;
  let _, len32 = Addr.ipv4_prefix "1.2.3.4" in
  check_int "bare addr is /32" 32 len32

let test_addr_rejects () =
  List.iter
    (fun s ->
      try
        ignore (Addr.ipv4_of_string s);
        Alcotest.failf "accepted %s" s
      with Invalid_argument _ -> ())
    [ "1.2.3"; "256.1.1.1"; "a.b.c.d"; "1.2.3.4.5" ]

let test_ipv6_format () =
  check_str "full form" "2001:0db8:0000:0000:0000:0000:0000:0001"
    (Addr.ipv6_to_string (0x20010db800000000L, 1L))

(* ---------------- header codecs ---------------- *)

let roundtrip_header name size encode_bits decode equal h =
  let bits = encode_bits h in
  check_int (name ^ " size") size (Bitstring.length bits);
  let r = Bitstring.Reader.create bits in
  let h' = decode r in
  check_bool (name ^ " roundtrip") true (equal h h')

let test_eth_roundtrip () =
  roundtrip_header "eth" Eth.size_bits Eth.to_bits Eth.decode Eth.equal
    (Eth.make ~dst:0x112233445566L ~src:0xAABBCCDDEEFFL ~ethertype:0x86DDL ())

let test_vlan_roundtrip () =
  roundtrip_header "vlan" Vlan.size_bits Vlan.to_bits Vlan.decode Vlan.equal
    (Vlan.make ~pcp:5L ~dei:1L ~vid:100L ())

let test_ipv4_codec_roundtrip () =
  roundtrip_header "ipv4" Ipv4.size_bits Ipv4.to_bits Ipv4.decode Ipv4.equal
    (Ipv4.make ~ttl:17L ~src:0x0A000001L ~dst:0x0A000002L ~payload_len:100 ())

let test_ipv6_codec_roundtrip () =
  roundtrip_header "ipv6" Ipv6.size_bits Ipv6.to_bits Ipv6.decode Ipv6.equal
    (Ipv6.make ~src:(1L, 2L) ~dst:(3L, 4L) ~payload_len:64 ())

let test_udp_roundtrip () =
  roundtrip_header "udp" Udp.size_bits Udp.to_bits Udp.decode Udp.equal
    (Udp.make ~src_port:53L ~dst_port:5353L ~payload_len:11 ())

let test_tcp_roundtrip () =
  roundtrip_header "tcp" Tcp.size_bits Tcp.to_bits Tcp.decode Tcp.equal
    (Tcp.make ~src_port:80L ~dst_port:43210L ~seq:0xDEADBEEFL ~flags:Tcp.flag_ack ())

let test_icmp_roundtrip () =
  roundtrip_header "icmp" Icmp.size_bits Icmp.to_bits Icmp.decode Icmp.equal
    (Icmp.echo_request ~ident:42L ~seq:7L ())

let test_arp_roundtrip () =
  roundtrip_header "arp" Arp.size_bits Arp.to_bits Arp.decode Arp.equal
    (Arp.request ~sha:0x020000000001L ~spa:0x0A000001L ~tpa:0x0A000002L)

let test_mpls_roundtrip () =
  roundtrip_header "mpls" Mpls.size_bits Mpls.to_bits Mpls.decode Mpls.equal
    (Mpls.make ~label:0xFFFFFL ~tc:3L ~bos:1L ~ttl:255L ())

let test_ipv4_checksum () =
  let h = Ipv4.make ~src:0x0A000001L ~dst:0x0A000002L ~payload_len:8 () in
  check_bool "make produces valid checksum" true (Ipv4.checksum_ok h);
  let bad = { h with Ipv4.ttl = 63L } in
  check_bool "stale checksum detected" false (Ipv4.checksum_ok bad);
  check_bool "with_checksum repairs" true (Ipv4.checksum_ok (Ipv4.with_checksum bad))

(* ---------------- packet assembly and parsing ---------------- *)

let test_udp_packet_shape () =
  let p = P.udp_ipv4 ~payload_bytes:10 () in
  (* 14 eth + 20 ip + 8 udp + 10 payload *)
  check_int "wire length" 52 (P.byte_length p);
  match P.find_ipv4 p with
  | None -> Alcotest.fail "no ipv4"
  | Some ip ->
      check_i64 "total_len covers ip+udp+payload" 38L ip.Ipv4.total_len;
      check_bool "checksum valid" true (Ipv4.checksum_ok ip)

let test_parse_roundtrip_udp () =
  let p = P.udp_ipv4 ~src:0xC0A80001L ~dst_port:9999L () in
  let p' = P.parse (P.serialize p) in
  check_bool "same bits" true (P.equal p p');
  check_int "three headers" 3 (List.length p'.P.headers);
  match P.find_udp p' with
  | Some u -> check_i64 "udp port survived" 9999L u.Udp.dst_port
  | None -> Alcotest.fail "udp missing after parse"

let test_parse_roundtrip_tcp () =
  let p = P.tcp_ipv4 ~dst_port:443L () in
  let p' = P.parse (P.serialize p) in
  match P.find_tcp p' with
  | Some t -> check_i64 "tcp port" 443L t.Tcp.dst_port
  | None -> Alcotest.fail "tcp missing"

let test_parse_arp () =
  let p = P.arp_request ~spa:0x0A000001L ~tpa:0x0A0000FEL () in
  let p' = P.parse (P.serialize p) in
  check_int "eth+arp" 2 (List.length p'.P.headers);
  check_bool "arp decoded" true
    (List.exists (function P.Arp _ -> true | _ -> false) p'.P.headers)

let test_parse_vlan_stack () =
  let p =
    P.fixup
      (P.make
         [
           P.Eth (Eth.make ());
           P.Vlan (Vlan.make ~vid:100L ());
           P.Ipv4 (Ipv4.make ~payload_len:0 ());
           P.Udp (Udp.make ~payload_len:0 ());
         ]
         ())
  in
  let p' = P.parse (P.serialize p) in
  check_int "eth+vlan+ipv4+udp" 4 (List.length p'.P.headers);
  match P.find_vlan p' with
  | Some v -> check_i64 "vid" 100L v.Vlan.vid
  | None -> Alcotest.fail "vlan missing"

let test_parse_mpls () =
  let p =
    P.fixup
      (P.make
         [
           P.Eth (Eth.make ());
           P.Mpls (Mpls.make ~label:100L ~bos:1L ());
           P.Ipv4 (Ipv4.make ~payload_len:0 ());
         ]
         ())
  in
  let p' = P.parse (P.serialize p) in
  check_int "eth+mpls+ipv4" 3 (List.length p'.P.headers)

let test_parse_unknown_ethertype () =
  let p = P.make [ P.Eth (Eth.make ~ethertype:0xBEEFL ()) ] ~payload:(P.payload_of_string "xyz") () in
  let p' = P.parse (P.serialize p) in
  check_int "only eth" 1 (List.length p'.P.headers);
  check_int "payload preserved" 24 (Bitstring.length p'.P.payload)

let test_parse_truncated () =
  (* an eth header claiming ipv4 but with only 4 payload bytes *)
  let bits =
    Bitstring.append (Eth.to_bits (Eth.make ())) (Bitstring.of_hex "01020304")
  in
  let p = P.parse bits in
  check_int "eth only" 1 (List.length p.P.headers);
  check_int "tail is payload" 32 (Bitstring.length p.P.payload)

let test_parse_garbage () =
  let p = P.parse (Bitstring.of_hex "0102") in
  check_int "no headers" 0 (List.length p.P.headers)

let test_fixup_chains_protocols () =
  (* deliberately wrong discriminators; fixup must repair them *)
  let p =
    P.make
      [
        P.Eth (Eth.make ~ethertype:0x9999L ());
        P.Ipv4 (Ipv4.make ~protocol:99L ~payload_len:0 ());
        P.Udp (Udp.make ~payload_len:0 ());
      ]
      ()
  in
  let p = P.fixup p in
  (match P.find_eth p with
  | Some e -> check_i64 "ethertype fixed" Proto.ethertype_ipv4 e.Eth.ethertype
  | None -> Alcotest.fail "no eth");
  match P.find_ipv4 p with
  | Some ip ->
      check_i64 "protocol fixed" Proto.ipproto_udp ip.Ipv4.protocol;
      check_bool "checksum recomputed" true (Ipv4.checksum_ok ip)
  | None -> Alcotest.fail "no ipv4"

let test_map_ipv4 () =
  let p = P.udp_ipv4 () in
  let p' = P.map_ipv4 (fun ip -> { ip with Ipv4.ttl = 1L }) p in
  match P.find_ipv4 p' with
  | Some ip -> check_i64 "ttl rewritten" 1L ip.Ipv4.ttl
  | None -> Alcotest.fail "no ipv4"

(* ---------------- pcap ---------------- *)

let test_pcap_roundtrip () =
  let records =
    [
      { P.Pcap.ts_ns = 1_500_000.0; data = Bitstring.to_string (P.serialize (P.udp_ipv4 ())) };
      { P.Pcap.ts_ns = 2e9; data = Bitstring.to_string (P.serialize (P.arp_request ())) };
    ]
  in
  match P.Pcap.decode (P.Pcap.encode records) with
  | Ok decoded ->
      check_int "two records" 2 (List.length decoded);
      List.iter2
        (fun a b ->
          check_bool "data preserved" true (String.equal a.P.Pcap.data b.P.Pcap.data);
          (* timestamps survive at microsecond resolution *)
          check_bool "timestamp close" true
            (abs_float (a.P.Pcap.ts_ns -. b.P.Pcap.ts_ns) < 1000.0))
        records decoded
  | Error e -> Alcotest.fail e

let test_pcap_header_shape () =
  let s = P.Pcap.encode [] in
  check_int "global header is 24 bytes" 24 (String.length s);
  (* little-endian magic *)
  check_bool "magic" true
    (s.[0] = '\xd4' && s.[1] = '\xc3' && s.[2] = '\xb2' && s.[3] = '\xa1')

let test_pcap_rejects_garbage () =
  (match P.Pcap.decode "nonsense" with Error _ -> () | Ok _ -> Alcotest.fail "bad magic ok?");
  let valid = P.Pcap.encode [ { P.Pcap.ts_ns = 0.0; data = "abcdef" } ] in
  match P.Pcap.decode (String.sub valid 0 (String.length valid - 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated record accepted"

(* property: build -> serialize -> parse -> serialize is a fixpoint *)
let prop_parse_serialize_fixpoint =
  QCheck.Test.make ~count:300 ~name:"parse/serialize fixpoint on random UDP packets"
    QCheck.(quad small_nat small_nat (int_bound 200) (int_bound 0xffff))
    (fun (s1, s2, paylen, port) ->
      let p =
        P.udp_ipv4
          ~src:(Int64.of_int (0x0A000000 + s1))
          ~dst:(Int64.of_int (0x0A010000 + s2))
          ~dst_port:(Int64.of_int port) ~payload_bytes:paylen ()
      in
      let bits = P.serialize p in
      let bits' = P.serialize (P.parse bits) in
      Bitstring.equal bits bits')

(* Pcap.decode is total: a byte-mutated or truncated two-record capture
   decodes to [Ok] or [Error], never an exception. The dictionary puts
   snap-length and record-length boundaries on the length bytes. *)
let prop_pcap_decode_total =
  QCheck.Test.make ~count:500 ~name:"pcap decode total under mutation"
    QCheck.(pair int int)
    (fun (seed, cut) ->
      let record ts pkt = { P.Pcap.ts_ns = ts; data = Bitstring.to_string (P.serialize pkt) } in
      let capture =
        P.Pcap.encode [ record 1_500_000.0 (P.udp_ipv4 ()); record 2e9 (P.arp_request ()) ]
      in
      Decoder_props.total ~dict:[| 0L; 1L; 0x7FL; 0x80L; 0xFFL |] (Bitutil.Prng.create seed)
        ~cut P.Pcap.decode capture)

let () =
  Alcotest.run "packet"
    [
      ( "addr",
        [
          Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "ipv4 prefix" `Quick test_ipv4_prefix;
          Alcotest.test_case "rejects malformed" `Quick test_addr_rejects;
          Alcotest.test_case "ipv6 format" `Quick test_ipv6_format;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "eth" `Quick test_eth_roundtrip;
          Alcotest.test_case "vlan" `Quick test_vlan_roundtrip;
          Alcotest.test_case "ipv4" `Quick test_ipv4_codec_roundtrip;
          Alcotest.test_case "ipv6" `Quick test_ipv6_codec_roundtrip;
          Alcotest.test_case "udp" `Quick test_udp_roundtrip;
          Alcotest.test_case "tcp" `Quick test_tcp_roundtrip;
          Alcotest.test_case "icmp" `Quick test_icmp_roundtrip;
          Alcotest.test_case "arp" `Quick test_arp_roundtrip;
          Alcotest.test_case "mpls" `Quick test_mpls_roundtrip;
          Alcotest.test_case "ipv4 checksum" `Quick test_ipv4_checksum;
        ] );
      ( "packets",
        [
          Alcotest.test_case "udp shape" `Quick test_udp_packet_shape;
          Alcotest.test_case "parse roundtrip udp" `Quick test_parse_roundtrip_udp;
          Alcotest.test_case "parse roundtrip tcp" `Quick test_parse_roundtrip_tcp;
          Alcotest.test_case "parse arp" `Quick test_parse_arp;
          Alcotest.test_case "parse vlan stack" `Quick test_parse_vlan_stack;
          Alcotest.test_case "parse mpls" `Quick test_parse_mpls;
          Alcotest.test_case "unknown ethertype" `Quick test_parse_unknown_ethertype;
          Alcotest.test_case "truncated" `Quick test_parse_truncated;
          Alcotest.test_case "garbage" `Quick test_parse_garbage;
          Alcotest.test_case "fixup chains protocols" `Quick test_fixup_chains_protocols;
          Alcotest.test_case "map_ipv4" `Quick test_map_ipv4;
          Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "pcap header shape" `Quick test_pcap_header_shape;
          Alcotest.test_case "pcap rejects garbage" `Quick test_pcap_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_pcap_decode_total;
          QCheck_alcotest.to_alcotest prop_parse_serialize_fixpoint;
        ] );
    ]
