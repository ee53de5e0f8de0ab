(* Recorded reference outputs. Virtual-time outputs are simulated, so
   they repeat exactly: a change to the simulator's speed must not move
   them. A run with `--seconds 0` prints them on stderr (`outputs ...`, `fuzz:
   deterministic engine covers N edges`). Seeds outside these tables are
   checked against the run's own repeats and the untraced run. *)

(* seed -> digest of Soak_wl.render *)
let soak =
  [
    (0, "67df2b125394219633de408594d2e038");
    (1, "46a0e639e7363f194bbf5e10c10d58aa");
    (2, "f8008bd9c051f67bbb0b65e40ad10cf9");
    (3, "021be67b00b73360ef6dcb9807c0c4ca");
    (4, "f89b86d6f9952752ea0a24f4b4b07175");
    (5, "ad754d30b3bd0c5107f53db28d5a0802");
    (6, "f6b89dfab825667c45fd495b8da76475");
    (7, "dacbdd52bd57c10fae2d2dd6baa29e2f");
    (8, "ea50d6f32679e0f087dba9b7b741b053");
    (9, "51645a48cef14534ce5522fe43329fa6");
    (10, "561395953db703d1f04dedf9b640f112");
    (11, "2eb0cb7cef55164a5d795803d4f0bf18");
    (12, "aa20c92a268dcd1fbd67907456fc1c5a");
    (13, "c455e14a63fc795d64dd32950000d2c8");
    (14, "2a5eb2df66c627f65539dcdcdd87e40b");
    (15, "2678e7d07c4bbe74242a442a50e8b6c4");
    (16, "60028cf22583aebb7a78218642d1af3f");
    (17, "dccb163a3a6818fa81b9941bf50197a9");
    (18, "24960b1576e20bc689d1ba256cdede65");
    (19, "2000a31e6c51516f819e33895c7f7498");
    (20, "7131b4fbd265709a3a9ef41a564e5d81");
    (21, "277b36f1266c6ff9d5e3fee147f778f9");
    (22, "55f5cd60df3ab50e619c324e12188f90");
    (23, "64e1c962ecb25ba3c0048bae6e21eea4");
    (24, "acf557e6b843aa8d3e270a90342e0766");
    (25, "8e6d8c6634c8c16bc8726ded94d9aad0");
    (26, "04f2e9b4ed316a0d336720a0512c0585");
    (27, "a22288491a4316c2ad75ab42ab59e3fc");
    (28, "a0dd4da27792ff4e458bd8d5c5388017");
    (29, "a65db6da852604b1191f82dc3439228e");
    (30, "7755c9c03866ac39d08ea62546853ba5");
    (31, "95f19811274a01b218dbf0e141cbb034");
  ]

(* program -> 1-based diverging path ids of check_paths under the shipped
   quirks: basic_router's paths 6/7 plus the other programs' reject-quirk
   paths. *)
let testgen =
  [
    ("basic_router", [ 6; 7 ]);
    ("router_split", [ 6; 7 ]);
    ("buggy_router", [ 6; 7 ]);
    ("parser_guard", [ 3; 4; 7 ]);
    ("l2_switch", []);
    ("acl_firewall", [ 11 ]);
    ("mpls_tunnel", [ 4 ]);
    ("vlan_router", [ 5; 10 ]);
    ("ipv6_router", [ 6 ]);
    ("calc", [ 7 ]);
    ("reflector", []);
    ("rate_limiter", [ 17; 18 ]);
    ("kv_cache", [ 5 ]);
  ]

(* digest of Net.Fleet.render_outcomes for reachability on fat_tree 8 *)
let fabric_outcomes = "d9755760d5e28a4646a7cf843cabda81"

(* seed -> coverage edges of the deterministic fuzz campaign (basic_router,
   shipped quirks, budget 50 000) *)
let fuzz_edges =
  [
    (0, 24);
    (1, 24);
    (2, 23);
    (3, 25);
    (4, 25);
    (5, 24);
    (6, 25);
    (7, 25);
    (8, 24);
    (9, 25);
    (10, 25);
    (11, 25);
    (12, 25);
    (13, 25);
    (14, 25);
    (15, 25);
    (16, 25);
    (17, 25);
    (18, 25);
    (19, 25);
    (20, 25);
    (21, 25);
    (22, 25);
    (23, 24);
    (24, 25);
    (25, 25);
    (26, 25);
    (27, 25);
    (28, 25);
    (29, 25);
    (30, 25);
    (31, 25);
  ]
