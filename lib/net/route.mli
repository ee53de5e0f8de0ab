(** Build-time route computation: turn a {!Topology} into per-device
    control-plane state for the fleet-wide router program.

    Every device runs the same IPv4 LPM router (the paper's
    [basic_router] data plane); what differs per device is its
    [ipv4_lpm] table. For each destination edge subnet, each device
    installs one LPM entry pointing at its next hop on a shortest path
    (BFS over the switch graph); the destination edge switch itself
    installs one /32 per attached host. Next-hop selection among
    equal-cost candidates is a deterministic hash of (device, destination
    edge), so traffic spreads across the ECMP fan the way a real fabric's
    hashing would — and {!path} can reproduce the exact device sequence
    any packet will take, which is what the network-level localization
    bisects along.

    Routing is computed once per topology into one table: the adjacency
    (built once), a BFS hop-count column per destination node, and from
    each column the ECMP next hop [(port, peer)] of every node — the
    neighbors one hop closer, ranked by (peer, port), indexed by
    [(node * 31 + dst) mod candidates]. Building it costs one BFS per
    node, O(nodes × links) time and O(nodes²) space (a k=12 fat-tree:
    180 BFS over 864 links, milliseconds). {!entries_for} and {!path}
    both read the table, so [path] is an O(hops) walk that allocates
    only its result.

    Tables are cached per domain (no locks, no sharing), bounded and
    least-recently-used first out, keyed on the {!Topology.t}'s physical
    identity: topologies are never mutated after construction, so a
    value seen once always routes the same. A structurally equal copy
    builds its own table, with identical contents. *)

val bundle : unit -> P4ir.Programs.bundle
(** The router program every device runs, with an empty entry list (the
    fabric installs {!entries_for} per device instead). *)

val entries_for : Topology.t -> int -> (string * P4ir.Entry.t) list
(** The [ipv4_lpm] install list for this device: one subnet route per
    remote edge switch, one host /32 per local host. Deterministic
    order (edges ascending, then hosts ascending). *)

val path : Topology.t -> src_edge:int -> dst_edge:int -> int list option
(** The device id sequence a packet injected at [src_edge] traverses to
    reach [dst_edge] under {!entries_for} routing, both endpoints
    included. [None] when no path exists. O(hops) once the topology's
    table is built (the first {!entries_for} or [path] call on it in
    this domain builds it). *)

val tier : Topology.role -> int
(** Edge/Leaf = 0, Aggregation = 1, Core/Spine = 2 — the "how deep into
    the fabric" rank the waypoint scenario asserts over. *)
