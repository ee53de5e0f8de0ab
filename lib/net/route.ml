module Entry = P4ir.Entry
module Value = P4ir.Value
module Programs = P4ir.Programs

let bundle () =
  {
    Programs.program = Programs.basic_router.Programs.program;
    entries = [];
    description = "fleet-wide IPv4 LPM router (routes installed per device by Net.Fabric)";
  }

(* Adjacency: for every node, its (peer, port) links in ascending order —
   the order ECMP ranks its candidates in. Built once per table. *)
let adjacency (topo : Topology.t) =
  let adj = Array.make (Array.length topo.Topology.nodes) [] in
  Array.iter
    (fun (l : Topology.link) ->
      adj.(l.Topology.l_a) <- (l.Topology.l_b, l.Topology.l_a_port) :: adj.(l.Topology.l_a);
      adj.(l.Topology.l_b) <- (l.Topology.l_a, l.Topology.l_b_port) :: adj.(l.Topology.l_b))
    topo.Topology.links;
  Array.map (List.sort compare) adj

(* BFS hop counts to [dst]; [max_int] when unreachable. *)
let bfs adj dst =
  let d = Array.make (Array.length adj) max_int in
  d.(dst) <- 0;
  let q = Queue.create () in
  Queue.add dst q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, _) ->
        if d.(v) = max_int then begin
          d.(v) <- d.(u) + 1;
          Queue.add v q
        end)
      adj.(u)
  done;
  d

(* Deterministic ECMP: all neighbors one hop closer, ranked by (peer,
   port), indexed by a hash of (node, dst edge). The same choice is both the
   installed entry and [path]'s replay of it. [None] at [dst] itself and
   wherever [dst] is unreachable. *)
let next_column adj dst =
  let d = bfs adj dst in
  Array.mapi
    (fun node row ->
      if node = dst || d.(node) = max_int then None
      else
        let cands = List.filter (fun (peer, _) -> d.(peer) = d.(node) - 1) row in
        Some (List.nth cands (((node * 31) + dst) mod List.length cands)))
    adj

(* The routing table of one topology: [tbl.(dst).(node)] is the
   [(peer, port)] next hop from [node] toward [dst]. *)
type table = (int * int) option array array

let build topo : table =
  let adj = adjacency topo in
  Array.init (Array.length adj) (next_column adj)

(* Tables are cached per domain keyed on the topology's physical
   identity (topologies are never mutated); bounded, LRU by
   move-to-front. *)
let max_tables = 4

let table_cache : (Topology.t * table) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let table topo =
  let cache = Domain.DLS.get table_cache in
  match !cache with
  | (t, tbl) :: _ when t == topo -> tbl
  | entries -> (
      match List.find_opt (fun (t, _) -> t == topo) entries with
      | Some ((_, tbl) as hit) ->
          cache := hit :: List.filter (fun (t, _) -> t != topo) entries;
          tbl
      | None ->
          let tbl = build topo in
          cache := List.filteri (fun i _ -> i < max_tables) ((topo, tbl) :: entries);
          tbl)

let lpm_key prefix len = Entry.lpm (Value.make ~width:32 prefix) len

let nexthop_entry ~port ~dmac =
  Entry.make
    ~keys:[ lpm_key (Int64.of_int 0) 0 ] (* placeholder, callers rebuild keys *)
    ~action:"set_nexthop"
    ~args:[ Value.of_int ~width:9 port; Value.make ~width:48 dmac ]
    ()

let entry ~prefix ~len ~port ~dmac =
  { (nexthop_entry ~port ~dmac) with Entry.keys = [ lpm_key prefix len ] }

let entries_for (topo : Topology.t) id =
  let tbl = table topo in
  let out = ref [] in
  List.iter
    (fun (e : Topology.node) ->
      match e.Topology.n_subnet with
      | None -> ()
      | Some (prefix, len) ->
          if e.Topology.n_id = id then
            (* terminate the subnet: one /32 per attached host *)
            Array.iter
              (fun (h : Topology.host) ->
                if h.Topology.h_node = id then
                  out :=
                    ( "ipv4_lpm",
                      entry ~prefix:h.Topology.h_ip ~len:32 ~port:h.Topology.h_port
                        ~dmac:h.Topology.h_mac )
                    :: !out)
              topo.Topology.hosts
          else
            match tbl.(e.Topology.n_id).(id) with
            | None -> () (* unreachable edge: no route, LPM default drops *)
            | Some (peer, port) ->
                out :=
                  ("ipv4_lpm", entry ~prefix ~len ~port ~dmac:(Topology.node_mac peer))
                  :: !out)
    (Topology.edges topo);
  List.rev !out

let path (topo : Topology.t) ~src_edge ~dst_edge =
  if src_edge = dst_edge then Some [ src_edge ]
  else
    let next = (table topo).(dst_edge) in
    (* every hop is one closer to [dst_edge], so the walk ends there *)
    let rec go acc node =
      if node = dst_edge then Some (List.rev (node :: acc))
      else match next.(node) with None -> None | Some (peer, _) -> go (node :: acc) peer
    in
    go [] src_edge

let tier = function
  | Topology.Edge | Topology.Leaf -> 0
  | Topology.Aggregation -> 1
  | Topology.Core | Topology.Spine -> 2
