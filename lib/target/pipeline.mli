(** The compiled artifact: the program as the hardware runs it, the quirk
    hooks describing where the compiler deviates from the P4 specification,
    and the synthesized stage structure with its latency and resource cost.

    A pipeline is immutable; {!Device.create} instantiates it with runtime
    state (tables, registers, queues, a virtual clock). *)

type stage_kind =
  | Parser_engine
  | Match_action of string  (** table name *)
  | Egress_engine
  | Deparser_engine

type stage = {
  s_name : string;  (** "parser", "ma:<table>", "egress", "deparser" *)
  s_kind : stage_kind;
  s_latency_cycles : int;
  s_resources : Resource.t;
}

type t = {
  program : P4ir.Ast.program;  (** post-transform: what the hardware runs *)
  config : Config.t;
  parse_hooks : P4ir.Parse.hooks;
  exec_hooks : P4ir.Exec.hooks;
  update_ipv4_checksum : bool;
  stages : stage list;  (** in traversal order *)
  resources : Resource.t;  (** whole-design total, including overheads *)
  staged : P4ir.Compilecore.t Lazy.t;
      (** the program staged to closures under this pipeline's quirk hooks
          — the {!Device}'s only executor, forced by the first device
          instantiated from this pipeline and shared by all of them *)
}

val make :
  program:P4ir.Ast.program ->
  config:Config.t ->
  parse_hooks:P4ir.Parse.hooks ->
  exec_hooks:P4ir.Exec.hooks ->
  update_ipv4_checksum:bool ->
  stages:stage list ->
  resources:Resource.t ->
  t

val stage_names : t -> string list

val total_latency_cycles : t -> int

val pp : Format.formatter -> t -> unit
