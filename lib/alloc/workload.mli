(** Assembling allocator workloads from query specs.

    The allocator itself is planner-agnostic: it consumes {!Surface}s. This
    module bridges from relation lists to surfaces through a caller-supplied
    [plan] closure (typically [Raqo.Cost_based.optimize] on a fresh
    optimizer). *)

type spec = {
  name : string;
  relations : string list;
  tenant : string;
  weight : float;
  arrival : float;
  slo : float option;
}

(** [query ~model ~conditions ~schema ~plan spec] plans one spec and builds
    its surface; [None] when [plan] finds no feasible joint plan. *)
val query :
  ?use_kernel:bool ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  schema:Raqo_catalog.Schema.t ->
  plan:(string list -> Raqo_plan.Join_tree.joint option) ->
  spec ->
  Allocator.query option

(** [queries ...] plans every spec in order, dropping infeasible ones. *)
val queries :
  ?use_kernel:bool ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  schema:Raqo_catalog.Schema.t ->
  plan:(string list -> Raqo_plan.Join_tree.joint option) ->
  spec list ->
  Allocator.query array

(** [arrivals rng ~n ~rate ~capacity] draws [n] heavy-tailed arrival
    instants from {!Raqo_cluster.Queue_sim.generate} (ascending). *)
val arrivals : Raqo_util.Rng.t -> n:int -> rate:float -> capacity:int -> float array
