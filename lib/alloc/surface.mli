(** Per-query response surfaces: latency (and GB·s usage) as a function of a
    container *cap*, precomputed from a joint plan's per-stage resource
    grids.

    The workload allocator needs to re-price a query at many different
    container budgets without re-planning it. Given a joint plan's shape,
    each join stage's cost over the full (containers x memory) grid is swept
    once — through the compiled {!Raqo_cost.Kernel} unless kernels are
    switched off, scalar {!Raqo_cost.Op_cost.predict_exn} then — taking the
    better of both join implementations per cell. A per-stage prefix-min
    over the container axis then yields, for every cap [c], the best
    per-stage configuration using at most [c] containers; summing stages
    gives the query's latency-vs-cap curve, monotone nonincreasing by
    construction. The paired GB·s curve records the usage of the chosen
    (deterministically tie-broken) configurations, for pricing. *)

type t

(** [build ?use_kernel ~model ~conditions ~schema ~name plan] sweeps the
    plan's stages over [conditions] and returns the surface. The plan's
    *shape* is fixed; implementation and resources are re-chosen per cap.
    [use_kernel:false] forces the scalar sweep; both give the same
    surface. *)
val build :
  ?use_kernel:bool ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  schema:Raqo_catalog.Schema.t ->
  name:string ->
  Raqo_plan.Join_tree.joint ->
  t

val name : t -> string
val relations : t -> string list

(** The cap grid (ascending), and fresh copies of both curves, index-aligned
    with {!caps}. *)
val caps : t -> int array

val latencies : t -> float array
val gb_seconds_curve : t -> float array
val cap_step : t -> int
val min_cap : t -> int
val max_cap : t -> int

(** [latency_at t c] ([gb_seconds_at t c]) evaluates the curve at the
    largest grid cap [<= c]; [infinity] below the grid. *)
val latency_at : t -> int -> float

val gb_seconds_at : t -> int -> float

(** [cap_floor t c] is the largest grid cap [<= c], or the grid minimum. *)
val cap_floor : t -> int -> int

(** [preferred_cap t] is the smallest cap already achieving the surface's
    best latency — what the query would request if planned alone. *)
val preferred_cap : t -> int
