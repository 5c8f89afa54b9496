(** Exact resource planning: the cheapest discrete resource configuration
    the cluster offers. The scalar form evaluates the cost model on every
    grid cell: the paper's exhaustive baseline, which hill climbing is
    measured against (Figure 13), and the differential oracle's reference.
    The kernel form returns the same configuration and cost in closed form,
    and is the resource planner's default search. *)

(** [search ?counters conditions cost] returns the cheapest configuration and
    its cost. Ties break toward the earlier-enumerated (smaller) config.
    @raise Invalid_argument if the space is empty (cannot happen for valid
    conditions). *)
val search :
  ?counters:Counters.t ->
  Raqo_cluster.Conditions.t ->
  (Raqo_cluster.Resources.t -> float) ->
  Raqo_cluster.Resources.t * float

(** [search_kernel ?counters conditions ~kernel] is {!search} on a compiled
    cost kernel, answered by {!Raqo_cost.Kernel.minimum}: the same winning
    cell (earlier config on ties) and the same cost float as
    [search conditions (predict kernel)], NaN included, but it records only
    the evaluations the closed form made (a few per memory row instead of
    the whole grid). It builds no feature vector, configuration or grid
    buffer until the final result. *)
val search_kernel :
  ?counters:Counters.t ->
  Raqo_cluster.Conditions.t ->
  kernel:Raqo_cost.Kernel.t ->
  Raqo_cluster.Resources.t * float
