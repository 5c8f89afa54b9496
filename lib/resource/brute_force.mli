(** Exhaustive resource planning: evaluate the cost model on every discrete
    resource configuration the cluster offers, keep the cheapest. The
    baseline hill climbing is measured against (Figure 13) and the
    differential oracle's reference. Both forms — a scalar cost closure and
    a compiled kernel — visit every grid cell. *)

(** [search ?counters conditions cost] returns the cheapest configuration and
    its cost. Ties break toward the earlier-enumerated (smaller) config.
    @raise Invalid_argument if the space is empty (cannot happen for valid
    conditions). *)
val search :
  ?counters:Counters.t ->
  Raqo_cluster.Conditions.t ->
  (Raqo_cluster.Resources.t -> float) ->
  Raqo_cluster.Resources.t * float

(** [search_kernel ?counters conditions ~kernel ~scratch] is {!search} on a
    compiled cost kernel: one allocation-free {!Raqo_cost.Kernel.sweep} into
    [scratch], then an argmin scan with {!search}'s exact tie-break.
    Bit-identical to [search conditions (predict kernel)] — same winning
    cell, same cost, same recorded evaluation count — while never building a
    feature vector or a configuration until the final result. [scratch]
    grows once to the largest grid and is reused across calls (zero
    steady-state allocation); it must not be shared across domains. *)
val search_kernel :
  ?counters:Counters.t ->
  Raqo_cluster.Conditions.t ->
  kernel:Raqo_cost.Kernel.t ->
  scratch:Raqo_cost.Kernel.scratch ->
  Raqo_cluster.Resources.t * float
