(** Exhaustive resource planning: evaluate the cost model on every discrete
    resource configuration the cluster offers, keep the cheapest. The
    baseline hill climbing is measured against (Figure 13). *)

(** [search ?counters conditions cost] returns the cheapest configuration and
    its cost. Ties break toward the earlier-enumerated (smaller) config.
    @raise Invalid_argument if the space is empty (cannot happen for valid
    conditions). *)
val search :
  ?counters:Counters.t ->
  Raqo_cluster.Conditions.t ->
  (Raqo_cluster.Resources.t -> float) ->
  Raqo_cluster.Resources.t * float

(** [search_pruned ?counters conditions ~bound cost] returns exactly what
    {!search} returns — the same configuration (ties included) at the same
    cost — while evaluating [cost] on far fewer configurations: a coarse
    seed lattice fixes an incumbent, then branch-and-bound over grid-aligned
    resource boxes prunes every box whose [bound] exceeds it, and every box
    whose bound merely ties it when the box cannot win the first-enumerated
    tie-break either (which keeps floored-cost plateaus cheap). [bound ~lo ~hi]
    must lower-bound [cost r] for every grid point [r] inside the box (see
    {!Raqo_cost.Op_cost.region_lower_bound}); an incorrect bound silently
    returns the wrong optimum, so bounds are cross-checked by the
    differential oracle. Evaluation counts recorded in [counters] reflect
    distinct configurations actually costed. *)
val search_pruned :
  ?counters:Counters.t ->
  Raqo_cluster.Conditions.t ->
  bound:(lo:Raqo_cluster.Resources.t -> hi:Raqo_cluster.Resources.t -> float) ->
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

(** [search_pruned_kernel ?counters conditions ~kernel ~scratch] is
    {!search_pruned} on a compiled kernel: identical seed lattice, identical
    branch-and-bound recursion, with point costs memoised in [scratch]'s
    buffer (a seen-bitmap stands in for the hash memo, preserving the
    distinct-evaluation count) and box bounds from
    {!Raqo_cost.Kernel.bound_at}, which is bit-identical to the scalar
    {!Raqo_cost.Op_cost.region_lower_bound} closure. Every pruning decision
    — and therefore the result and the counters — matches {!search_pruned}
    exactly. *)
val search_pruned_kernel :
  ?counters:Counters.t ->
  Raqo_cluster.Conditions.t ->
  kernel:Raqo_cost.Kernel.t ->
  scratch:Raqo_cost.Kernel.scratch ->
  Raqo_cluster.Resources.t * float
