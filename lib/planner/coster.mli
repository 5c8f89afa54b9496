(** The [get_plan_cost] seam between query planning and resource planning
    (paper Section VI-C): query planners ask a coster for the best feasible
    implementation (and its cost) of each candidate join. Cost-based RAQO is
    "nicely integrated, and yet easily pluggable" by swapping in a coster
    that runs resource planning inside this call. *)

(** What a coster returns for one candidate join: the chosen implementation,
    the resources it should run with, and its estimated cost. *)
type choice = {
  impl : Raqo_plan.Join_impl.t;
  resources : Raqo_cluster.Resources.t;
  cost : float;
}

type t = {
  best_join :
    left:string list -> right:string list -> choice option;
      (** [None] when no implementation is feasible for this join *)
  name : string;  (** for explain output *)
}

(** A plan shape: a join tree whose operator choices are not yet made. *)
type shape = unit Raqo_plan.Join_tree.t

(** [cost_tree t shape] costs a plan shape bottom-up, choosing operator
    implementation and resources per join; [None] if any join is
    infeasible. *)
val cost_tree : t -> shape -> (Raqo_plan.Join_tree.joint * float) option

(** [shape_of tree] forgets annotations. *)
val shape_of : 'a Raqo_plan.Join_tree.t -> shape

(** [fixed model schema resources] — conventional query optimization: cost
    both implementations under one global, pre-chosen resource
    configuration (the paper's "QO" baseline). *)
val fixed :
  Raqo_cost.Op_cost.t ->
  Raqo_catalog.Schema.t ->
  Raqo_cluster.Resources.t ->
  t

(** [raqo model schema planner] — cost-based RAQO: resource-plan each
    implementation of each join ({!best_choice}, hill climbing / cache per
    [planner]), then keep the cheapest feasible (implementation, resources)
    pair. When [planner] compiles kernels
    ({!Raqo_resource.Resource_planner.create}'s [?kernel], the default),
    both feature spaces — the paper's models and the trained ones — are
    compiled per (implementation, size) into {!Raqo_cost.Kernel.t} values on
    each cache miss, and resource search runs on the bit-identical kernel
    path: same plans and costs, allocation-free grid sweeps. *)
val raqo :
  Raqo_cost.Op_cost.t ->
  Raqo_catalog.Schema.t ->
  Raqo_resource.Resource_planner.t ->
  t

(** [best_choice model planner ~small_gb] is the per-join step of {!raqo}:
    {!Raqo_resource.Resource_planner.plan} for each implementation at build
    side [small_gb], keeping the cheaper feasible one (SMJ on ties); [None]
    when neither is feasible. *)
val best_choice :
  Raqo_cost.Op_cost.t -> Raqo_resource.Resource_planner.t -> small_gb:float -> choice option

(** [counting t] wraps [t] with an invocation counter (a plain [ref]: use from
    one domain only). Instrumentation seam for tests and the differential
    oracle — e.g. counting how many joins a planner costs. *)
val counting : t -> t * (unit -> int)

(** [simulator engine schema resources] — ground truth: cost joins with the
    execution simulator at fixed resources (used by tests and the
    Section III analysis, not by the optimizer). *)
val simulator :
  Raqo_execsim.Engine.t ->
  Raqo_catalog.Schema.t ->
  Raqo_cluster.Resources.t ->
  t

(** {2 Mask-based costers}

    The same [get_plan_cost] seam keyed on interned relation masks
    ({!Raqo_catalog.Interned}): join sides are subset bitmasks instead of
    string lists, so the DP hot path allocates nothing per lookup. Field
    names are distinct from {!t}'s so both records coexist without
    shadowing. *)

type masked = {
  best_join_masked : left:int -> right:int -> choice option;
      (** [None] when no implementation is feasible for this join *)
  masked_name : string;
}

(** [of_strings ctx t] adapts a string coster to the mask seam, memoizing
    mask → name-list conversion. Name lists are produced in ascending id
    order — exactly what the string planners historically passed — so
    adapted costers observe byte-identical arguments. *)
val of_strings : Raqo_catalog.Interned.t -> t -> masked

(** [fixed_masked model ctx resources] is {!fixed} on the mask seam,
    with the statistics cache keyed on subset masks. *)
val fixed_masked :
  Raqo_cost.Op_cost.t ->
  Raqo_catalog.Interned.t ->
  Raqo_cluster.Resources.t ->
  masked

(** [raqo_masked model ctx planner] is {!raqo} on the mask seam, with a
    per-coster memo from a relation mask to its size and, once it has been
    a build side (the side whose size [Float.min] returns, by its bits),
    its {!best_choice}: a repeat makes no call into [planner] and allocates
    nothing. The memo is on only when
    {!Raqo_resource.Resource_planner.exact_cached} holds, where the repeat
    would be an exact hit: plans, cost bits, evaluations, misses and
    invocations are unchanged and only cache hits fall (a memo answer is no
    probe; an entry a bounded shared cache evicts between two calls is not
    searched again). Use a coster from one domain; parallel restarts each
    get their own. *)
val raqo_masked :
  Raqo_cost.Op_cost.t ->
  Raqo_catalog.Interned.t ->
  Raqo_resource.Resource_planner.t ->
  masked

(** [counting_masked m] is {!counting} on the mask seam. *)
val counting_masked : masked -> masked * (unit -> int)

(** [cost_tree_masked m ctx shape] is {!cost_tree} on the mask seam,
    resolving leaf masks through [ctx]. Joins are costed in the same pinned
    left-then-right post-order, including where an infeasible join aborts
    the walk. *)
val cost_tree_masked :
  masked ->
  Raqo_catalog.Interned.t ->
  shape ->
  (Raqo_plan.Join_tree.joint * float) option
