(** Structural validity checks for joint plans and the data structures around
    them. Each check returns the (possibly empty) list of violated
    invariants as {!Diagnostic.t} values; an empty list means the property
    holds. Checks never raise on malformed input — malformed input is
    precisely what they exist to describe. *)

(** [check_shape ~schema ~expected tree] verifies join-tree well-formedness:
    every base relation appears exactly once, the leaf set equals the query
    relation set [expected], every leaf is a schema relation, and every join
    node is crossed by at least one join edge (no hidden cartesian
    products). Works on any annotation type. *)
val check_shape :
  schema:Raqo_catalog.Schema.t ->
  expected:string list ->
  'a Raqo_plan.Join_tree.t ->
  Diagnostic.t list

(** [check_resources ?grid ~conditions tree] verifies every per-operator
    resource configuration lies within the cluster bounds. With [grid=true]
    it additionally requires each configuration to sit on the condition
    grid (off by default: weighted-average cache answers and clamped hill
    climbs legitimately interpolate between grid points). *)
val check_resources :
  ?grid:bool ->
  conditions:Raqo_cluster.Conditions.t ->
  Raqo_plan.Join_tree.joint ->
  Diagnostic.t list

(** [check_bhj_memory ~model ~schema tree] verifies every broadcast-hash join
    is memory-feasible: the build side fits in the configured container
    memory with the model's OOM headroom. *)
val check_bhj_memory :
  model:Raqo_cost.Op_cost.t ->
  schema:Raqo_catalog.Schema.t ->
  Raqo_plan.Join_tree.joint ->
  Diagnostic.t list

(** [check_cost ?what cost] verifies a cost is finite and non-negative. *)
val check_cost : ?what:string -> float -> Diagnostic.t list

(** [check_joint ~model ~conditions ~schema ~expected (tree, cost)] runs all
    of the above on one emitted joint plan. *)
val check_joint :
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  schema:Raqo_catalog.Schema.t ->
  expected:string list ->
  Raqo_plan.Join_tree.joint * float ->
  Diagnostic.t list

(** [check_pareto ~objective ~describe items] verifies a claimed Pareto front
    is mutually non-dominated: no element dominates another under
    {!Raqo_cost.Objective.dominates}. *)
val check_pareto :
  objective:('a -> Raqo_cost.Objective.t) ->
  describe:('a -> string) ->
  'a list ->
  Diagnostic.t list

(** [check_cache_lookup cache ~key ~data_gb lookup] performs the lookup and
    audits the answer against the cache's stored entries: exact lookups must
    return the exact entry, nearest-neighbor answers must be a nearest
    in-radius entry, weighted-average answers must equal a near-exact entry
    when one exists and otherwise lie within the convex hull of the
    in-radius entries; and no lookup may answer from outside its radius. *)
val check_cache_lookup :
  Raqo_resource.Plan_cache.t ->
  key:Raqo_resource.Plan_cache.key ->
  data_gb:float ->
  Raqo_resource.Plan_cache.lookup ->
  Diagnostic.t list
