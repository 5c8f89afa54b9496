(** The declarative entry point: from a SQL string to a joint query/resource
    plan, via the SQL resolver's filter-scaled schema — the full pipeline a
    user of the paper's systems would invoke ("users simply submit their
    declarative queries"). *)

type planned = {
  analyzed : Raqo_sql.Resolver.analyzed;  (** resolution & selectivities *)
  plan : Raqo_plan.Join_tree.joint;  (** the static plan (from the estimates) *)
  est_cost : float;
  adaptive : Raqo_adaptive.Adaptive_exec.report option;
      (** present iff [?adaptive] was requested: the static-vs-adaptive
          execution report against the resolver's (ground-truth) schema *)
  rewrite : Raqo_rewrite.Rewrite.report option;
      (** per-rule fired counts of the logical rewrite pass; [None] with
          [~rewrite:false], [changed = false] when no rule applied *)
}

(** [plan ?kind ?seed ?kernel ?pool ?adaptive ~model ~conditions ~schema
    ~columns sql] parses, resolves, and jointly optimizes [sql]. [kernel] is
    forwarded to {!Cost_based.create} (the CLI's [--no-kernel] passes
    [kernel:false]).
    When [pool] is given the optimization step runs
    {!Cost_based.optimize_par} on it — same plans and costs, fanned out
    across the pool's domains. [adaptive:(engine, error)] treats the
    resolver's filter-scaled schema as ground truth, plans from an
    [error]-perturbed copy, and runs {!Cost_based.optimize_adaptive} on
    [engine] — the report lands in the result's [adaptive] field. Errors
    are SQL front-end errors; an infeasible plan reports as an error too.
    [shared_cache] and [metrics] are forwarded to {!Cost_based.create}: a
    resident server passes its cross-query plan cache and its own
    metrics registry, so concurrent requests warm each other while distinct
    servers share no mutable state.

    [rewrite] (default [true]) runs the logical rewrite memo before
    enumeration: the resolver's per-table filter selectivities become
    pushdown hints (replaying the historical scan-scaling fold bitwise, so
    filter-only queries plan identically either way) and the projection
    list becomes the referenced-table hint, enabling FK/constant absorption
    and width narrowing for queries that do not read every table. The
    CLI's [--no-rewrite] passes [rewrite:false]. *)
val plan :
  ?kind:Cost_based.planner_kind ->
  ?seed:int ->
  ?kernel:bool ->
  ?pool:Raqo_par.Pool.t ->
  ?adaptive:Raqo_execsim.Engine.t * Raqo_execsim.Estimation_error.t ->
  ?shared_cache:Raqo_resource.Shared_plan_cache.t ->
  ?rewrite:bool ->
  ?metrics:Raqo_obs.Metrics.registry ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  schema:Raqo_catalog.Schema.t ->
  columns:Raqo_catalog.Column.catalog ->
  string ->
  (planned, string) result

(** [plan_tpch ?kind ?scale_factor sql] is {!plan} against the TPC-H catalog
    with the trained Hive model and default cluster conditions — the
    one-call quickstart. *)
val plan_tpch :
  ?kind:Cost_based.planner_kind -> ?scale_factor:float -> string -> (planned, string) result
