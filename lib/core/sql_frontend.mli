(** The one request pipeline: from a query — SQL text or a relation list —
    to a joint query/resource plan ("users simply submit their declarative
    queries"). [raqo plan], the resident server ({!Raqo_server.Engine}) and
    the allocator's member planning all go through {!resolve} and
    {!optimize}, so a request plans the same way, with the same errors,
    wherever it is submitted. *)

type query = Sql of string | Relations of string list

type mode =
  | Raqo  (** joint query/resource optimization (the paper's planner) *)
  | Qo of Raqo_cluster.Resources.t  (** query-only baseline at fixed resources *)

(** A query checked against the catalog, with everything the plan step
    derives from it. *)
type resolved = {
  relations : string list;  (** the relations to join (FROM order for SQL) *)
  catalog : Raqo_catalog.Schema.t;  (** the unscaled catalog *)
  truth : Raqo_catalog.Schema.t;
      (** the catalog with the SQL filters folded into the scans (the
          resolver's selectivities): what execution meets. [catalog] for a
          relation list. *)
  hints : Raqo_rewrite.Rewrite.hints;
      (** per-table filter selectivities as pushdown hints (1.0 when a table
          is unfiltered) and the projection's tables as the referenced set;
          {!Raqo_rewrite.Rewrite.no_hints} for a relation list *)
}

(** [resolve ?metrics ~schema ~columns query] checks [query] against the
    catalog. SQL goes through {!Raqo_sql.Resolver.analyze} (counted in
    [metrics] as [raqo_sql_queries_total] when observability is on). Both
    forms need at least two relations; a relation list also needs no
    duplicates, every name in [schema] and a connected join graph. Errors
    are messages for the caller's bad-request answer. *)
val resolve :
  ?metrics:Raqo_obs.Metrics.registry ->
  schema:Raqo_catalog.Schema.t ->
  columns:Raqo_catalog.Column.catalog ->
  query ->
  (resolved, string) result

(** [check_mode mode ~adaptive] rejects adaptive execution in [Qo] mode:
    the baseline has fixed resources and nothing to re-plan. The wire
    parser and the CLI call it up front; {!optimize} calls it too. *)
val check_mode : mode -> adaptive:bool -> (unit, string) result

type error =
  | Invalid of string  (** the query or its options are invalid *)
  | Infeasible  (** no joint plan fits the cluster conditions *)

val error_message : error -> string

type planned = {
  resolved : resolved;
  plan : Raqo_plan.Join_tree.joint;  (** the static plan (from the estimates) *)
  est_cost : float;
  estimates : Raqo_catalog.Schema.t;
      (** the catalog the planner priced ({!Cost_based.rewritten_schema}):
          the rewrite pass's output for the planned catalog, which is the
          unscaled catalog with [resolved.hints], [truth] unrewritten, or
          its error-perturbed copy under [?adaptive]; [plan] costs
          [est_cost] on it *)
  adaptive : Raqo_adaptive.Adaptive_exec.report option;
      (** present iff [?adaptive] was requested: the static-vs-adaptive
          execution report against [truth] *)
  rewrite : Raqo_rewrite.Rewrite.report option;
      (** per-rule fired counts of the logical rewrite pass; [None] with
          [~rewrite:false] and in [Qo] mode, [changed = false] when no rule
          applied *)
  counters : Raqo_resource.Counters.t;  (** its resource-search counters *)
}

(** [optimize ?kind ?seed ?shared_cache ?rewrite ?metrics ?mode
    ?adaptive ~model ~conditions resolved] builds the one
    {!Cost_based} optimizer for the request and plans it.

    - [Raqo] (default) with [rewrite] (default [true]) plans the unscaled
      catalog with [resolved.hints]: the pushdown rule replays the
      resolver's filter fold bitwise, so filter-only queries plan as they
      would on [truth], and the projection enables FK/constant absorption
      and width narrowing. [~rewrite:false] plans [truth] unrewritten.
    - [adaptive:(engine, error)] plans from an [error]-perturbed copy of
      [truth] (projection hints only), then runs
      {!Cost_based.optimize_adaptive} on [engine] against [truth].
    - [Qo resources] plans [truth] at the fixed [resources], unrewritten;
      with [?adaptive] it is [Invalid] (see {!check_mode}).

    [kind], [seed] and [metrics] go to {!Cost_based.create}, whose
    resource planner is the default one over [shared_cache] (when given)
    mirroring into [metrics]: the resident server passes its cross-query
    cache and its own registry. *)
val optimize :
  ?kind:Cost_based.planner_kind ->
  ?seed:int ->
  ?shared_cache:Raqo_resource.Shared_plan_cache.t ->
  ?rewrite:bool ->
  ?metrics:Raqo_obs.Metrics.registry ->
  ?mode:mode ->
  ?adaptive:Raqo_execsim.Engine.t * Raqo_execsim.Estimation_error.t ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  resolved ->
  (planned, error) result

(** [plan ... ~schema ~columns query] is {!resolve} then {!optimize}; a
    resolve error comes back [Invalid]. *)
val plan :
  ?kind:Cost_based.planner_kind ->
  ?seed:int ->
  ?shared_cache:Raqo_resource.Shared_plan_cache.t ->
  ?rewrite:bool ->
  ?metrics:Raqo_obs.Metrics.registry ->
  ?mode:mode ->
  ?adaptive:Raqo_execsim.Engine.t * Raqo_execsim.Estimation_error.t ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  schema:Raqo_catalog.Schema.t ->
  columns:Raqo_catalog.Column.catalog ->
  query ->
  (planned, error) result

(** [plan_tpch ?kind ?scale_factor sql] is {!plan} of SQL against the TPC-H
    catalog with the trained Hive model and default cluster conditions — the
    one-call quickstart. *)
val plan_tpch :
  ?kind:Cost_based.planner_kind -> ?scale_factor:float -> string -> (planned, error) result
