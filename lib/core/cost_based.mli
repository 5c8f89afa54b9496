(** Cost-based RAQO (paper Section VI): a query planner whose
    [get_plan_cost] performs resource planning per sub-plan, emitting a
    joint query/resource plan. Works with both the Selinger DP and the fast
    randomized planner. The resource search (the exact grid minimum or the
    paper's hill climb) and resource-plan caching belong to one pluggable
    {!Raqo_resource.Resource_planner}, configured in one place. *)

type planner_kind =
  | Selinger  (** System R bottom-up DP over left-deep trees *)
  | Fast_randomized  (** randomized bushy-tree search (Trummer–Koch style) *)
  | Bushy_dp  (** exact bushy DP over connected subgraphs (DPsub; <= 20 relations) *)

type t

(** [create ?kind ?seed ?randomized_params ?resource_planner ~model
    ~conditions schema] builds an optimizer. Defaults: Selinger, seed 42,
    and [Resource_planner.create ~registry:metrics] as the resource planner:
    the exact grid minimum per sub-plan, in closed form through the compiled
    cost kernel, behind an exact-match cache. It takes 7 optional arguments.

    [resource_planner] is the pluggable part (the paper's Section VI-C): it
    is applied to [conditions], the one source of this optimizer's cluster
    conditions, and the result answers every costed sub-plan. An ablation
    passes another constructor, e.g.
    [~resource_planner:(Resource_planner.create ~strategy:Hill_climb ~cache:false)]
    (the paper's Algorithm 1, uncached), and a resident server one over its
    cross-query cache, [Resource_planner.create ~shared_cache ~registry].
    A constructor that omits [~registry] mirrors its counters into the
    process-wide registry, not [metrics].

    [rewrite] (default [true]) runs the {!Raqo_rewrite.Rewrite} logical
    memo over every query before enumeration in {!optimize},
    {!optimize_par} and {!optimize_adaptive}: predicate
    pushdown, constant/FK absorption and projection narrowing, driven by
    [rewrite_hints]. With the default hints (no filters, everything
    referenced) no rule can fire and planning is bit-identical to
    [~rewrite:false]; when rules fire, the rewritten plan's cost is never
    worse than the unrewritten one's. [--no-rewrite] in the CLI maps to
    [~rewrite:false].

    [metrics] directs all of this optimizer's registry instrumentation —
    plan counters, latency histograms, the default resource planner's
    counter mirrors — at a caller-owned registry (default: the process-wide
    one); a resident server passes its own so two servers, or a server and
    the CLI, never share mutable state.

    Queries of up to {!Raqo_catalog.Interned.max_relations} relations run on
    the interned, mask-based planner core; larger ones (the randomized
    planner accepts up to 100) fall back to the string-list planners. Both
    paths produce bit-identical plans, costs, and instrumentation. *)
val create :
  ?kind:planner_kind ->
  ?seed:int ->
  ?randomized_params:Raqo_planner.Randomized.params ->
  ?resource_planner:(Raqo_cluster.Conditions.t -> Raqo_resource.Resource_planner.t) ->
  ?rewrite:bool ->
  ?rewrite_hints:Raqo_rewrite.Rewrite.hints ->
  ?metrics:Raqo_obs.Metrics.registry ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  Raqo_catalog.Schema.t ->
  t

val schema : t -> Raqo_catalog.Schema.t
val model : t -> Raqo_cost.Op_cost.t
val conditions : t -> Raqo_cluster.Conditions.t
val resource_planner : t -> Raqo_resource.Resource_planner.t

(** [with_conditions t conditions] re-targets new cluster conditions,
    sharing the cost model, the resource-plan cache and the counters. The
    cache key holds the conditions, so the result plans exactly as a fresh
    optimizer under [conditions] would. *)
val with_conditions : t -> Raqo_cluster.Conditions.t -> t

(** [optimize t relations] emits the joint query and resource plan with its
    estimated cost — RAQO proper. [None] when no feasible plan exists. *)
val optimize :
  t -> string list -> (Raqo_plan.Join_tree.joint * float) option

(** [optimize_par t pool relations] is {!optimize} with the randomized
    planner's restarts fanned out across [pool]'s domains. Each restart gets
    a fresh coster and a forked resource planner sharing [t]'s atomic
    counters; with the default exact-match cache lookup the result is
    bit-identical to {!optimize} on an equal-seed optimizer, for any pool
    size. [Selinger] and [Bushy_dp] run their sequential sweeps: {!optimize}
    unchanged. *)
val optimize_par :
  t -> Raqo_par.Pool.t -> string list -> (Raqo_plan.Join_tree.joint * float) option

(** [optimize_adaptive ?replan_cost_s ~engine ~truth t relations]
    plans statically from [t]'s schema (the estimates — build [t] over an
    {!Raqo_execsim.Estimation_error}-perturbed schema to model misestimation)
    and then simulates the plan against [truth] twice: as-is, and with
    {!Raqo_adaptive.Adaptive_exec} re-optimizing the remaining join graph at
    every stage boundary whose observed cardinality contradicts its
    estimate. Returns the adaptive report with the static plan's estimated
    cost; [None] when no feasible static plan exists. The static
    optimization is {!optimize}. The report guarantees [adaptive.seconds <=
    static.seconds] (bitwise, re-planning cost included) and bit-identity
    under zero estimation error. *)
val optimize_adaptive :
  ?replan_cost_s:float ->
  engine:Raqo_execsim.Engine.t ->
  truth:Raqo_catalog.Schema.t ->
  t ->
  string list ->
  (Raqo_adaptive.Adaptive_exec.report * float) option

(** [optimize_qo t ~resources relations] is the conventional two-step
    baseline: query planning only, every join costed at the given fixed
    resource configuration. *)
val optimize_qo :
  t ->
  resources:Raqo_cluster.Resources.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option

(** [candidates t relations] returns the feasible joint plans the planner
    saw as local optima (for multi-objective selection); with the Selinger
    kind this is the single DP optimum. *)
val candidates : t -> string list -> (Raqo_plan.Join_tree.joint * float) list

(** [coster t] is the joint (resource-planning) coster [optimize] runs the
    query planner against — the hook
    the verification layer uses to re-cost an emitted plan's shape and check
    it reproduces the reported cost. *)
val coster : t -> Raqo_planner.Coster.t

(** [rewrite_report t] is the per-rule fired counts and group merges of the
    most recent rewrite pass ({!Raqo_rewrite.Rewrite.last}); [None] when the
    optimizer was built with [~rewrite:false]. *)
val rewrite_report : t -> Raqo_rewrite.Rewrite.report option

(** [rewritten_schema t] is the schema the most recent rewrite pass handed
    the planner ({!Raqo_rewrite.Rewrite.schema_out}): the statistics the
    plan was priced on. It is [t]'s own schema before any rewrite, after a
    pass where no rule fired, and when built with [~rewrite:false]. *)
val rewritten_schema : t -> Raqo_catalog.Schema.t

(** [counters t] exposes resource-planning instrumentation (configurations
    explored, cache hits) accumulated across optimizations. *)
val counters : t -> Raqo_resource.Counters.t

(** [reset t] zeroes counters and clears the resource-plan cache — the
    evaluation does this between queries unless measuring across-query
    caching. *)
val reset : t -> unit
