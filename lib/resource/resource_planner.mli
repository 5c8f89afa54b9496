(** The resource planner cost-based RAQO invokes per costed sub-plan: a
    search strategy (brute force or hill climbing) behind an optional
    resource-plan cache, with instrumentation. *)

type strategy = Brute_force | Hill_climb

type t

(** [create ?strategy ?cache ?lookup ?counters conditions] builds a
    planner. Defaults: hill climbing, caching enabled, exact-match lookup,
    private counters.

    [counters] shares an existing (atomic)
    instrument — parallel randomized restarts give each restart its own
    planner but one shared counter set so the aggregate figures survive.
    Every search runs on the calling domain. The cache, when
    enabled, is private to this planner and must only be touched from one
    domain at a time — cache sharing across concurrent queries stays opt-in
    and single-domain.

    [kernel] (default [true]) lets {!plan} use compiled cost kernels when
    the caller supplies one: grid sweeps and hill-climb probes run through
    {!Raqo_cost.Kernel} — bit-identical costs, same plans, no per-point
    feature vectors — reusing one per-planner scratch buffer across calls so
    steady-state planning does zero grid allocation. [~kernel:false] forces
    the scalar path everywhere (the CLI's [--no-kernel] escape hatch).

    [cache_capacity] bounds the plan cache with LRU eviction (see
    {!Plan_cache.create}); omitted means unbounded, the paper's behaviour.

    [shared_cache] replaces the private per-planner cache with a handle to a
    striped, thread-safe cross-query cache ({!Shared_plan_cache}) owned by a
    resident server: {!fork} then shares the handle instead of starting
    empty, and [cache]/[cache_capacity] are ignored. [registry] directs the
    planner's counter mirrors at a per-server metrics registry when
    [counters] is not supplied (see {!Counters.create}). *)
val create :
  ?strategy:strategy ->
  ?cache:bool ->
  ?lookup:Plan_cache.lookup ->
  ?counters:Counters.t ->
  ?kernel:bool ->
  ?cache_capacity:int ->
  ?shared_cache:Shared_plan_cache.t ->
  ?registry:Raqo_obs.Metrics.registry ->
  Raqo_cluster.Conditions.t ->
  t

(** [kernel_enabled t] reports whether this planner accepts compiled kernels
    from {!plan} (the [?kernel] creation flag). *)
val kernel_enabled : t -> bool

(** [scratch t] is the planner's private kernel scratch buffer — exposed so
    tests and benches can audit its allocation/reuse counters
    ({!Raqo_cost.Kernel.allocs}, {!Raqo_cost.Kernel.reuses}) and prove the
    steady state sweeps without allocating. *)
val scratch : t -> Raqo_cost.Kernel.scratch

val conditions : t -> Raqo_cluster.Conditions.t

(** [with_conditions t conditions] shares the cache and counters but plans
    against new cluster conditions (adaptive re-optimization). *)
val with_conditions : t -> Raqo_cluster.Conditions.t -> t

(** [fork t] is a private copy for another domain or restart: identical
    configuration (strategy, lookup, kernel setting, conditions) and shared
    atomic counters, but a fresh, empty plan cache (same capacity bound) and
    fresh kernel scratch — the two pieces of single-writer state. A planner
    created over a [shared_cache] keeps the same (synchronized) handle across
    forks — cross-query, cross-domain reuse is what the shared cache is for.
    With the default exact-match cache lookup a fork returns the same
    (configuration, cost) answers as the original, so parallel planners hand
    one fork to each worker. *)
val fork : t -> t

(** [plan t ~key ~data_gb ~cost] returns the chosen configuration and its
    cost. [key] identifies the (cost model, sub-plan kind) cache index, e.g.
    ["hive/SMJ/join"]; [data_gb] is the data characteristic. On a cache hit
    the cached configuration is returned with one cost evaluation; on a miss
    the search runs and its result is inserted.

    [start] seeds the hill climb (default: the cluster's minimum
    configuration). Operators with feasibility cliffs — BHJ is infeasible
    below a memory threshold — should pass their smallest feasible
    configuration, or the climb never escapes the infinite-cost plateau.

    [kernel] is a compiled form of [cost] (same model, same impl, same
    [data_gb] — see {!Raqo_cost.Kernel.make}); when given and the planner
    was created with [~kernel:true], searches and cache-hit re-costing run
    through it instead of [cost]. The kernel is bit-identical to the scalar
    model, so passing it never changes the chosen configuration, its cost,
    or the evaluation counters — only the time and allocation spent. Callers
    with extended-space models simply have no kernel to pass ([Kernel.make]
    returns [None]) and keep the scalar path. *)
val plan :
  ?start:Raqo_cluster.Resources.t ->
  ?kernel:Raqo_cost.Kernel.t ->
  t ->
  key:string ->
  data_gb:float ->
  cost:(Raqo_cluster.Resources.t -> float) ->
  Raqo_cluster.Resources.t * float

val counters : t -> Counters.t

(** [reset_counters t] zeroes instrumentation (the cache is preserved). *)
val reset_counters : t -> unit

(** [clear_cache t] empties the private resource-plan cache (between
    queries, as the evaluation does unless measuring across-query caching).
    A shared handle is left untouched: the cross-query cache belongs to its
    server, not to any one planner. *)
val clear_cache : t -> unit

val cache_size : t -> int

(** [cache t] exposes the underlying private resource-plan cache ([None]
    when caching is disabled or the planner uses a shared handle) so the
    verification layer can audit lookup answers against the stored entries.
    Read-only use only. *)
val cache : t -> Plan_cache.t option

(** [shared_cache t] is the striped cross-query cache handle, when this
    planner was created with one. *)
val shared_cache : t -> Shared_plan_cache.t option

(** [lookup t] is the lookup policy this planner queries its cache with. *)
val lookup : t -> Plan_cache.lookup
