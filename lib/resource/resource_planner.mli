(** The resource planner cost-based RAQO invokes per costed sub-plan: for
    one join implementation at one data size, a search strategy (the exact
    grid minimum, or the paper's hill climb) behind an optional
    resource-plan cache, with instrumentation. It owns both the search and the cache entry the search
    reads and writes, so the cache key ({!Plan_cache.key}) is exactly what
    the search reads: the cost model, the conditions and the
    implementation. *)

type strategy = Brute_force | Hill_climb

type t

(** [create ?strategy ?cache ?lookup ?counters conditions] builds a
    planner. Defaults: [Brute_force] (the exact grid minimum, in closed
    form through the kernel), caching enabled, exact-match lookup, private
    counters. [Hill_climb] is the paper's Algorithm 1, kept for its
    ablations (Figures 12-15).

    [counters] shares an existing (atomic)
    instrument — parallel randomized restarts give each restart its own
    planner but one shared counter set so the aggregate figures survive.
    Every search runs on the calling domain. The cache, when
    enabled, is private to this planner and must only be touched from one
    domain at a time — cache sharing across concurrent queries stays opt-in
    and single-domain.

    [kernel] (default [true]) makes {!plan} compile the cost model into a
    {!Raqo_cost.Kernel.t} on every cache miss: [Brute_force] then runs
    {!Raqo_cost.Kernel.minimum} and [Hill_climb] probes through the kernel —
    bit-identical costs, same plans, no per-point feature vectors and no
    grid buffer. [~kernel:false] forces the scalar path everywhere, the
    reference the tests and the verification oracle compare against:
    [Brute_force] then evaluates every grid cell, the paper's exhaustive
    search, with the same answers.

    The private cache is unbounded, the paper's behaviour.

    [shared_cache] replaces the private per-planner cache with a handle to a
    thread-safe cross-query cache ({!Shared_plan_cache}) owned by a
    resident server: {!fork} then shares the handle instead of starting
    empty, and [cache] is ignored. [registry] directs the
    planner's counter mirrors at a per-server metrics registry when
    [counters] is not supplied (see {!Counters.create}). *)
val create :
  ?strategy:strategy ->
  ?cache:bool ->
  ?lookup:Plan_cache.lookup ->
  ?counters:Counters.t ->
  ?kernel:bool ->
  ?shared_cache:Shared_plan_cache.t ->
  ?registry:Raqo_obs.Metrics.registry ->
  Raqo_cluster.Conditions.t ->
  t

val conditions : t -> Raqo_cluster.Conditions.t

(** [with_conditions t conditions] shares the cache and counters but plans
    against new cluster conditions (adaptive re-optimization). The cache key
    holds the conditions, so entries planned under other conditions are
    never returned. *)
val with_conditions : t -> Raqo_cluster.Conditions.t -> t

(** [fork t] is a private copy for another domain or restart: identical
    configuration (strategy, lookup, kernel setting, conditions) and shared
    atomic counters, but a fresh, empty, unbounded plan cache — the one
    piece of single-writer state. A planner
    created over a [shared_cache] keeps the same (synchronized) handle across
    forks — cross-query, cross-domain reuse is what the shared cache is for.
    With the default exact-match cache lookup a fork returns the same
    (configuration, cost) answers as the original, so parallel planners hand
    one fork to each worker. *)
val fork : t -> t

(** [plan t ~model ~impl ~small_gb] returns the configuration chosen for
    running [impl] on a build side of [small_gb] GB under [model], and its
    cost; [None] when no configuration is feasible (a BHJ build side larger
    than the grid's largest memory row allows — that row, not [max_gb],
    when [max_gb] is off the memory grid), in which case nothing is
    searched or counted.

    The climb starts from the smallest feasible configuration: BHJ is
    infeasible below a memory threshold, and a climb started below it never
    leaves the infinite-cost plateau. An exact cache hit returns the
    configuration and the cost stored with it — the kernel's cost, bit-equal
    to the scalar model's — without re-costing or counting an evaluation,
    and allocates only its answer. A nearest-neighbour or weighted-average
    hit is re-costed with the scalar model (one evaluation). On a miss the
    search runs and its result is inserted with its cost. *)
val plan :
  t ->
  model:Raqo_cost.Op_cost.t ->
  impl:Raqo_plan.Join_impl.t ->
  small_gb:float ->
  (Raqo_cluster.Resources.t * float) option

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

(** [shared_cache t] is the cross-query cache handle, when this
    planner was created with one. *)
val shared_cache : t -> Shared_plan_cache.t option

(** [lookup t] is the lookup policy this planner queries its cache with. *)
val lookup : t -> Plan_cache.lookup

(** [kernel t] is the [kernel] setting this planner was created with. *)
val kernel : t -> bool

(** [exact_cached t] holds when a cache, private or shared, answers [t]'s
    lookups with [Exact], so a repeated {!plan} call is an exact hit
    returning the first call's answer. False with no cache (every call
    searches) and for nearest-neighbour or weighted-average lookups. *)
val exact_cached : t -> bool
