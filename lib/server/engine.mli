(** The resident optimizer: one value of {!t} owns everything a planner
    process would otherwise re-build per query — the interned TPC-H catalog,
    the trained cost model (warm compiled kernels), a cross-query
    {!Raqo_resource.Shared_plan_cache} and a private metrics
    {!Raqo_obs.Metrics.registry}. Nothing is ambient: two engines (two
    servers, or a server and the CLI) share no mutable state.

    Admission control: {!submit} either enqueues a request into a bounded
    FIFO or immediately returns a typed [Overloaded] rejection — the queue
    never grows past [queue_capacity], so an overloaded server sheds load
    instead of accumulating unbounded latency. {!process_wave} drains up to
    [batch] requests and plans them one after another on the calling domain
    (one optimizer per request, all warming the same shared cache),
    returning responses in submission order.

    Bit-identity: {!plan_request} plans through {!Raqo.Sql_frontend.plan},
    the one request pipeline [raqo plan] also takes, and the shared cache's
    exact-match hits return the same resource plans a fresh search would
    find — so a served response equals {!oneshot} on the same request, byte
    for byte. *)

type config = {
  queue_capacity : int;  (** admission bound; beyond it requests are rejected *)
  tenant_quota : int option;
      (** per-tenant queue-depth bound: a tenant with this many requests
          already queued gets a typed [Overloaded] rejection naming it, even
          while the global queue has room — one noisy tenant cannot starve
          the rest. [None] (default) disables the quota. *)
  batch : int;  (** max requests planned per {!process_wave} *)
  cache_capacity : int option;  (** shared-cache LRU bound ([None] unbounded) *)
  kernel : bool;  (** compiled cost kernels (the CLI's [--no-kernel] gates it) *)
  rewrite : bool;
      (** logical rewrite pass before enumeration: SQL filter selectivities
          become pushdown hints (replaying the resolver's scan scaling
          bitwise) and the projection list enables FK/constant absorption
          and width narrowing; responses gain a ["rewrite"] summary when a
          rule fired. Off plans the resolver-scaled schema exactly as
          before. *)
  scale_factor : float;  (** TPC-H catalog scale *)
  conditions : Raqo_cluster.Conditions.t;
}

(** Queue 64, batch 8, cache 4096 entries, kernel on, rewrite
    on, SF 100, default conditions. *)
val default_config : config

type t

(** [create ()] builds a resident engine. [registry] overrides the default
    fresh per-engine metrics registry, which holds the engine's and its
    shared cache's counts — `raqo metrics` passes the process-wide one so
    server counters show up in its dump; servers keep the fresh default for
    isolation. *)
val create : ?config:config -> ?registry:Raqo_obs.Metrics.registry -> unit -> t
val config : t -> config
val registry : t -> Raqo_obs.Metrics.registry
val cache : t -> Raqo_resource.Shared_plan_cache.t

(** [plan_request t req] plans one request synchronously on the calling
    domain, bypassing admission. It is {!Raqo.Sql_frontend.plan} with the
    engine's catalog, cache, registry, kernel and rewrite settings and the
    request engine's {!Raqo.Models.for_engine} model: resolve and option
    errors come back [Bad_request], no feasible plan [Infeasible]. Never raises:
    planner exceptions come back as [Rejected {reason = Internal; _}]. *)
val plan_request : t -> Protocol.request -> Protocol.response

(** [oneshot req] plans on a fresh engine (fresh cache, fresh registry) —
    the reference answer the smoke test diffs served responses against. *)
val oneshot : ?config:config -> Protocol.request -> Protocol.response

(** [allocate t areq] answers an [{"op":"allocate"}] request synchronously:
    resolves every member with {!Raqo.Sql_frontend.resolve}, jointly plans
    it and builds its latency/cost response surface, member by member, and searches joint allocations under the
    global container budget ({!Raqo_alloc.Allocator.search}). Member queries
    plan without the rewrite pass so surface stats match planner stats. Never
    raises: unresolvable queries come back [Bad_request], infeasible ones
    [Infeasible], allocator/planner exceptions [Internal]. Fully
    deterministic — a served response equals {!oneshot_allocate}, byte for
    byte. *)
val allocate : t -> Protocol.alloc_request -> Protocol.response

(** [oneshot_allocate areq] is {!allocate} on a fresh engine. *)
val oneshot_allocate : ?config:config -> Protocol.alloc_request -> Protocol.response

(** [submit t req] admits [req] into the bounded queue ([None]) or rejects it
    ([Some (Rejected {reason = Overloaded; _})]). Thread-safe. *)
val submit : t -> Protocol.request -> Protocol.response option

val queue_depth : t -> int

(** [health t ~id] is the immediate [Health_ok] answer to an
    [{"op":"health"}] probe: current queue depth and [ready = true]. Never
    queued — it must answer even under overload — and carries no wall-clock
    field, so probe responses are deterministic. *)
val health : t -> id:string option -> Protocol.response

(** [oneshot_health ~id ()] is {!health} for the engine-less
    [raqo serve --oneshot] path: depth 0. *)
val oneshot_health : id:string option -> unit -> Protocol.response

(** [process_wave t] drains up to [config.batch] queued requests and plans
    them in submission order on the calling domain; [(request, response)]
    pairs come back in that order. Empty list when the queue is empty. *)
val process_wave : t -> (Protocol.request * Protocol.response) list

(** [drain t] runs {!process_wave} until the queue is empty. *)
val drain : t -> (Protocol.request * Protocol.response) list

(** Lifetime counts, read from the engine's registry, where each lives in
    one cell: [raqo_server_{admitted,rejected,responses}_total] and the
    histogram [raqo_server_latency_seconds], recorded whatever the
    observability mode. Only the gauge [raqo_server_queue_depth] and the
    tenant-labelled counters are obs-gated. Engines that share a registry
    share these counts. *)
val admitted : t -> int

val rejected : t -> int
val responses : t -> int
val latency_histogram : t -> Raqo_obs.Metrics.Histogram.t

(** [tenant_stats t] is per-tenant [(tenant, (queued, planned, rejected))],
    sorted by tenant name. Requests that name no tenant account under
    ["default"]. The registry carries obs-gated mirrors
    [raqo_server_tenant_{admitted,planned,rejected}_total{tenant="..."}]. *)
val tenant_stats : t -> (string * (int * int * int)) list
