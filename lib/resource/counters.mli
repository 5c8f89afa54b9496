(** Resource-planning instrumentation: the paper's evaluation reports the
    number of resource configurations explored (cost-model evaluations) and
    cache effectiveness, so every search threads one of these.

    Counters are {!Raqo_obs.Metrics.Counter} shards underneath (lock-free
    per-domain cells merged on read): one instrument can be shared by tasks
    running on different domains (parallel randomized restarts) without
    losing increments. Reads ({!cost_evaluations} etc.)
    are merged snapshots — exact once the parallel section has joined,
    approximate while it is in flight.

    When {!Raqo_obs.Obs.enabled} is on, every record also feeds a metrics
    registry ([raqo_cost_evaluations_total],
    [raqo_plan_cache_{hits,misses}_total],
    [raqo_planner_invocations_total]), so per-instrument views and the
    registry stay one source of truth. The mirror handles are resolved once
    at {!create} from [?registry] — the process-wide default unless a
    resident server threads its own.

    This is the one record that keeps a count twice, a private cell plus an
    obs-gated registry mirror: many short-lived planners (one per request,
    one per restart) each read their own figures while feeding one process
    total. *)

type t

val create : ?registry:Raqo_obs.Metrics.registry -> unit -> t
val reset : t -> unit

(** {2 Reading} *)

val cost_evaluations : t -> int
    (** resource configurations whose cost was computed *)

val cache_hits : t -> int
    (** cache probes answered; a build side the mask-seam raqo coster
        answers from its memo is not a probe *)

val cache_misses : t -> int

val planner_invocations : t -> int
    (** resource-planning calls (one per costed sub-plan) *)

(** {2 Recording} *)

val record_evaluation : t -> unit
val record_evaluations : t -> int -> unit
val record_hit : t -> unit
val record_miss : t -> unit
val record_invocation : t -> unit
