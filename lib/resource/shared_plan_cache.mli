(** A thread-safe, cross-query resource-plan cache.

    {!Plan_cache} is deliberately unsynchronized (single-writer, one per
    planner); a resident optimizer serving concurrent requests instead
    shares one of these: one {!Plan_cache} behind one mutex. The [capacity]
    bound is the total entry count, enforced by the wrapped cache's LRU.

    Hit/miss/eviction/insert counts are always recorded in lock-free sharded
    cells (exact once concurrent sections have joined); when
    {!Raqo_obs.Obs.enabled} is on they also mirror into the metrics registry
    the cache was created against, under
    [raqo_shared_plan_cache_{hits,misses,evictions,inserts}_total] and the
    [raqo_shared_plan_cache_entries] gauge — distinct names from the
    per-planner {!Counters} mirrors, so `raqo metrics --prometheus` shows
    both the per-request and the shared-structure view. *)

type t

(** [create ()] builds an empty cache with no capacity bound. [capacity] is
    the total entry bound (LRU). [registry] receives the observability
    mirrors (default: the process-wide registry).
    @raise Invalid_argument when [capacity < 1]. *)
val create : ?capacity:int -> ?registry:Raqo_obs.Metrics.registry -> unit -> t

(** [find t ~key ~data_gb lookup] is {!Plan_cache.find} under the lock.
    Records a hit or miss in [t]'s own counters (callers that also keep
    per-planner {!Counters} record there themselves). *)
val find :
  t ->
  key:Plan_cache.key ->
  data_gb:float ->
  Plan_cache.lookup ->
  Raqo_cluster.Resources.t option

(** [find_exact t ~model ~conditions ~impl ~data_gb] is
    {!Plan_cache.find_exact} under the lock: the stored configuration and
    its stored cost, with the answer as its only allocation. Records a hit
    or miss like {!find}. *)
val find_exact :
  t ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  impl:Raqo_plan.Join_impl.t ->
  data_gb:float ->
  (Raqo_cluster.Resources.t * float) option

(** [insert t ~key ~data_gb resources] is {!Plan_cache.insert} under the
    lock, [cost] included; evictions forced by the bound are counted
    against [t]. *)
val insert :
  cost:float -> t -> key:Plan_cache.key -> data_gb:float -> Raqo_cluster.Resources.t -> unit

(** [size t] is the total entry count (a consistent value only once
    concurrent writers have joined). *)
val size : t -> int

val clear : t -> unit

(** {2 Counters} — cumulative since creation, never reset by {!clear}. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val inserts : t -> int

(** {2 Verification hooks} *)

val keys : t -> Plan_cache.key list
val entries : t -> key:Plan_cache.key -> (float * Raqo_cluster.Resources.t) list
