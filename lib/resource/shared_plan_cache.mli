(** A sharded, thread-safe, cross-query resource-plan cache.

    {!Plan_cache} is deliberately unsynchronized (single-writer, one per
    planner); a resident optimizer serving concurrent requests instead
    shares one of these: a striped wrapper that routes every entry of a
    cache key to one shard (so nearest-neighbor and weighted-average range
    lookups stay correct under a single shard lock) and lets distinct keys
    proceed in parallel.

    The LRU bound is {e per shard}: a total [capacity] is split evenly
    across shards and enforced by each shard's own {!Plan_cache} bound, so a
    hot shard evicts independently of a cold one and the whole structure
    never holds more than [shards * per_shard_capacity] entries.

    Hit/miss/eviction/insert counts are always recorded in lock-free sharded
    cells (exact once concurrent sections have joined); when
    {!Raqo_obs.Obs.enabled} is on they also mirror into the metrics registry
    the cache was created against, under
    [raqo_shared_plan_cache_{hits,misses,evictions,inserts}_total] and the
    [raqo_shared_plan_cache_entries] gauge — distinct names from the
    per-planner {!Counters} mirrors, so `raqo metrics --prometheus` shows
    both the per-request and the shared-structure view. *)

type t

(** [create ()] builds an empty cache with 8 shards and no capacity bound.
    [capacity] is the {e total} entry bound, split evenly into per-shard LRU
    bounds of [ceil (capacity / shards)]. [registry] receives the
    observability mirrors (default: the process-wide registry).
    @raise Invalid_argument when [shards < 1] or [capacity < 1]. *)
val create :
  ?shards:int ->
  ?capacity:int ->
  ?registry:Raqo_obs.Metrics.registry ->
  unit ->
  t

val shard_count : t -> int

(** [per_shard_capacity t] is the LRU bound each shard enforces, if any. *)
val per_shard_capacity : t -> int option

(** [shard_of t ~key] is the shard index [key] routes to (all data
    characteristics of one key share a shard; test hook). *)
val shard_of : t -> key:string -> int

(** [find t ~key ~data_gb lookup] is {!Plan_cache.find} under the owning
    shard's lock. Records a hit or miss in [t]'s own counters (callers that
    also keep per-planner {!Counters} record there themselves). *)
val find : t -> key:string -> data_gb:float -> Plan_cache.lookup -> Raqo_cluster.Resources.t option

(** [insert t ~key ~data_gb resources] is {!Plan_cache.insert} under the
    owning shard's lock; evictions forced by the per-shard bound are counted
    against [t]. *)
val insert : t -> key:string -> data_gb:float -> Raqo_cluster.Resources.t -> unit

(** [size t] is the total entry count across shards (locks each shard in
    turn: a consistent value only once concurrent writers have joined). *)
val size : t -> int

(** [shard_sizes t] is the per-shard entry count, index-aligned with
    {!shard_of} — the hook the LRU-bound tests check against
    {!per_shard_capacity}. *)
val shard_sizes : t -> int array

val clear : t -> unit

(** {2 Counters} — cumulative since creation, never reset by {!clear}. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val inserts : t -> int

(** {2 Verification hooks} *)

val keys : t -> string list
val entries : t -> key:string -> (float * Raqo_cluster.Resources.t) list
