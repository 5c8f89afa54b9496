(* A striped, thread-safe wrapper over Plan_cache for cross-query reuse in a
   resident optimizer: Plan_cache itself is unsynchronized single-writer
   state, so concurrent planners must not share one. Striping by cache key
   keeps every entry of a key (the unit nearest-neighbor and weighted-average
   lookups scan) inside one shard, so a shard lock is enough for any lookup
   policy; different keys spread over shards and proceed in parallel.

   The LRU bound is enforced per shard by the wrapped Plan_cache's own
   capacity: a total [capacity] is split evenly, and a hot shard evicts
   independently of a cold one. Hit/miss/eviction/insert counts live in
   always-on sharded cells (exact once concurrent sections join) and mirror
   into a metrics registry when observability is enabled, under dedicated
   [raqo_shared_plan_cache_*] names so per-planner Counters and the shared
   structure stay separately attributable. *)

module Resources = Raqo_cluster.Resources
module M = Raqo_obs.Metrics

type shard = { mutex : Mutex.t; cache : Plan_cache.t }

type t = {
  shards : shard array;
  per_shard_capacity : int option;
  hits : M.Counter.t;
  misses : M.Counter.t;
  evictions : M.Counter.t;
  inserts : M.Counter.t;
  net_entries : M.Counter.t;
  g_hits : M.Counter.t;
  g_misses : M.Counter.t;
  g_evictions : M.Counter.t;
  g_inserts : M.Counter.t;
  g_entries : M.Gauge.t;
}

let create ?(shards = 8) ?capacity ?(registry = M.default) () =
  if shards < 1 then invalid_arg "Shared_plan_cache.create: shards must be >= 1";
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Shared_plan_cache.create: capacity must be >= 1"
  | Some _ | None -> ());
  let per_shard_capacity =
    Option.map (fun c -> max 1 ((c + shards - 1) / shards)) capacity
  in
  {
    shards =
      Array.init shards (fun _ ->
          {
            mutex = Mutex.create ();
            cache = Plan_cache.create ?capacity:per_shard_capacity ();
          });
    per_shard_capacity;
    hits = M.Counter.create ();
    misses = M.Counter.create ();
    evictions = M.Counter.create ();
    inserts = M.Counter.create ();
    net_entries = M.Counter.create ();
    g_hits = M.counter_in registry "raqo_shared_plan_cache_hits_total";
    g_misses = M.counter_in registry "raqo_shared_plan_cache_misses_total";
    g_evictions = M.counter_in registry "raqo_shared_plan_cache_evictions_total";
    g_inserts = M.counter_in registry "raqo_shared_plan_cache_inserts_total";
    g_entries = M.gauge_in registry "raqo_shared_plan_cache_entries";
  }

let shard_count t = Array.length t.shards
let per_shard_capacity t = t.per_shard_capacity

(* Route by the key string only: all data characteristics of one key must
   land in the same shard for range lookups to see them. *)
let shard_of t ~key = Hashtbl.hash key mod Array.length t.shards

let locked shard f =
  Mutex.lock shard.mutex;
  match f shard.cache with
  | v ->
      Mutex.unlock shard.mutex;
      v
  | exception e ->
      Mutex.unlock shard.mutex;
      raise e

let find t ~key ~data_gb lookup =
  let result = locked t.shards.(shard_of t ~key) (fun c -> Plan_cache.find c ~key ~data_gb lookup) in
  (match result with
  | Some _ ->
      M.Counter.inc t.hits;
      if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_hits
  | None ->
      M.Counter.inc t.misses;
      if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_misses);
  result

let insert t ~key ~data_gb resources =
  let evicted =
    locked t.shards.(shard_of t ~key) (fun c ->
        (* An exact probe under the same lock tells overwrite from growth, so
           the size delta below attributes evictions correctly (an overwrite
           neither grows the shard nor evicts). *)
        let existed = Plan_cache.find c ~key ~data_gb Plan_cache.Exact <> None in
        let before = Plan_cache.size c in
        Plan_cache.insert c ~key ~data_gb resources;
        let after = Plan_cache.size c in
        let grown = if existed then 0 else 1 in
        M.Counter.add t.net_entries (after - before);
        max 0 (before + grown - after))
  in
  M.Counter.inc t.inserts;
  if evicted > 0 then M.Counter.add t.evictions evicted;
  if Raqo_obs.Obs.enabled () then begin
    M.Counter.inc t.g_inserts;
    if evicted > 0 then M.Counter.add t.g_evictions evicted;
    M.Gauge.set t.g_entries (float_of_int (M.Counter.value t.net_entries))
  end

let size t =
  Array.fold_left (fun acc shard -> acc + locked shard Plan_cache.size) 0 t.shards

let shard_sizes t = Array.map (fun shard -> locked shard Plan_cache.size) t.shards

let clear t =
  Array.iter (fun shard -> locked shard Plan_cache.clear) t.shards;
  M.Counter.reset t.net_entries;
  if Raqo_obs.Obs.enabled () then M.Gauge.set t.g_entries 0.0

let hits t = M.Counter.value t.hits
let misses t = M.Counter.value t.misses
let evictions t = M.Counter.value t.evictions
let inserts t = M.Counter.value t.inserts

let keys t =
  Array.to_list t.shards
  |> List.concat_map (fun shard -> locked shard Plan_cache.keys)
  |> List.sort_uniq compare

let entries t ~key = locked t.shards.(shard_of t ~key) (fun c -> Plan_cache.entries c ~key)
