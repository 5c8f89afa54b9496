(* A thread-safe wrapper over Plan_cache for cross-query reuse in a resident
   optimizer: Plan_cache itself is unsynchronized single-writer state, so
   concurrent planners share one behind a mutex. Hit/miss/eviction/insert
   counts live in always-on sharded cells (exact once concurrent sections
   join) and mirror into a metrics registry when observability is enabled,
   under dedicated [raqo_shared_plan_cache_*] names so per-planner Counters
   and the shared structure stay separately attributable. *)

module M = Raqo_obs.Metrics

type t = {
  mutex : Mutex.t;
  cache : Plan_cache.t;
  hits : M.Counter.t;
  misses : M.Counter.t;
  evictions : M.Counter.t;
  inserts : M.Counter.t;
  g_hits : M.Counter.t;
  g_misses : M.Counter.t;
  g_evictions : M.Counter.t;
  g_inserts : M.Counter.t;
  g_entries : M.Gauge.t;
}

let create ?capacity ?(registry = M.default) () =
  {
    mutex = Mutex.create ();
    cache = Plan_cache.create ?capacity ();
    hits = M.Counter.create ();
    misses = M.Counter.create ();
    evictions = M.Counter.create ();
    inserts = M.Counter.create ();
    g_hits = M.counter_in registry "raqo_shared_plan_cache_hits_total";
    g_misses = M.counter_in registry "raqo_shared_plan_cache_misses_total";
    g_evictions = M.counter_in registry "raqo_shared_plan_cache_evictions_total";
    g_inserts = M.counter_in registry "raqo_shared_plan_cache_inserts_total";
    g_entries = M.gauge_in registry "raqo_shared_plan_cache_entries";
  }

let locked t f =
  Mutex.lock t.mutex;
  match f t.cache with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let record_lookup t found =
  if found then begin
    M.Counter.inc t.hits;
    if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_hits
  end
  else begin
    M.Counter.inc t.misses;
    if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_misses
  end

let find t ~key ~data_gb lookup =
  let result = locked t (fun c -> Plan_cache.find c ~key ~data_gb lookup) in
  record_lookup t (Option.is_some result);
  result

(* The lock is taken inline rather than through [locked]: no closure, so a
   hit allocates only its answer. *)
let find_exact t ~model ~conditions ~impl ~data_gb =
  Mutex.lock t.mutex;
  let result =
    match Plan_cache.find_exact t.cache ~model ~conditions ~impl ~data_gb with
    | r ->
        Mutex.unlock t.mutex;
        r
    | exception e ->
        Mutex.unlock t.mutex;
        raise e
  in
  record_lookup t (Option.is_some result);
  result

let insert ~cost t ~key ~data_gb resources =
  let evicted, entries =
    locked t (fun c ->
        (* An exact probe under the same lock tells overwrite from growth, so
           the size delta below attributes evictions correctly (an overwrite
           neither grows the cache nor evicts). *)
        let existed = Plan_cache.find c ~key ~data_gb Plan_cache.Exact <> None in
        let before = Plan_cache.size c in
        Plan_cache.insert ~cost c ~key ~data_gb resources;
        let after = Plan_cache.size c in
        let grown = if existed then 0 else 1 in
        (before + grown - after, after))
  in
  M.Counter.inc t.inserts;
  if evicted > 0 then M.Counter.add t.evictions evicted;
  if Raqo_obs.Obs.enabled () then begin
    M.Counter.inc t.g_inserts;
    if evicted > 0 then M.Counter.add t.g_evictions evicted;
    M.Gauge.set t.g_entries (float_of_int entries)
  end

let size t = locked t Plan_cache.size

let clear t =
  locked t Plan_cache.clear;
  if Raqo_obs.Obs.enabled () then M.Gauge.set t.g_entries 0.0

let hits t = M.Counter.value t.hits
let misses t = M.Counter.value t.misses
let evictions t = M.Counter.value t.evictions
let inserts t = M.Counter.value t.inserts
let keys t = locked t Plan_cache.keys
let entries t ~key = locked t (fun c -> Plan_cache.entries c ~key)
