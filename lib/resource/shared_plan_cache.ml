(* A thread-safe wrapper over Plan_cache for cross-query reuse in a resident
   optimizer: Plan_cache itself is unsynchronized single-writer state, so
   concurrent planners share one behind a mutex. Each count has one cell, a
   handle resolved at [create] in the cache's own registry and recorded
   always (lock-free shards, exact once concurrent sections join), under
   dedicated [raqo_shared_plan_cache_*] names so per-planner Counters and
   the shared structure stay separately attributable. *)

module M = Raqo_obs.Metrics

type t = {
  mutex : Mutex.t;
  cache : Plan_cache.t;
  hits : M.Counter.t;
  misses : M.Counter.t;
  evictions : M.Counter.t;
  inserts : M.Counter.t;
  entries : M.Gauge.t;
}

let create ?capacity ?(registry = M.create_registry ()) () =
  {
    mutex = Mutex.create ();
    cache = Plan_cache.create ?capacity ();
    hits = M.counter_in registry "raqo_shared_plan_cache_hits_total";
    misses = M.counter_in registry "raqo_shared_plan_cache_misses_total";
    evictions = M.counter_in registry "raqo_shared_plan_cache_evictions_total";
    inserts = M.counter_in registry "raqo_shared_plan_cache_inserts_total";
    entries = M.gauge_in registry "raqo_shared_plan_cache_entries";
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

let record_lookup t found = M.Counter.inc (if found then t.hits else t.misses)

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

let size t = locked t Plan_cache.size

let insert ~cost t ~key ~data_gb resources =
  let evicted = locked t (fun c -> Plan_cache.insert ~cost c ~key ~data_gb resources) in
  M.Counter.inc t.inserts;
  if evicted > 0 then M.Counter.add t.evictions evicted;
  if Raqo_obs.Obs.enabled () then M.Gauge.set t.entries (float_of_int (size t))

let clear t =
  locked t Plan_cache.clear;
  if Raqo_obs.Obs.enabled () then M.Gauge.set t.entries 0.0

let hits t = M.Counter.value t.hits
let misses t = M.Counter.value t.misses
let evictions t = M.Counter.value t.evictions
let inserts t = M.Counter.value t.inserts
let keys t = locked t Plan_cache.keys
let entries t ~key = locked t (fun c -> Plan_cache.entries c ~key)
