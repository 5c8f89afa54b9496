(* Each instrument owns private sharded cells (Raqo_obs.Metrics.Counter:
   lock-free per-domain shards merged on read), so parallel searches —
   concurrent randomized restarts, batched workload planning — share one
   instrument without losing increments or contending on a single cache
   line; see Raqo_par.Pool.

   When observability is on, every record additionally bumps the mirror
   handles resolved at [create] time from a metrics registry — the process-wide
   default unless the instrument was created with [?registry] (a resident
   server threads its own, so two servers never share mutable state). The
   mirrors are what `raqo metrics`, the fuzz summary and the Prometheus
   exporter read. When observability is off, recording is exactly the one
   sharded atomic add it always was. *)

module M = Raqo_obs.Metrics

type t = {
  cost_evaluations : M.Counter.t;
  cache_hits : M.Counter.t;
  cache_misses : M.Counter.t;
  cache_evictions : M.Counter.t;
  planner_invocations : M.Counter.t;
  (* Registry mirrors: aggregate over every instrument bound to the same
     registry. *)
  g_evaluations : M.Counter.t;
  g_hits : M.Counter.t;
  g_misses : M.Counter.t;
  g_evictions : M.Counter.t;
  g_invocations : M.Counter.t;
}

let create ?(registry = M.default) () =
  {
    cost_evaluations = M.Counter.create ();
    cache_hits = M.Counter.create ();
    cache_misses = M.Counter.create ();
    cache_evictions = M.Counter.create ();
    planner_invocations = M.Counter.create ();
    g_evaluations = M.counter_in registry "raqo_cost_evaluations_total";
    g_hits = M.counter_in registry "raqo_plan_cache_hits_total";
    g_misses = M.counter_in registry "raqo_plan_cache_misses_total";
    g_evictions = M.counter_in registry "raqo_plan_cache_evictions_total";
    g_invocations = M.counter_in registry "raqo_planner_invocations_total";
  }

let reset t =
  M.Counter.reset t.cost_evaluations;
  M.Counter.reset t.cache_hits;
  M.Counter.reset t.cache_misses;
  M.Counter.reset t.cache_evictions;
  M.Counter.reset t.planner_invocations

let cost_evaluations t = M.Counter.value t.cost_evaluations
let cache_hits t = M.Counter.value t.cache_hits
let cache_misses t = M.Counter.value t.cache_misses
let cache_evictions t = M.Counter.value t.cache_evictions
let planner_invocations t = M.Counter.value t.planner_invocations

let record_evaluations t n =
  M.Counter.add t.cost_evaluations n;
  if Raqo_obs.Obs.enabled () then M.Counter.add t.g_evaluations n

let record_evaluation t = record_evaluations t 1

let record_hit t =
  M.Counter.inc t.cache_hits;
  if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_hits

let record_miss t =
  M.Counter.inc t.cache_misses;
  if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_misses

let record_eviction t =
  M.Counter.inc t.cache_evictions;
  if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_evictions

let record_invocation t =
  M.Counter.inc t.planner_invocations;
  if Raqo_obs.Obs.enabled () then M.Counter.inc t.g_invocations

(* Accumulation is a bookkeeping move between instruments, not new work: it
   goes straight to the private cells, never to the registry mirrors. *)
let add ~into t =
  M.Counter.add into.cost_evaluations (cost_evaluations t);
  M.Counter.add into.cache_hits (cache_hits t);
  M.Counter.add into.cache_misses (cache_misses t);
  M.Counter.add into.cache_evictions (cache_evictions t);
  M.Counter.add into.planner_invocations (planner_invocations t)

let pp fmt t =
  Format.fprintf fmt "evals=%d hits=%d misses=%d evictions=%d invocations=%d"
    (cost_evaluations t) (cache_hits t) (cache_misses t) (cache_evictions t)
    (planner_invocations t)
