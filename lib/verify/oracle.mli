(** Cross-planner differential oracle. One random instance (schema + query)
    is driven through every planner (Selinger, DPsub, exhaustive,
    randomized Trummer–Koch), every
    resource-planning mode (fixed two-step baseline, joint brute force with
    and without the resource-plan cache, joint hill climbing), and both
    sequential and parallel execution ([jobs]); the relations that must hold
    between their answers are asserted and every violation reported as a
    {!Diagnostic.t}.

    Enforced relations (see DESIGN.md, "Verification layer"):
    - every emitted plan passes {!Invariant.check_joint};
    - DPsub = exhaustive bushy oracle (both exact over the same space);
    - exhaustive <= Selinger and DPsub <= Selinger (bushy space contains
      left-deep), with equality for queries of <= 3 relations;
    - DPsub <= randomized search; Selinger <= greedy left-deep;
    - parallel randomized restarts are bit-identical to their sequential
      counterparts for a fixed seed;
    - the randomized planner's mutation check agrees with
      {!Invariant.check_shape} on every mutation of a seeded 300-step
      chain;
    - joint brute force <= joint hill climbing <= nothing (local optima),
      and joint brute force <= the fixed baseline at an in-grid config;
    - exact-lookup caching does not change the brute-force joint optimum;
    - every cache lookup policy answers within its radius
      ({!Invariant.check_cache_lookup}). *)

type instance = {
  seed : int;
  tables : int;  (** tables in the generated schema *)
  joins : int;  (** requested joins (query has at most [joins + 1] relations) *)
  schema : Raqo_catalog.Schema.t;
  relations : string list;  (** the query: a connected relation subset *)
}

val default_tables : int
val default_joins : int

(** [instance ?tables ?joins seed] deterministically generates a random
    schema and a connected random query from [seed]. *)
val instance : ?tables:int -> ?joins:int -> int -> instance

(** [with_relations t rels] re-targets the query (used by shrinking). *)
val with_relations : instance -> string list -> instance

val pp_instance : Format.formatter -> instance -> unit

(** A fault injects a wrapper around the coster of the named oracle arm —
    the hook tests use to prove the oracle catches broken costers (arms:
    ["selinger"], ["dpsub"],
    ["exhaustive"], ["randomized"], ["randomized-par"], ["greedy"],
    ["raqo-bf"], ["raqo-bf-nocache"], ["raqo-hc"]). *)
type fault = arm:string -> Raqo_planner.Coster.t -> Raqo_planner.Coster.t

val no_fault : fault

(** The compact cluster conditions the oracle plans against (brute-force
    tractable), and the in-grid fixed configuration of its two-step arms. *)
val conditions : Raqo_cluster.Conditions.t

val fixed_resources : Raqo_cluster.Resources.t

(** The floored (non-negative) paper cost model the oracle costs with. *)
val model : Raqo_cost.Op_cost.t

(** The trained extended-space model ({!Raqo.Models.hive}) the compiled
    kernel arms check alongside {!model}. *)
val extended_model : unit -> Raqo_cost.Op_cost.t

(** [check ?jobs ?fault t] runs every arm and returns the violated
    invariants ([] = the instance is consistent). [jobs] lists the pool
    sizes for the parallel arms (default [[2; 4]]; values [<= 1] are
    skipped). *)
val check : ?jobs:int list -> ?fault:fault -> instance -> Diagnostic.t list

(** A fault seam for the adaptive arm: wraps every *re-planning* coster
    inside {!Raqo_adaptive.Adaptive_exec.run}. A wrapper that raises forces
    the fallback path (the incumbent remainder keeps running), under which
    every adaptive invariant below must still hold. *)
type masked_fault = Raqo_planner.Coster.masked -> Raqo_planner.Coster.masked

val no_masked_fault : masked_fault

(** The error distributions the adaptive arm sweeps: exact (zero error),
    lognormal 0.6, skew 0.8, correlated 0.8. *)
val adaptive_dists : Raqo_execsim.Estimation_error.dist list

(** [adaptive_error_seed seed] derives the perturbation seed the adaptive
    arm uses for instance [seed] (printed in fuzz repros). *)
val adaptive_error_seed : int -> int

(** [check_adaptive ?dists ?fault t] runs the runtime-adaptive
    re-optimization arm: for every error distribution, a static plan is
    optimized from the perturbed estimate schema (Selinger always, bushy DP
    for queries of [<= 10] relations) and executed against the ground truth
    by {!Raqo_adaptive.Adaptive_exec}, on Hive (and Spark for the DP arm).
    Asserted, all bitwise:
    - the report's static path equals {!Raqo_execsim.Simulate.run_joint};
    - zero error ([Exact]) fires no re-plan and leaves plan and outcome
      bit-identical to static;
    - adaptive latency [<=] static latency as plain floats (re-planning cost
      included), and a completed static run is never turned into a failure. *)
val check_adaptive :
  ?dists:Raqo_execsim.Estimation_error.dist list ->
  ?fault:masked_fault ->
  instance ->
  Diagnostic.t list

(** The derived workload the allocator arm searches: the instance's query
    plus three more over the same schema (4 queries, budget 16, fairness
    0.5), with heavy-tailed arrivals and a seeded spot-price schedule. *)
val alloc_queries : int

val alloc_budget : int
val alloc_fairness : float

(** [check_alloc t] runs the workload-allocator differential arm:
    response surfaces must be finite, monotone nonincreasing, and re-derive
    the brute-force joint plan cost at full cap; every reported frontier
    point must be within budget, above its fairness floor, re-priceable to
    the identical objective vector, and non-dominated; the best makespan
    must never exceed the naive equal split's (both modes); equal-seed
    randomized searches must be bit-identical; and the exact DP frontier
    must cover every randomized frontier point. *)
val check_alloc : instance -> Diagnostic.t list
