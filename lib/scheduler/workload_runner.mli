(** Workload-level evaluation: a stream of queries arriving at a shared
    cluster, executed FIFO (one query holds the cluster at a time, as in the
    Figure 1 queue model). Lifts the paper's per-query comparison to the
    workload level: better joint plans drain the queue faster, so planning
    quality compounds into lower waiting times for everyone behind. *)

type submission = {
  arrival : float;  (** submission time, seconds *)
  relations : string list;  (** the query *)
  data_scale : float;
      (** per-query selectivity on the largest relation (models varying
          WHERE clauses), in (0, 1] *)
}

type query_outcome = {
  submission : submission;
  started : float;
  finished : float;
  plan_ms : float;  (** optimizer time *)
  gb_seconds : float;
  failed : bool;
}

type summary = {
  completed : int;
  failed : int;
  makespan : float;  (** last finish time *)
  mean_latency : float;  (** submit -> finish *)
  p95_latency : float;
  mean_queue_time : float;
  total_tb_seconds : float;
  total_plan_ms : float;
}

(** The planning approach under test: given the (per-query filtered) schema
    and the query's relations, produce a joint plan — or [None] to fail the
    query. Wall-clock planning time is measured around this call. *)
type planner =
  Raqo_catalog.Schema.t -> string list -> Raqo_plan.Join_tree.joint option

(** [generate rng ~n ~arrival_rate schema] draws [n] submissions: Poisson
    arrivals, a random TPC-H evaluation query each, and a random data scale
    in [0.1, 1.0] on the query's largest table. *)
val generate :
  Raqo_util.Rng.t ->
  n:int ->
  arrival_rate:float ->
  Raqo_catalog.Schema.t ->
  submission list

(** A submission whose planning phase has run: the chosen joint plan (or
    [None] on failure) and the wall-clock planning time. *)
type planned = {
  planned_submission : submission;
  plan : Raqo_plan.Join_tree.joint option;
  planning_ms : float;
}

(** [run engine schema submissions ~planner] executes the workload FIFO.
    Each query's schema has its largest relation scaled by [data_scale]
    before planning (the varying-filter model). Failed plans count as
    [failed] and occupy no cluster time. *)
val run :
  Raqo_execsim.Engine.t ->
  Raqo_catalog.Schema.t ->
  submission list ->
  planner:planner ->
  summary * query_outcome list

(** [execute engine schema planned] is the FIFO execution phase of {!run}
    alone: simulate the already-planned queries in submission order. *)
val execute :
  Raqo_execsim.Engine.t ->
  Raqo_catalog.Schema.t ->
  planned list ->
  summary * query_outcome list

(** [optimize_batch ?pool ~model ~conditions schema submissions] plans every
    submission with cost-based RAQO (Selinger over a per-query resource
    planner), concurrently across [pool]'s domains when given. Each query gets
    a private resource planner and cache, so queries are independent and the
    output order matches the input order regardless of pool size; sharing a
    cache across queries remains the opt-in, single-domain [raqo_planner
    ~cache_across_queries] path. *)
val optimize_batch :
  ?pool:Raqo_par.Pool.t ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  Raqo_catalog.Schema.t ->
  submission list ->
  planned list

(** [run_batch ?pool engine ~model ~conditions schema submissions]
    is {!optimize_batch} followed by {!execute}: parallel planning, FIFO
    simulation. *)
val run_batch :
  ?pool:Raqo_par.Pool.t ->
  Raqo_execsim.Engine.t ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  Raqo_catalog.Schema.t ->
  submission list ->
  summary * query_outcome list

(** Ready-made planners for the comparison: *)

(** [raqo_planner ?cache_across_queries ~model ~conditions ()] — cost-based
    RAQO (Selinger, hill climbing; optionally keeping the resource-plan
    cache across queries). *)
val raqo_planner :
  ?cache_across_queries:bool ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  unit ->
  planner

(** [default_planner engine ~resources] — the two-step baseline: the stock
    rule-based plan, executed at one fixed, user-guessed configuration. *)
val default_planner :
  Raqo_execsim.Engine.t -> resources:Raqo_cluster.Resources.t -> planner
