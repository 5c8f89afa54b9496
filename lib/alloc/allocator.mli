(** Workload-level global resource allocation on the Pareto frontier.

    Given N concurrent queries — each already jointly planned per-query and
    summarized by a {!Surface} — and a finite cluster container budget, the
    allocator searches *joint* allocations (one container cap per query, all
    running concurrently, caps summing to at most the budget) and exposes
    the Pareto frontier of three objectives:

    - makespan: the latest completion time [max (arrival + latency(cap))];
    - dollars: total spot-priced GB·s over each query's execution window;
    - SLO violations: queries whose latency exceeds their deadline.

    Two search modes share one evaluation and one frontier filter: an exact
    tri-objective DP over (query prefix, containers used) whose per-cell
    dominance pruning is lossless (every objective accumulates
    monotonically), and a seeded randomized local search for workloads too
    large to enumerate — multi-restart greedy descent over randomly weighted
    scalarizations, archiving every visited allocation. The randomized mode
    always starts from the naive equal split, so its frontier's best
    makespan never exceeds the baseline's; the differential oracle
    ({!Raqo_verify}'s [check_alloc]) holds exact to dominate-or-equal
    randomized on every seed. *)

type query = {
  name : string;
  tenant : string;
  weight : float;  (** tenant weight for fairness floors (positive) *)
  arrival : float;  (** submission time, seconds *)
  slo : float option;  (** latency deadline, seconds *)
  surface : Surface.t;
}

(** One joint allocation and its objective vector. [alloc.(i)] is query
    [i]'s container cap, index-aligned with the query array. *)
type point = { alloc : int array; makespan : float; dollars : float; violations : int }

type mode = Exact | Randomized

type outcome = {
  mode : mode;  (** the search that actually ran *)
  frontier : point list;  (** non-dominated, sorted by makespan ascending *)
  equal_split : point;  (** the naive equal-split baseline *)
  evaluated : int;  (** allocations (exact: partial extensions) evaluated *)
}

val mode_name : mode -> string

(** [query ~name surface] builds a workload entry (defaults: tenant
    ["default"], weight 1, arrival 0, no SLO).
    @raise Invalid_argument on nonpositive weight/SLO or negative arrival. *)
val query :
  ?tenant:string ->
  ?weight:float ->
  ?arrival:float ->
  ?slo:float ->
  name:string ->
  Surface.t ->
  query

(** [evaluate ?pricing queries alloc] prices one allocation (default
    pricing: flat {!Raqo_cluster.Pricing.default}). *)
val evaluate : ?pricing:Raqo_cluster.Pricing.schedule -> query array -> int array -> point

(** Weak and strict Pareto dominance over (makespan, dollars, violations). *)
val covers : point -> point -> bool

val dominates : point -> point -> bool

(** The frontier's order: makespan, then dollars, then violations (floats
    by [Float.compare]), then the allocation. *)
val compare_points : point -> point -> int

(** [frontier_of points] is the non-dominated subset of [points], sorted by
    {!compare_points}, with equal objective vectors collapsed onto the
    smallest allocation. One sweep in that order: whatever covers a point
    sorts before it, so a point is dropped exactly when an earlier one with
    at most its violations has at most its dollars — a running minimum of
    dollars per violation count decides. *)
val frontier_of : point list -> point list

(** [floors ~budget ~fairness queries] is each query's guaranteed container
    floor: [fairness] (in [\[0, 1\]]) times its weight share of the budget,
    rounded down onto its cap grid and never below the grid minimum.
    @raise Invalid_argument when the floors exceed the budget. *)
val floors : budget:int -> fairness:float -> query array -> int array

(** [equal_split ?pricing ~budget ~fairness queries] prices the naive
    baseline: round-robin grid steps until budget or caps run out. *)
val equal_split :
  ?pricing:Raqo_cluster.Pricing.schedule -> budget:int -> fairness:float -> query array -> point

(** [exact ?max_states ?pricing ~budget ~fairness queries] runs the exact
    Pareto DP over (query prefix, containers used); [None] when a DP
    layer's non-dominated state count exceeds [max_states] (default 500k)
    — callers fall back to {!randomized}.

    Each cell keeps one staircase per violation count: partials sorted by
    makespan ascending, dollars strictly descending. Whether a candidate is
    covered is one binary search per count at or below its own; the
    partials it covers are one contiguous run per count at or above it.
    The survivors are those of a plain list cell extended newest-first,
    where a candidate enters unless a member covers it ([<=] on all three
    objectives) and then evicts every member it covers: so of two equal
    vectors the {e first inserted} stays, and each cell's survivors are
    extended in reverse insertion order. The frontier's bytes depend on
    both rules; [Raqo_verify.Alloc_reference] keeps the list DP as the
    baseline this is checked against.

    With observability on, [raqo_alloc_exact_states_total] grows by the
    largest state count any layer of the run reached — the figure
    [max_states] bounds — and [raqo_alloc_evaluations_total] by
    [evaluated]. *)
val exact :
  ?max_states:int ->
  ?pricing:Raqo_cluster.Pricing.schedule ->
  budget:int ->
  fairness:float ->
  query array ->
  outcome option

(** [randomized ?pricing ~seed ~budget ~fairness queries] runs the seeded
    local search: 8 restarts of 256 moves each. Deterministic for a fixed
    seed. *)
val randomized :
  ?pricing:Raqo_cluster.Pricing.schedule ->
  seed:int ->
  budget:int ->
  fairness:float ->
  query array ->
  outcome

(** The CLI/server search selector: [Auto] runs the exact DP when its work
    bound is small and the randomized search otherwise; [Want_exact] falls
    back to randomized only on state overflow. *)
type want = Want_exact | Want_randomized | Auto

val want_of_string : string -> want option
val want_names : string list

val search :
  ?want:want ->
  ?pricing:Raqo_cluster.Pricing.schedule ->
  seed:int ->
  budget:int ->
  fairness:float ->
  query array ->
  outcome

(** What a caller minimizes when it picks one point off the frontier. *)
type objective = Makespan | Dollars | Balanced

(** [choose objective outcome] is the deterministic pick off
    [outcome.frontier]: [Makespan] its head (the frontier is
    makespan-ascending), [Dollars] the cheapest point, [Balanced] the least
    [makespan + 1000 dollars + 1000 violations]. Ties go to the earlier
    point, so equal outcomes choose equal points; an empty frontier gives
    the equal split. The result is a frontier element itself. *)
val choose : objective -> outcome -> point

(** [independent ?pricing ~budget queries] is the no-allocator baseline:
    every query demands its standalone {!Surface.preferred_cap} and the
    cluster runs them FIFO through {!Raqo_cluster.Queue_sim} — later
    arrivals wait instead of sharing, and queueing counts against SLOs. *)
val independent :
  ?pricing:Raqo_cluster.Pricing.schedule -> budget:int -> query array -> point

(** [hypervolume ~ref_makespan ~ref_dollars points] is the 2D hypervolume of
    the (makespan, dollars) projection w.r.t. the reference corner. *)
val hypervolume : ref_makespan:float -> ref_dollars:float -> point list -> float
