module Kernel = Raqo_cost.Kernel
module Op_cost = Raqo_cost.Op_cost
module Join_impl = Raqo_plan.Join_impl
module Conditions = Raqo_cluster.Conditions

type strategy = Brute_force | Hill_climb

(* The cache behind [plan]: either the historical private Plan_cache (one
   per planner, single-writer) or a handle to the cross-query cache a
   resident server shares between all its concurrent planners. *)
type cache_handle = Private of Plan_cache.t | Shared of Shared_plan_cache.t

type t = {
  conditions : Conditions.t;
  strategy : strategy;
  cache : cache_handle option;
  lookup : Plan_cache.lookup;
  counters : Counters.t;
  use_kernel : bool;
}

let create ?(strategy = Brute_force) ?(cache = true)
    ?(lookup = Plan_cache.Exact) ?counters ?(kernel = true) ?shared_cache ?registry
    conditions =
  {
    conditions;
    strategy;
    cache =
      (match shared_cache with
      | Some shared -> Some (Shared shared)
      | None -> if cache then Some (Private (Plan_cache.create ())) else None);
    lookup;
    counters = (match counters with Some k -> k | None -> Counters.create ?registry ());
    use_kernel = kernel;
  }

let conditions t = t.conditions
let with_conditions t conditions = { t with conditions }

(* A private copy for another domain (or another restart): same
   configuration and shared counters, but a new private cache, the one
   piece of single-writer state. A shared cache is synchronized and
   cross-query by design, so forks keep the same handle: that sharing is
   the point of a resident server. *)
let fork t =
  {
    t with
    cache =
      (match t.cache with
      | Some (Private _) -> Some (Private (Plan_cache.create ()))
      | (Some (Shared _) | None) as cache -> cache);
  }

(* Static span names: picked by branch, never built at runtime. *)
let span_name strategy ~kernel =
  match (strategy, kernel) with
  | Hill_climb, true -> "resource/hill-climb-kernel"
  | Hill_climb, false -> "resource/hill-climb"
  | Brute_force, true -> "resource/closed-form"
  | Brute_force, false -> "resource/brute-force"

(* The grid's largest memory row, which [max_gb] need not be. *)
let last_gb (conditions : Conditions.t) =
  conditions.min_gb +. (float_of_int (Conditions.steps_gb conditions - 1) *. conditions.gb_step)

(* BHJ needs a container of at least small_gb / headroom: the grid's last
   row must hold the build side, by the cost model's own comparison. *)
let feasible (model : Op_cost.t) impl ~small_gb conditions =
  match impl with
  | Join_impl.Smj -> true
  | Join_impl.Bhj -> small_gb <= model.oom_headroom *. last_gb conditions

(* The hill climb's start, the smallest feasible grid configuration: BHJ
   must start its climb above the OOM cliff, or the climb never leaves the
   infinite-cost plateau. Only called when [feasible]. *)
let climb_start (model : Op_cost.t) impl ~small_gb (conditions : Conditions.t) =
  match impl with
  | Join_impl.Smj -> Conditions.min_config conditions
  | Join_impl.Bhj ->
      let needed = small_gb /. model.oom_headroom in
      let steps = Float.max 0.0 (ceil ((needed -. conditions.min_gb) /. conditions.gb_step)) in
      let gb = conditions.min_gb +. (steps *. conditions.gb_step) in
      Raqo_cluster.Resources.make ~containers:conditions.min_containers
        ~container_gb:(Float.min (last_gb conditions) gb)

(* The kernel is compiled here, on a miss only: a hit never searches. *)
let search t model impl ~small_gb =
  let span =
    if not (Raqo_obs.Obs.enabled ()) then Raqo_obs.Trace.none
    else Raqo_obs.Trace.start (span_name t.strategy ~kernel:t.use_kernel)
  in
  let result =
    if t.use_kernel then begin
      let kernel = Kernel.make model impl ~small_gb in
      match t.strategy with
      | Hill_climb ->
          let start = climb_start model impl ~small_gb t.conditions in
          Hill_climb.plan_kernel ~counters:t.counters ~start t.conditions kernel
      | Brute_force -> Brute_force.search_kernel ~counters:t.counters t.conditions ~kernel
    end
    else begin
      let cost resources = Op_cost.predict_exn model impl ~small_gb ~resources in
      match t.strategy with
      | Hill_climb ->
          let start = climb_start model impl ~small_gb t.conditions in
          Hill_climb.plan ~counters:t.counters ~start t.conditions cost
      | Brute_force -> Brute_force.search ~counters:t.counters t.conditions cost
    end
  in
  Raqo_obs.Trace.finish span;
  result

(* A cache probe, counted here and only here: one hit or one miss in the
   planner's counters per probe, whichever cache and lookup answer it (a
   shared handle also counts the probe in its own registry). An exact hit
   answers with the cost stored beside the configuration: the search that
   stored it returned the kernel's cost, which is bit-equal to the scalar
   model's, so nothing is re-costed or counted and the answer is the only
   allocation. Nearest-neighbour and weighted-average answers are other
   sizes' configurations, re-costed here for this size (one evaluation). *)
let lookup_cached t handle model impl ~small_gb =
  let conditions = t.conditions in
  let found =
    match t.lookup with
    | Plan_cache.Exact -> (
        match handle with
        | Private cache -> Plan_cache.find_exact cache ~model ~conditions ~impl ~data_gb:small_gb
        | Shared shared ->
            Shared_plan_cache.find_exact shared ~model ~conditions ~impl ~data_gb:small_gb)
    | Plan_cache.Nearest_neighbor _ | Plan_cache.Weighted_average _ -> (
        let key = { Plan_cache.model; conditions; impl } in
        let near =
          match handle with
          | Private cache -> Plan_cache.find cache ~key ~data_gb:small_gb t.lookup
          | Shared shared -> Shared_plan_cache.find shared ~key ~data_gb:small_gb t.lookup
        in
        match near with
        | Some cached ->
            Counters.record_evaluation t.counters;
            Some (cached, Op_cost.predict_exn model impl ~small_gb ~resources:cached)
        | None -> None)
  in
  (match found with
  | Some _ -> Counters.record_hit t.counters
  | None -> Counters.record_miss t.counters);
  found

let plan t ~model ~impl ~small_gb =
  if not (feasible model impl ~small_gb t.conditions) then None
  else
    match t.cache with
    | None -> Some (search t model impl ~small_gb)
    | Some handle -> (
        match lookup_cached t handle model impl ~small_gb with
        | Some _ as hit -> hit
        | None ->
            let ((resources, cost) as found) = search t model impl ~small_gb in
            let key = { Plan_cache.model; conditions = t.conditions; impl } in
            (match handle with
            | Private cache ->
                ignore (Plan_cache.insert ~cost cache ~key ~data_gb:small_gb resources)
            | Shared shared ->
                Shared_plan_cache.insert ~cost shared ~key ~data_gb:small_gb resources);
            Some found)

let counters t = t.counters
let reset_counters t = Counters.reset t.counters
let cache t = match t.cache with Some (Private cache) -> Some cache | Some (Shared _) | None -> None
let shared_cache t = match t.cache with Some (Shared s) -> Some s | Some (Private _) | None -> None
let lookup t = t.lookup
let kernel t = t.use_kernel

let exact_cached t =
  Option.is_some t.cache
  && match t.lookup with Plan_cache.Exact -> true | Nearest_neighbor _ | Weighted_average _ -> false

(* Clearing is scoped to state this planner owns: a shared cross-query cache
   belongs to the server, so per-query resets must not wipe it. *)
let clear_cache t =
  match t.cache with
  | Some (Private cache) -> Plan_cache.clear cache
  | Some (Shared _) | None -> ()

let cache_size t =
  match t.cache with
  | Some (Private cache) -> Plan_cache.size cache
  | Some (Shared shared) -> Shared_plan_cache.size shared
  | None -> 0
