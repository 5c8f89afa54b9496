module Coster = Raqo_planner.Coster
module Resource_planner = Raqo_resource.Resource_planner
module Interned = Raqo_catalog.Interned
module Rewrite = Raqo_rewrite.Rewrite

type planner_kind = Selinger | Fast_randomized | Bushy_dp

type t = {
  kind : planner_kind;
  schema : Raqo_catalog.Schema.t;
  model : Raqo_cost.Op_cost.t;
  resource_planner : Resource_planner.t;
  rng : Raqo_util.Rng.t;
  randomized_params : Raqo_planner.Randomized.params;
  rewrite : Rewrite.t option;
  rewrite_hints : Rewrite.hints;
  (* Instrumentation handles resolved once at creation against the metrics
     registry this optimizer was built with — the process-wide default, or a
     per-server registry so two resident servers share no mutable state. *)
  m_plans : Raqo_obs.Metrics.Counter.t;
  m_plan_seconds : Raqo_obs.Metrics.Histogram.t;
}

let create ?(kind = Selinger) ?(seed = 42)
    ?(randomized_params = Raqo_planner.Randomized.default_params) ?resource_planner
    ?(rewrite = true) ?(rewrite_hints = Rewrite.no_hints) ?(metrics = Raqo_obs.Metrics.default)
    ~model ~conditions schema =
  let resource_planner =
    match resource_planner with
    | Some make -> make conditions
    | None -> Resource_planner.create ~registry:metrics conditions
  in
  {
    kind;
    schema;
    model;
    resource_planner;
    rng = Raqo_util.Rng.create seed;
    randomized_params;
    rewrite = (if rewrite then Some (Rewrite.create ~registry:metrics schema) else None);
    rewrite_hints;
    m_plans = Raqo_obs.Metrics.counter_in metrics "raqo_plans_total";
    m_plan_seconds = Raqo_obs.Metrics.histogram_in metrics "raqo_plan_seconds";
  }

let schema t = t.schema
let model t = t.model
let conditions t = Resource_planner.conditions t.resource_planner
let resource_planner t = t.resource_planner

let with_conditions t conditions =
  { t with resource_planner = Resource_planner.with_conditions t.resource_planner conditions }

(* Admission: intern the query's relations for the mask-based planners.
   [None] sends the query down the historical string path — which owns the
   validation errors (empty set, unknown relation) so messages stay exactly
   as they were, and which alone handles queries too large for native-int
   masks (the randomized planner accepts up to 100 relations). *)
let interned_ctx t relations =
  let n = List.length relations in
  if n = 0 || n > Interned.max_relations then None
  else if List.for_all (Raqo_catalog.Schema.mem t.schema) relations then
    Some (Interned.make t.schema relations)
  else None

let run_planner t coster relations =
  match t.kind with
  | Selinger -> Raqo_planner.Selinger.optimize coster t.schema relations
  | Bushy_dp -> Raqo_planner.Dpsub.optimize coster t.schema relations
  | Fast_randomized ->
      Raqo_planner.Randomized.optimize ~params:t.randomized_params t.rng coster t.schema
        relations

let run_planner_masked t m ctx =
  match t.kind with
  | Selinger -> Raqo_planner.Selinger.optimize_masked m ctx
  | Bushy_dp -> Raqo_planner.Dpsub.optimize_masked m ctx
  | Fast_randomized ->
      Raqo_planner.Randomized.optimize_masked ~params:t.randomized_params t.rng m ctx

let kind_span = function
  | Selinger -> "plan/selinger"
  | Bushy_dp -> "plan/bushy-dp"
  | Fast_randomized -> "plan/randomized"

(* Top-level planning span + duration histogram; everything the planners and
   resource searches record nests under this span (across domains too — the
   pool re-parents its tasks to the submitting span). *)
let instrumented t f =
  if not (Raqo_obs.Obs.enabled ()) then f ()
  else begin
    let t0 = Raqo_obs.Obs.now_ns () in
    let span = Raqo_obs.Trace.start (kind_span t.kind) in
    match f () with
    | result ->
        Raqo_obs.Trace.finish span;
        Raqo_obs.Metrics.Counter.inc t.m_plans;
        Raqo_obs.Metrics.Histogram.observe t.m_plan_seconds
          (float_of_int (Raqo_obs.Obs.now_ns () - t0) /. 1e9);
        result
    | exception e ->
        Raqo_obs.Trace.finish span;
        raise e
  end

(* The production costers, exposed so the verification layer can drive (and
   re-cost against) the exact coster [optimize] / [optimize_qo] use. *)
let coster t = Coster.raqo t.model t.schema t.resource_planner
let coster_qo t ~resources = Coster.fixed t.model t.schema resources
let masked_coster t ctx = Coster.raqo_masked t.model ctx t.resource_planner
let masked_coster_qo t ctx ~resources = Coster.fixed_masked t.model ctx resources

(* Logical rewrite pass: when a rule fires, the planner below sees the
   rewritten stats and the surviving relations via a record copy — the
   resource planner, caches and counters stay shared with [t]. A no-op
   rewrite returns the inputs physically unchanged, so zero-applicable
   queries plan bit-identically to [~rewrite:false]. *)
let rewrite_query t relations =
  match t.rewrite with
  | None -> (t, relations)
  | Some eng ->
      let changed =
        if not (Raqo_obs.Obs.enabled ()) then
          Rewrite.apply eng ~hints:t.rewrite_hints relations
        else begin
          let span = Raqo_obs.Trace.start "plan/rewrite" in
          match Rewrite.apply eng ~hints:t.rewrite_hints relations with
          | changed ->
              Raqo_obs.Trace.finish span;
              changed
          | exception e ->
              Raqo_obs.Trace.finish span;
              raise e
        end
      in
      if changed then
        ({ t with schema = Rewrite.schema_out eng }, Rewrite.relations_out eng)
      else (t, relations)

let rewrite_report t = Option.map Rewrite.last t.rewrite

let rewritten_schema t =
  match t.rewrite with Some eng -> Rewrite.schema_out eng | None -> t.schema

let optimize t relations =
  instrumented t (fun () ->
      let t, relations = rewrite_query t relations in
      match interned_ctx t relations with
      | Some ctx -> run_planner_masked t (masked_coster t ctx) ctx
      | None -> run_planner t (coster t) relations)

(* A fresh coster per restart: the raqo coster's statistics memo table is a
   plain hashtable, and the forked
   resource planner keeps cache and kernel scratch single-domain. The shared
   atomic counters keep aggregate instrumentation meaningful. *)
let restart_planner t = fun () -> Resource_planner.fork t.resource_planner

let restart_coster t =
  let planner = restart_planner t in
  fun () -> Coster.raqo t.model t.schema (planner ())

(* The interned context is immutable, so restarts on different domains share
   it; each gets its own masked coster (private memo tables). *)
let restart_masked_coster t ctx =
  let planner = restart_planner t in
  fun () -> Coster.raqo_masked t.model ctx (planner ())

let optimize_par t pool relations =
  match t.kind with
  | Selinger | Bushy_dp -> optimize t relations
  | Fast_randomized ->
      instrumented t (fun () ->
          let t, relations = rewrite_query t relations in
          match interned_ctx t relations with
          | Some ctx ->
              Raqo_planner.Randomized.optimize_par_masked ~params:t.randomized_params pool
                t.rng
                ~coster:(restart_masked_coster t ctx)
                ctx
          | None ->
              Raqo_planner.Randomized.optimize_par ~params:t.randomized_params pool t.rng
                ~coster:(restart_coster t) t.schema relations)

(* Adaptive RAQO: [t] is the optimizer a user would build over the (possibly
   erroneous) estimate schema; [truth] is what execution actually encounters.
   Plan statically from the estimates, then execute with boundary
   re-optimization against the truth. The static plan, its estimated cost,
   and both simulated outcomes travel in the report. *)
let optimize_adaptive ?replan_cost_s ~engine ~truth t relations =
  Option.map
    (fun (plan, est_cost) ->
      let report =
        Raqo_adaptive.Adaptive_exec.run ?replan_cost_s
          ~kernel:(Resource_planner.kernel t.resource_planner) ~engine
          ~model:t.model ~conditions:(conditions t) ~truth ~estimates:t.schema plan
      in
      (report, est_cost))
    (optimize t relations)

let optimize_qo t ~resources relations =
  instrumented t (fun () ->
      match interned_ctx t relations with
      | Some ctx -> run_planner_masked t (masked_coster_qo t ctx ~resources) ctx
      | None -> run_planner t (coster_qo t ~resources) relations)

let candidates t relations =
  match interned_ctx t relations with
  | Some ctx -> begin
      let m = masked_coster t ctx in
      match t.kind with
      | Selinger -> Option.to_list (Raqo_planner.Selinger.optimize_masked m ctx)
      | Bushy_dp -> Option.to_list (Raqo_planner.Dpsub.optimize_masked m ctx)
      | Fast_randomized ->
          Raqo_planner.Randomized.local_optima_masked ~params:t.randomized_params t.rng m ctx
    end
  | None -> begin
      let coster = coster t in
      match t.kind with
      | Selinger -> Option.to_list (Raqo_planner.Selinger.optimize coster t.schema relations)
      | Bushy_dp -> Option.to_list (Raqo_planner.Dpsub.optimize coster t.schema relations)
      | Fast_randomized ->
          Raqo_planner.Randomized.local_optima ~params:t.randomized_params t.rng coster
            t.schema relations
    end

let counters t = Resource_planner.counters t.resource_planner

let reset t =
  Resource_planner.reset_counters t.resource_planner;
  Resource_planner.clear_cache t.resource_planner
