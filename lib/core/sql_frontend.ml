module Schema = Raqo_catalog.Schema
module Rewrite = Raqo_rewrite.Rewrite

type query = Sql of string | Relations of string list
type mode = Raqo | Qo of Raqo_cluster.Resources.t

type resolved = {
  relations : string list;
  catalog : Schema.t;
  truth : Schema.t;
  hints : Rewrite.hints;
}

type error = Invalid of string | Infeasible

let error_message = function
  | Invalid message -> message
  | Infeasible -> "no feasible joint plan under the current cluster conditions"

type planned = {
  resolved : resolved;
  plan : Raqo_plan.Join_tree.joint;
  est_cost : float;
  estimates : Schema.t;
  adaptive : Raqo_adaptive.Adaptive_exec.report option;
  rewrite : Rewrite.report option;
  counters : Raqo_resource.Counters.t;
}

let rec has_dup = function [] -> false | x :: rest -> List.mem x rest || has_dup rest

(* Both query forms: a single relation has no join to plan. *)
let too_few = "need at least two relations to join"

let resolve ?(metrics = Raqo_obs.Metrics.default) ~schema ~columns = function
  | Sql sql -> begin
      (* Registry lookup per query, not per cost evaluation: cheap enough
         here, and it keeps the counter in the caller's registry. *)
      if Raqo_obs.Obs.enabled () then
        Raqo_obs.Metrics.Counter.inc
          (Raqo_obs.Metrics.counter_in metrics "raqo_sql_queries_total");
      match
        Raqo_obs.Trace.with_ ~name:"sql/analyze" (fun () ->
            Raqo_sql.Resolver.analyze schema columns sql)
      with
      | Error e -> Error e
      | Ok a when List.length a.Raqo_sql.Resolver.relations < 2 -> Error too_few
      | Ok a ->
          Ok
            {
              relations = a.Raqo_sql.Resolver.relations;
              catalog = schema;
              truth = a.Raqo_sql.Resolver.schema;
              hints =
                {
                  Rewrite.filters = a.Raqo_sql.Resolver.table_selectivity;
                  referenced = a.Raqo_sql.Resolver.projected_tables;
                };
            }
    end
  | Relations rels -> (
      if List.length rels < 2 then Error too_few
      else if has_dup rels then Error "duplicate relation in \"relations\""
      else
        match List.find_opt (fun r -> not (Schema.mem schema r)) rels with
        | Some r -> Error (Printf.sprintf "unknown relation %S" r)
        | None when not (Schema.joinable schema rels) ->
            Error "relations do not form a connected join graph"
        | None ->
            Ok
              {
                relations = rels;
                catalog = schema;
                truth = schema;
                hints = Rewrite.no_hints;
              })

let check_mode mode ~adaptive =
  match mode with
  | Qo _ when adaptive -> Error "\"adaptive\" does not apply to mode \"qo\""
  | Qo _ | Raqo -> Ok ()

let optimize ?kind ?seed ?kernel ?shared_cache ?(rewrite = true)
    ?(metrics = Raqo_obs.Metrics.default) ?(mode = Raqo) ?adaptive ~model ~conditions
    (r : resolved) =
  let optimizer ~rewrite ~hints schema =
    Cost_based.create ?kind ?seed ?kernel ?shared_cache ~rewrite ~rewrite_hints:hints
      ~metrics ~model ~conditions schema
  in
  let planned opt ?adaptive (plan, est_cost) =
    let rewrite = match mode with Raqo -> Cost_based.rewrite_report opt | Qo _ -> None in
    let counters = Cost_based.counters opt in
    let estimates = Cost_based.rewritten_schema opt in
    { resolved = r; plan; est_cost; estimates; adaptive; rewrite; counters }
  in
  let traced f = Raqo_obs.Trace.with_ ~name:"sql/optimize" f in
  match (check_mode mode ~adaptive:(Option.is_some adaptive), mode, adaptive) with
  | Error message, _, _ -> Error (Invalid message)
  | Ok (), Qo resources, _ -> (
      (* The two-step baseline does not rewrite: it plans the filter-scaled
         truth at the given resources. *)
      let opt = optimizer ~rewrite ~hints:Rewrite.no_hints r.truth in
      match traced (fun () -> Cost_based.optimize_qo opt ~resources r.relations) with
      | Some p -> Ok (planned opt p)
      | None -> Error Infeasible)
  | Ok (), Raqo, None -> (
      (* With the rewriter on, plan against the unscaled catalog and hand the
         resolver's filter selectivities to the pushdown rule, which replays
         the resolver's scan-scaling fold bitwise; the projection list
         additionally enables absorption and narrowing. Off plans the
         filter-scaled truth as it is. *)
      let opt =
        if rewrite then optimizer ~rewrite ~hints:r.hints r.catalog
        else optimizer ~rewrite ~hints:Rewrite.no_hints r.truth
      in
      match traced (fun () -> Cost_based.optimize opt r.relations) with
      | Some p -> Ok (planned opt p)
      | None -> Error Infeasible)
  | Ok (), Raqo, Some (engine, error) -> (
      (* The filter-scaled truth is what execution meets; the planner sees it
         only through the seeded estimation error. Filters are already folded
         into the truth, so the rewrite pass gets the projection hints only. *)
      let estimates = Raqo_execsim.Estimation_error.perturb error r.truth in
      let opt = optimizer ~rewrite ~hints:{ r.hints with Rewrite.filters = [] } estimates in
      match
        traced (fun () ->
            Cost_based.optimize_adaptive ~engine ~truth:r.truth opt r.relations)
      with
      | Some (report, est_cost) ->
          Ok
            (planned opt ~adaptive:report
               (report.Raqo_adaptive.Adaptive_exec.static_plan, est_cost))
      | None -> Error Infeasible)

let plan ?kind ?seed ?kernel ?shared_cache ?rewrite ?metrics ?mode ?adaptive ~model
    ~conditions ~schema ~columns query =
  match resolve ?metrics ~schema ~columns query with
  | Error message -> Error (Invalid message)
  | Ok r ->
      optimize ?kind ?seed ?kernel ?shared_cache ?rewrite ?metrics ?mode ?adaptive ~model
        ~conditions r

let plan_tpch ?kind ?(scale_factor = 100.0) sql =
  plan ?kind ~model:(Models.hive ()) ~conditions:Raqo_cluster.Conditions.default
    ~schema:(Raqo_catalog.Tpch.schema ~scale_factor ())
    ~columns:(Raqo_catalog.Tpch.columns ~scale_factor ())
    (Sql sql)
