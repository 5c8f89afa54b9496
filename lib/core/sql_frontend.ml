type planned = {
  analyzed : Raqo_sql.Resolver.analyzed;
  plan : Raqo_plan.Join_tree.joint;
  est_cost : float;
  adaptive : Raqo_adaptive.Adaptive_exec.report option;
  rewrite : Raqo_rewrite.Rewrite.report option;
}

let plan ?kind ?seed ?kernel ?pool ?adaptive ?shared_cache ?(rewrite = true)
    ?(metrics = Raqo_obs.Metrics.default) ~model ~conditions ~schema ~columns sql =
  (* Registry lookup per query, not per cost evaluation: cheap enough here,
     and it keeps the counter in the caller's registry (a resident server
     threads its own). *)
  if Raqo_obs.Obs.enabled () then
    Raqo_obs.Metrics.Counter.inc (Raqo_obs.Metrics.counter_in metrics "raqo_sql_queries_total");
  match
    Raqo_obs.Trace.with_ ~name:"sql/analyze" (fun () ->
        Raqo_sql.Resolver.analyze schema columns sql)
  with
  | Error e -> Error e
  | Ok analyzed -> begin
      match adaptive with
      | None -> begin
          (* With the rewriter on, plan against the *unscaled* catalog and
             hand the resolver's filter selectivities and projected tables
             to the rewrite pass: its pushdown rule replays the resolver's
             scan-scaling fold bitwise, so a filter-only query plans
             identically to the historical resolver-scaled path, while
             projections additionally enable absorption and narrowing. *)
          let opt =
            if rewrite then
              Cost_based.create ?kind ?seed ?kernel ?shared_cache
                ~rewrite_hints:
                  {
                    Raqo_rewrite.Rewrite.filters =
                      analyzed.Raqo_sql.Resolver.table_selectivity;
                    referenced = analyzed.Raqo_sql.Resolver.projected_tables;
                  }
                ~metrics ~model ~conditions schema
            else
              Cost_based.create ?kind ?seed ?kernel ?shared_cache
                ~rewrite:false ~metrics ~model ~conditions
                analyzed.Raqo_sql.Resolver.schema
          in
          match
            Raqo_obs.Trace.with_ ~name:"sql/optimize" (fun () ->
                match pool with
                | Some pool ->
                    Cost_based.optimize_par opt pool analyzed.Raqo_sql.Resolver.relations
                | None -> Cost_based.optimize opt analyzed.Raqo_sql.Resolver.relations)
          with
          | Some (plan, est_cost) ->
              Ok
                {
                  analyzed;
                  plan;
                  est_cost;
                  adaptive = None;
                  rewrite = Cost_based.rewrite_report opt;
                }
          | None -> Error "no feasible joint plan under the current cluster conditions"
        end
      | Some (engine, error) -> begin
          (* Adaptive mode: the resolver's filter-scaled schema is the ground
             truth; the planner only sees it through the seeded estimation
             error. Plan statically from the estimates, then execute with
             boundary re-optimization against the truth. Filters are already
             folded into the truth here, so the rewrite pass only gets the
             projection hints. *)
          let truth = analyzed.Raqo_sql.Resolver.schema in
          let estimates = Raqo_execsim.Estimation_error.perturb error truth in
          let opt =
            Cost_based.create ?kind ?seed ?kernel ?shared_cache ~rewrite
              ~rewrite_hints:
                {
                  Raqo_rewrite.Rewrite.filters = [];
                  referenced = analyzed.Raqo_sql.Resolver.projected_tables;
                }
              ~metrics ~model ~conditions estimates
          in
          match
            Raqo_obs.Trace.with_ ~name:"sql/optimize" (fun () ->
                Cost_based.optimize_adaptive ?pool ~engine ~truth opt
                  analyzed.Raqo_sql.Resolver.relations)
          with
          | Some (report, est_cost) ->
              Ok
                {
                  analyzed;
                  plan = report.Raqo_adaptive.Adaptive_exec.static_plan;
                  est_cost;
                  adaptive = Some report;
                  rewrite = Cost_based.rewrite_report opt;
                }
          | None -> Error "no feasible joint plan under the current cluster conditions"
        end
    end

let plan_tpch ?kind ?(scale_factor = 100.0) sql =
  plan ?kind ~model:(Models.hive ()) ~conditions:Raqo_cluster.Conditions.default
    ~schema:(Raqo_catalog.Tpch.schema ~scale_factor ())
    ~columns:(Raqo_catalog.Tpch.columns ~scale_factor ())
    sql
