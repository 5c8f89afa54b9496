(* raqo: command-line front end for the RAQO optimizer.

   Subcommands:
     plan    — optimize a TPC-H-schema query jointly over plans and resources
     switch  — locate the BHJ/SMJ switch point for a resource configuration
     tree    — print the default or trained join-implementation decision tree
     queue   — simulate a contended cluster queue and print wait statistics
     allocate — split a global container budget across concurrent queries
                on the Pareto frontier of makespan, dollars, SLO violations
     fuzz    — differential fuzzing of the planners against each other
     trace   — run a traced joint planning and summarize its spans
     metrics — run the evaluation queries and dump the metrics registry
     serve   — resident optimizer: line-delimited JSON requests over stdio/TCP

   Unknown subcommands are rejected up front with the command listing and
   exit code 2 (same contract as the bench runner's unknown sections). *)

open Cmdliner

(* --trace FILE: shared across the planning subcommands. Turns the
   observability layer on for the whole run and dumps the span rings as
   Chrome trace_event JSON on the way out. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Enable observability and write a Chrome trace_event JSON trace of the run \
               to $(docv) (open it in chrome://tracing or https://ui.perfetto.dev).")

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Raqo_obs.Obs.set_enabled true;
      let result = f () in
      Raqo_obs.Export.write_chrome_trace path;
      Printf.printf "trace: %d spans written to %s\n" (Raqo_obs.Trace.recorded ()) path;
      result

let engine_of_string = function
  | "hive" -> Ok Raqo_execsim.Engine.hive
  | "spark" -> Ok Raqo_execsim.Engine.spark
  | s -> Error (`Msg (Printf.sprintf "unknown engine %S (expected hive or spark)" s))

let engine_conv = Arg.conv (engine_of_string, fun fmt e -> Raqo_execsim.Engine.pp fmt e)

let engine_arg =
  Arg.(value & opt engine_conv Raqo_execsim.Engine.hive & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Execution engine profile: hive or spark.")

let containers_arg =
  Arg.(value & opt int 100 & info [ "max-containers" ] ~docv:"N"
         ~doc:"Cluster condition: maximum concurrent containers.")

let memory_arg =
  Arg.(value & opt float 10.0 & info [ "max-gb" ] ~docv:"GB"
         ~doc:"Cluster condition: maximum container memory in GB.")

(* Every subcommand builds its cluster conditions here, so bad bounds (no
   containers, memory below the 1 GB floor, NaN or infinite memory) exit 2
   with a message on all of them instead of escaping as Invalid_argument. *)
let conditions max_containers max_gb =
  match Raqo_cluster.Conditions.make ~max_containers ~max_gb () with
  | c -> c
  | exception Invalid_argument msg ->
      Printf.eprintf "raqo: invalid cluster bounds (%d containers, %g GB): %s\n"
        max_containers max_gb msg;
      exit 2

(* A bad option value is refused by the option's own converter, so only
   subcommands that take the flag check it. The message lists the valid
   choices, and [main] turns cmdliner's usage-error exit into 2. *)
let invalid_value s choices =
  Error
    (`Msg
      (Printf.sprintf "invalid value %S. Valid choices:\n%s" s
         (String.concat "\n" (List.map (fun c -> "  " ^ c) choices))))

(* An enumerated option: its names are its valid choices. *)
let choice_conv choices =
  let parse s =
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None -> invalid_value s (List.map fst choices)
  in
  let print fmt v = Format.pp_print_string fmt (fst (List.find (fun (_, w) -> w = v) choices)) in
  Arg.conv (parse, print)

let planner_conv =
  choice_conv [ ("selinger", `Selinger); ("randomized", `Randomized); ("dpsub", `Dpsub) ]

(* Every --jobs takes an integer >= 1: a domain-pool size on [trace] and
   [fuzz], a simulated job count on [queue]. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> invalid_value s [ "an integer >= 1, e.g. 2" ]
  in
  Arg.conv (parse, Format.pp_print_int)

let no_rewrite_arg =
  Arg.(value & flag & info [ "no-rewrite" ]
         ~doc:"Disable the logical rewrite pass (predicate pushdown, FK/constant relation \
               absorption, projection narrowing) that shrinks the join set before \
               enumeration. Rewritten plans are never costlier than unrewritten ones; \
               this flag exists to compare against the pre-rewrite search.")

let print_rewrite_report (r : Raqo_rewrite.Rewrite.report) =
  if r.Raqo_rewrite.Rewrite.changed then begin
    Printf.printf "rewrite:";
    List.iter
      (fun (rule, n) -> Printf.printf " %s=%d" rule n)
      (Raqo_rewrite.Rewrite.fired r);
    Printf.printf " (relations removed: %d)\n" r.Raqo_rewrite.Rewrite.removed;
    List.iter
      (fun (gone, into) -> Printf.printf "  absorbed %s into %s\n" gone into)
      r.Raqo_rewrite.Rewrite.absorbed
  end
  else print_endline "rewrite: no rules fired"

(* --adaptive / --est-error: runtime adaptive re-optimization. *)

let est_error_conv =
  Arg.conv
    ( (fun s ->
        match Raqo_execsim.Estimation_error.of_string s with
        | Ok t -> Ok t
        | Error _ ->
            invalid_value s
              [
                "none (exact estimates, the default)";
                "lognormal:SEED        e.g. lognormal:42";
                "skew=MAG:SEED         e.g. skew=0.5:7";
                "correlated:SEED       (DIST:SEED or DIST=MAG:SEED forms)";
              ]),
      fun fmt t -> Format.pp_print_string fmt (Raqo_execsim.Estimation_error.to_string t) )

let est_error_arg =
  Arg.(value & opt est_error_conv Raqo_execsim.Estimation_error.exact
       & info [ "est-error" ] ~docv:"DIST:SEED"
           ~doc:"Seeded cardinality-estimation error the planner sees (the simulator keeps \
                 the truth): none (default), or lognormal, skew, correlated as \
                 DIST:SEED or DIST=MAG:SEED — e.g. lognormal:42, skew=0.5:7.")

let adaptive_arg =
  Arg.(value & flag & info [ "adaptive" ]
         ~doc:"Execute the plan adaptively: materialize at stage boundaries, observe true \
               intermediate sizes, and re-plan the remaining join graph whenever an \
               observation contradicts its estimate (see --est-error). Prints the static \
               and adaptive simulated outcomes side by side; adaptive is never worse.")

let print_adaptive_report (r : Raqo_adaptive.Adaptive_exec.report) =
  let module A = Raqo_adaptive.Adaptive_exec in
  Printf.printf "static plan (from estimates): %s\n"
    (Format.asprintf "%a" A.pp_outcome r.A.static_outcome);
  Printf.printf "adaptive execution:           %s\n"
    (Format.asprintf "%a" A.pp_outcome r.A.adaptive_outcome);
  Printf.printf "re-plans: %d  switches: %d  failed re-plans: %d  switch cost: %.2f s\n"
    r.A.replans r.A.switches r.A.failed_replans r.A.replan_cost_s;
  (match (r.A.static_outcome, r.A.adaptive_outcome) with
  | A.Done { seconds = s; _ }, A.Done { seconds = a; _ } when s > 0.0 && a < s ->
      Printf.printf "adaptive saved %.1f s (%.1f%%)\n" (s -. a) (100.0 *. (s -. a) /. s)
  | A.Oom _, A.Done _ -> print_endline "adaptive rescued a run the static plan fails (OOM)"
  | _ -> ());
  print_endline "stages (adaptive run):";
  List.iter
    (fun (s : A.stage) ->
      Printf.printf "  %2d  %-4s %-12s %8.1f s  est %11.3e rows, observed %11.3e%s%s\n"
        s.A.index
        (Raqo_plan.Join_impl.to_string s.A.impl)
        (Raqo_cluster.Resources.to_string s.A.resources)
        s.A.seconds s.A.est_rows s.A.observed_rows
        (if s.A.replanned then "  [re-planned" else "")
        (if s.A.switched then ", switched]" else if s.A.replanned then "]" else ""))
    r.A.stages

(* ------------------------------------------------------------------ plan *)

let plan_cmd =
  let relations_arg =
    Arg.(value & pos_all string Raqo_catalog.Tpch.q3 & info [] ~docv:"RELATION"
           ~doc:"TPC-H relations to join (default: customer orders lineitem).")
  in
  let planner_arg =
    Arg.(value & opt planner_conv `Selinger
         & info [ "planner" ] ~docv:"PLANNER" ~doc:"Join-order planner.")
  in
  let mode_arg =
    Arg.(value & opt (enum [ ("raqo", `Raqo); ("qo", `Qo) ]) `Raqo & info [ "mode" ]
           ~docv:"MODE"
           ~doc:"raqo = joint query and resource optimization; qo = plan only, at the \
                 fixed resources given by --containers/--gb.")
  in
  let fixed_containers =
    Arg.(value & opt int 10 & info [ "containers" ] ~docv:"N"
           ~doc:"Fixed container count for --mode qo.")
  in
  let fixed_gb =
    Arg.(value & opt float 5.0 & info [ "gb" ] ~docv:"GB"
           ~doc:"Fixed container memory for --mode qo.")
  in
  let sql_arg =
    Arg.(value & opt (some string) None & info [ "sql" ] ~docv:"SQL"
           ~doc:"Optimize a SQL query against the TPC-H catalog instead of a relation list, \
                 e.g. \"select * from orders, lineitem where o_orderkey = l_orderkey and \
                 o_totalprice < 172000\".")
  in
  let run relations planner mode max_containers max_gb nc gb sql no_rewrite engine adaptive
      est_error trace =
    with_trace trace @@ fun () ->
    let module F = Raqo.Sql_frontend in
    let model, engine = Raqo.Models.for_engine engine.Raqo_execsim.Engine.name in
    let kind =
      match planner with
      | `Selinger -> Raqo.Cost_based.Selinger
      | `Randomized -> Raqo.Cost_based.Fast_randomized
      | `Dpsub -> Raqo.Cost_based.Bushy_dp
    in
    let conditions = conditions max_containers max_gb in
    let mode =
      match mode with
      | `Raqo -> F.Raqo
      | `Qo -> (
          match Raqo_cluster.Resources.make ~containers:nc ~container_gb:gb with
          | r -> F.Qo r
          | exception Invalid_argument msg ->
              Printf.eprintf "raqo: invalid --containers/--gb (%d, %g): %s\n" nc gb msg;
              exit 2)
    in
    (match F.check_mode mode ~adaptive with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "raqo: %s\n" msg;
        exit 2);
    let query = match sql with Some sql -> F.Sql sql | None -> F.Relations relations in
    match
      F.plan ~kind ~rewrite:(not no_rewrite) ~mode
        ?adaptive:(if adaptive then Some (engine, est_error) else None)
        ~model ~conditions ~schema:(Raqo_catalog.Tpch.schema ())
        ~columns:(Raqo_catalog.Tpch.columns ()) query
    with
    | Error (F.Invalid msg) ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Error F.Infeasible ->
        print_endline "no feasible plan";
        exit 2
    | Ok p -> (
        List.iter
          (fun (table, s) ->
            if s < 1.0 then Printf.printf "filter selectivity on %s: %.4f\n" table s)
          p.F.resolved.F.hints.Raqo_rewrite.Rewrite.filters;
        (match p.F.rewrite with
        | Some r when r.Raqo_rewrite.Rewrite.changed -> print_rewrite_report r
        | _ -> ());
        (* Explained against the schema the planner priced, after the
           rewrite, so the printed total is the served cost. *)
        print_string (Raqo.Explain.joint model p.F.estimates p.F.plan);
        match (p.F.adaptive, query) with
        | Some report, _ ->
            print_newline ();
            print_adaptive_report report
        | None, F.Relations _ ->
            Printf.printf "resource configurations explored: %d (cache hits %d)\n"
              (Raqo_resource.Counters.cost_evaluations p.F.counters)
              (Raqo_resource.Counters.cache_hits p.F.counters)
        | None, F.Sql _ -> ())
  in
  let term =
    Term.(const run $ relations_arg $ planner_arg $ mode_arg $ containers_arg $ memory_arg
          $ fixed_containers $ fixed_gb $ sql_arg $ no_rewrite_arg
          $ engine_arg $ adaptive_arg $ est_error_arg $ trace_arg)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Jointly optimize a TPC-H query's plan and resources") term

(* ---------------------------------------------------------------- switch *)

let switch_cmd =
  let nc_arg = Arg.(value & opt int 10 & info [ "containers" ] ~docv:"N" ~doc:"Containers.") in
  let gb_arg = Arg.(value & opt float 3.0 & info [ "gb" ] ~docv:"GB" ~doc:"Container memory.") in
  let big_arg = Arg.(value & opt float 77.0 & info [ "big-gb" ] ~docv:"GB" ~doc:"Probe-side size.") in
  let run engine nc gb big =
    let resources = Raqo_cluster.Resources.make ~containers:nc ~container_gb:gb in
    match
      Raqo_workload.Switch_points.find engine ~big_gb:big ~resources ~lo:0.05 ~hi:14.0 ()
    with
    | Some s ->
        Printf.printf
          "BHJ/SMJ switch point at %d x %.1f GB (probe %.0f GB): %.2f GB build side\n" nc gb
          big s
    | None -> print_endline "no switch point in [0.05, 14] GB (one implementation dominates)"
  in
  Cmd.v
    (Cmd.info "switch" ~doc:"Locate the BHJ/SMJ switch point for a resource configuration")
    Term.(const run $ engine_arg $ nc_arg $ gb_arg $ big_arg)

(* ------------------------------------------------------------------ tree *)

let tree_cmd =
  let kind_arg =
    Arg.(value & opt (enum [ ("default", `Default); ("raqo", `Raqo) ]) `Raqo
           & info [ "kind" ] ~doc:"default = the engine's stock rule; raqo = trained tree.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.")
  in
  let run engine kind dot =
    let tree =
      match kind with
      | `Default -> Raqo.Join_dt.default_tree engine
      | `Raqo -> Raqo.Join_dt.train ~prune:true engine ~big_gb:77.0
    in
    if dot then
      print_string
        (Raqo_dtree.Tree.to_dot
           ~feature_names:Raqo_workload.Profile_runs.dtree_feature_names
           ~label_names:Raqo_workload.Profile_runs.dtree_labels tree)
    else print_string (Raqo.Join_dt.render tree)
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Print a join-implementation decision tree (paper Figs 10/11)")
    Term.(const run $ engine_arg $ kind_arg $ dot_arg)

(* ---------------------------------------------------------------- pareto *)

let relations_pos =
  Arg.(value & pos_all string Raqo_catalog.Tpch.q3 & info [] ~docv:"RELATION"
         ~doc:"TPC-H relations to join (default: customer orders lineitem).")

let pareto_cmd =
  let run relations max_containers max_gb =
    let schema = Raqo_catalog.Tpch.schema () in
    let opt =
      Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized
        ~model:(Raqo.Models.hive ()) ~conditions:(conditions max_containers max_gb) schema
    in
    let front = Raqo.Pareto.front opt relations in
    print_string (Raqo.Pareto.render front);
    print_newline ();
    match Raqo.Pareto.knee front with
    | Some k ->
        Format.printf "knee: %a (est cost %.1f, $%.4f)\n" Raqo_plan.Join_tree.pp_joint
          k.Raqo.Use_cases.plan k.Raqo.Use_cases.est_cost k.Raqo.Use_cases.est_money
    | None -> print_endline "empty front"
  in
  Cmd.v
    (Cmd.info "pareto" ~doc:"Print the time-money Pareto front of joint plans")
    Term.(const run $ relations_pos $ containers_arg $ memory_arg)

(* ---------------------------------------------------------------- robust *)

let robust_cmd =
  let spike_containers =
    Arg.(value & opt int 10 & info [ "spike-containers" ] ~docv:"N"
           ~doc:"Containers left during the spike scenario.")
  in
  let spike_gb =
    Arg.(value & opt float 3.0 & info [ "spike-gb" ] ~docv:"GB"
           ~doc:"Container memory left during the spike scenario.")
  in
  let run relations max_containers max_gb sc sgb =
    let schema = Raqo_catalog.Tpch.schema () in
    let normal = conditions max_containers max_gb in
    let spiked = conditions sc sgb in
    let opt =
      Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized
        ~model:(Raqo.Models.hive ()) ~conditions:normal schema
    in
    match Raqo.Robust.optimize opt ~scenarios:[ normal; spiked ] relations with
    | Some choice ->
        Printf.printf "most resilient plan shape (worst-case cost %.1f):\n"
          choice.Raqo.Robust.score;
        List.iter
          (fun (cond, plan, cost) ->
            Format.printf "  under [%a]:\n    %a  (cost %.1f)\n" Raqo_cluster.Conditions.pp
              cond Raqo_plan.Join_tree.pp_joint plan cost)
          choice.Raqo.Robust.per_scenario
    | None ->
        print_endline "no plan shape is feasible in every scenario";
        exit 2
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Pick the plan shape most resilient to a cluster-condition spike")
    Term.(const run $ relations_pos $ containers_arg $ memory_arg $ spike_containers
          $ spike_gb)

(* ----------------------------------------------------------------- queue *)

let queue_cmd =
  let capacity_arg =
    Arg.(value & opt int 90 & info [ "capacity" ] ~docv:"N" ~doc:"Cluster containers.")
  in
  let jobs_arg =
    Arg.(value & opt jobs_conv 5000 & info [ "jobs" ] ~docv:"N" ~doc:"Jobs to simulate.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run capacity jobs seed =
    let rng = Raqo_util.Rng.create seed in
    let w = { Raqo_cluster.Queue_sim.default_workload with Raqo_cluster.Queue_sim.jobs } in
    let outcomes =
      Raqo_cluster.Queue_sim.run ~capacity (Raqo_cluster.Queue_sim.generate rng w ~capacity)
    in
    let ratios = Raqo_cluster.Queue_sim.ratios outcomes in
    Printf.printf "jobs: %d, cluster capacity: %d containers\n" jobs capacity;
    List.iter
      (fun t ->
        Printf.printf "  queue/run ratio >= %-6g : %5.1f%% of jobs\n" t
          (100.0 *. Raqo_util.Stats.fraction_at_least ratios t))
      [ 0.01; 0.1; 1.0; 4.0; 10.0; 100.0 ];
    Printf.printf "median ratio: %.2f\n" (Raqo_util.Stats.median ratios)
  in
  Cmd.v
    (Cmd.info "queue" ~doc:"Simulate a contended cluster queue (paper Fig 1)")
    Term.(const run $ capacity_arg $ jobs_arg $ seed_arg)

(* ------------------------------------------------------------------ fuzz *)

let fuzz_cmd =
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to fuzz.")
  in
  let start_arg =
    Arg.(value & opt int 1 & info [ "start" ] ~docv:"SEED"
           ~doc:"First seed (seeds $(docv) .. $(docv)+N-1 are checked).")
  in
  let tables_arg =
    Arg.(value & opt int Raqo_verify.Oracle.default_tables & info [ "tables" ] ~docv:"N"
           ~doc:"Tables in each random schema.")
  in
  let joins_arg =
    Arg.(value & opt int Raqo_verify.Oracle.default_joins & info [ "joins" ] ~docv:"N"
           ~doc:"Joins per random query (the query has at most $(docv)+1 relations).")
  in
  let fuzz_jobs_arg =
    Arg.(value & opt jobs_conv 4 & info [ "jobs" ] ~docv:"N"
           ~doc:"Maximum pool size for the parallel-vs-sequential oracle arms; pool sizes \
                 in {2, 4, $(docv)} up to $(docv) are exercised (1 disables them).")
  in
  let fuzz_adaptive_arg =
    Arg.(value & flag & info [ "adaptive" ]
           ~doc:"Fuzz the runtime-adaptive executor instead: for each seed, plan from \
                 error-perturbed estimates across every error distribution and check the \
                 zero-error-identity and never-worse oracles; failures shrink to a minimal \
                 query plus a single failing DIST=MAG:SEED error pattern.")
  in
  let run seeds start tables joins max_jobs adaptive trace =
    let jobs =
      List.sort_uniq compare (List.filter (fun j -> j >= 2 && j <= max_jobs) [ 2; 4; max_jobs ])
    in
    (* Compute the exit code inside [with_trace] so the trace is flushed
       before the process exits. *)
    let code =
      with_trace trace (fun () ->
          Raqo_verify.Fuzz.main ~tables ~joins ~jobs ~adaptive ~start ~seeds ())
    in
    exit code
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the planners against the invariant checker and cross-planner oracle, \
             shrinking any failure to a minimal printed repro")
    Term.(const run $ seeds_arg $ start_arg $ tables_arg $ joins_arg $ fuzz_jobs_arg
          $ fuzz_adaptive_arg $ trace_arg)

(* ----------------------------------------------------------------- trace *)

let trace_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the Chrome trace_event JSON to $(docv).")
  in
  let planner_arg =
    Arg.(value & opt planner_conv `Selinger
         & info [ "planner" ] ~docv:"PLANNER" ~doc:"Join-order planner.")
  in
  let jobs_arg =
    Arg.(value & opt jobs_conv 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Planning domains. With the randomized planner, restarts run on a pool of \
                 $(docv) domains (results are identical to --jobs 1 for a fixed seed); the \
                 selinger and dpsub planners run sequentially at any $(docv).")
  in
  let random_arg =
    Arg.(value & opt (some int) None & info [ "random" ] ~docv:"N"
           ~doc:"Ignore the RELATION arguments and plan a seeded random $(docv)-relation \
                 schema (the same generator the fuzz and bench sections use) — TPC-H \
                 tops out at 8 relations, so this is how to trace the planners on bigger \
                 queries.")
  in
  let run relations planner random max_containers max_gb jobs no_rewrite engine adaptive
      est_error out =
    Raqo_obs.Obs.set_enabled true;
    let kind =
      match planner with
      | `Selinger -> Raqo.Cost_based.Selinger
      | `Randomized -> Raqo.Cost_based.Fast_randomized
      | `Dpsub -> Raqo.Cost_based.Bushy_dp
    in
    (* The trace shows the nesting planner span -> one span per resource
       search (the exact grid minimum). The model is the paper's published
       one; the trained extended-space models compile to kernels as well
       (see kernel.mli). *)
    let model = Raqo_cost.Op_cost.with_floor 0.01 Raqo_cost.Op_cost.paper in
    let truth, relations =
      match random with
      | Some n when n < 2 ->
          Printf.eprintf "raqo: --random needs at least 2 relations, got %d\n" n;
          exit 2
      | Some n ->
          let rng = Raqo_util.Rng.create (600 + n) in
          let s = Raqo_catalog.Random_schema.generate rng ~tables:n in
          (s, Raqo_catalog.Schema.relation_names s)
      | None -> (
          (* The request pipeline's relation-list checks and messages. *)
          let tpch = Raqo_catalog.Tpch.schema () in
          match
            Raqo.Sql_frontend.resolve ~schema:tpch ~columns:(Raqo_catalog.Tpch.columns ())
              (Raqo.Sql_frontend.Relations relations)
          with
          | Ok _ -> (tpch, relations)
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 1)
    in
    (* Under --adaptive the planner sees only the perturbed estimates; the
       adaptive executor's re-plan spans then join the summary table. *)
    let schema =
      if adaptive then Raqo_execsim.Estimation_error.perturb est_error truth else truth
    in
    (* Random schemas carry no SQL projections, so give the rewriter the
       count-star hint (nothing projected): FK-leaf and constant-bound
       absorption plus width narrowing all become applicable, which is
       exactly what the rewrite walkthrough wants to watch. TPC-H relation
       lists keep the no-op hints — every relation counts as referenced. *)
    let rewrite_hints =
      match random with
      | Some _ -> { Raqo_rewrite.Rewrite.filters = []; referenced = Some [] }
      | None -> Raqo_rewrite.Rewrite.no_hints
    in
    let opt =
      Raqo.Cost_based.create ~kind ~rewrite:(not no_rewrite) ~rewrite_hints ~model
        ~conditions:(conditions max_containers max_gb)
        schema
    in
    let result =
      match
        if jobs > 1 then
          Raqo_par.Pool.with_pool ~jobs (fun pool ->
              Raqo.Cost_based.optimize_par opt pool relations)
        else Raqo.Cost_based.optimize opt relations
      with
      | result -> result
      | exception (Invalid_argument _ as e) ->
          (* The DP planners refuse a query the rewrite left above their cap. *)
          let removed =
            match Raqo.Cost_based.rewrite_report opt with
            | Some r -> r.Raqo_rewrite.Rewrite.removed
            | None -> 0
          in
          let n = List.length relations - removed in
          if kind = Raqo.Cost_based.Fast_randomized || n <= Raqo_planner.Dpsub.max_relations
          then raise e;
          Printf.eprintf "raqo: the %s planner takes at most %d relations; the query has %d%s\n"
            (match kind with Raqo.Cost_based.Selinger -> "selinger" | _ -> "dpsub")
            Raqo_planner.Dpsub.max_relations n
            (if no_rewrite then "" else " after the rewrite");
          exit 2
    in
    match result with
    | None ->
        print_endline "no feasible plan";
        exit 2
    | Some (plan, cost) ->
        Printf.printf "joint plan for [%s]: est cost %.3g\n" (String.concat " " relations)
          cost;
        (match Raqo.Cost_based.rewrite_report opt with
        | Some r -> print_rewrite_report r
        | None -> ());
        print_newline ();
        if adaptive then begin
          let report =
            Raqo_adaptive.Adaptive_exec.run ~engine ~model
              ~conditions:(conditions max_containers max_gb)
              ~truth ~estimates:schema plan
          in
          print_adaptive_report report;
          print_newline ()
        end;
        print_string (Raqo_obs.Export.span_summary (Raqo_obs.Trace.events ()));
        (match out with
        | Some path ->
            Raqo_obs.Export.write_chrome_trace path;
            Printf.printf "\ntrace: %d spans written to %s\n" (Raqo_obs.Trace.recorded ())
              path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one traced joint planning and print a per-span summary table")
    Term.(const run $ relations_pos $ planner_arg $ random_arg $ containers_arg
          $ memory_arg $ jobs_arg $ no_rewrite_arg $ engine_arg
          $ adaptive_arg $ est_error_arg $ out_arg)

(* --------------------------------------------------------------- metrics *)

let metrics_cmd =
  let prometheus_arg =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"Emit Prometheus text exposition instead of a table.")
  in
  let run max_containers max_gb prometheus =
    Raqo_obs.Obs.set_enabled true;
    (* Drive every instrumented layer once: plan each TPC-H evaluation query
       jointly with the paper's published model, sharing one optimizer so
       the plan cache sees reuse and the kernel sweep counters move. *)
    let model = Raqo_cost.Op_cost.with_floor 0.01 Raqo_cost.Op_cost.paper in
    let opt =
      Raqo.Cost_based.create ~model ~conditions:(conditions max_containers max_gb)
        (Raqo_catalog.Tpch.schema ())
    in
    List.iter
      (fun (_, relations) -> ignore (Raqo.Cost_based.optimize opt relations))
      Raqo_catalog.Tpch.evaluation_queries;
    (* Also drive the resident server against the process-wide registry, so
       the dump covers the serve path: shared-plan-cache hits/misses/
       evictions and the admission counters. A tiny queue forces a few typed
       rejections; the drained requests come from the standard trace mix. *)
    let server_config =
      {
        Raqo_server.Engine.default_config with
        queue_capacity = 8;
        conditions = conditions max_containers max_gb;
      }
    in
    let server =
      Raqo_server.Engine.create ~config:server_config
        ~registry:Raqo_obs.Metrics.default ()
    in
    let requests = List.map snd (Raqo_server.Trace_gen.generate ~requests:12 ()) in
    List.iter (fun req -> ignore (Raqo_server.Engine.submit server req)) requests;
    ignore (Raqo_server.Engine.drain server);
    if prometheus then print_string (Raqo_obs.Export.prometheus ())
    else begin
      Printf.printf
        "metrics after planning %d TPC-H evaluation queries and serving %d requests:\n\n"
        (List.length Raqo_catalog.Tpch.evaluation_queries)
        (List.length requests);
      print_string (Raqo_obs.Export.metrics_table ())
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Plan the TPC-H evaluation queries with observability on and dump the \
             metrics registry")
    Term.(const run $ containers_arg $ memory_arg $ prometheus_arg)

(* ----------------------------------------------------------------- serve *)

let serve_cmd =
  let port_arg =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen on 127.0.0.1:$(docv) (TCP, one connection at a time; 0 picks an \
                 ephemeral port, logged to stderr). Default: serve stdin/stdout.")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N"
           ~doc:"Admission bound: requests beyond $(docv) pending are rejected with a \
                 typed 'overloaded' response instead of queueing unboundedly.")
  in
  let batch_arg =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N"
           ~doc:"Maximum requests planned per wave before the loop reads input again.")
  in
  let cache_capacity_arg =
    Arg.(value & opt int 4096 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Shared plan-cache entry bound (LRU); 0 = unbounded.")
  in
  let max_connections_arg =
    Arg.(value & opt (some int) None & info [ "max-connections" ] ~docv:"N"
           ~doc:"With --port: exit after serving $(docv) connections (smoke tests).")
  in
  let tenant_quota_arg =
    Arg.(value & opt (some int) None & info [ "tenant-quota" ] ~docv:"N"
           ~doc:"Per-tenant queue-depth bound: a tenant with $(docv) requests already \
                 pending gets a typed 'overloaded' rejection naming it, even while the \
                 global queue has room. Default: no per-tenant quota.")
  in
  let gen_trace_arg =
    Arg.(value & opt (some int) None & info [ "gen-trace" ] ~docv:"N"
           ~doc:"Instead of serving, print $(docv) heavy-tailed trace requests (one JSON \
                 per line, ready to pipe back into 'raqo serve') and exit.")
  in
  let arrival_rate_arg =
    Arg.(value & opt float 2.0 & info [ "arrival-rate" ] ~docv:"R"
           ~doc:"With --gen-trace: Poisson arrival rate (requests/second) of the trace.")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Trace generator seed.")
  in
  let oneshot_arg =
    Arg.(value & flag & info [ "oneshot" ]
           ~doc:"Plan each stdin request on a fresh engine (cold cache, fresh registry) — \
                 the reference the smoke test diffs served responses against; \
                 byte-identical answers are the contract.")
  in
  let run port queue_capacity tenant_quota batch cache_capacity no_rewrite
      max_containers max_gb max_connections gen_trace arrival_rate seed
      oneshot trace =
    match gen_trace with
    | Some n ->
        List.iter
          (fun (_arrival, req) ->
            print_endline (Raqo_server.Protocol.request_to_json req))
          (Raqo_server.Trace_gen.generate ~seed ~arrival_rate ~requests:n ())
    | None ->
        let config =
          {
            Raqo_server.Engine.queue_capacity;
            tenant_quota;
            batch;
            cache_capacity = (if cache_capacity <= 0 then None else Some cache_capacity);
            rewrite = not no_rewrite;
            scale_factor = 100.0;
            conditions = conditions max_containers max_gb;
          }
        in
        if oneshot then begin
          let rec loop () =
            match In_channel.input_line In_channel.stdin with
            | None -> ()
            | Some line when String.trim line = "" -> loop ()
            | Some line ->
                let response =
                  match Raqo_server.Protocol.parse_line line with
                  | Error message ->
                      Raqo_server.Protocol.Rejected
                        { id = None; reason = Raqo_server.Protocol.Bad_request; message }
                  | Ok (Raqo_server.Protocol.Health { id }) ->
                      Raqo_server.Engine.oneshot_health ~id ()
                  | Ok (Raqo_server.Protocol.Allocate areq) ->
                      Raqo_server.Engine.oneshot_allocate ~config areq
                  | Ok (Raqo_server.Protocol.Request req) ->
                      Raqo_server.Engine.oneshot ~config req
                in
                print_endline (Raqo_server.Protocol.response_to_json response);
                loop ()
          in
          loop ()
        end
        else
          with_trace trace @@ fun () ->
          let engine = Raqo_server.Engine.create ~config () in
          match port with
          | Some port -> Raqo_server.Serve.serve_tcp ?max_connections engine ~port
          | None -> Raqo_server.Serve.serve_stdio engine
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Resident optimizer: plan line-delimited JSON requests over stdio or TCP, \
             with a cross-query plan cache keyed by cost model, cluster conditions and \
             operator, and bounded-queue admission control")
    Term.(const run $ port_arg $ queue_arg $ tenant_quota_arg $ batch_arg
          $ cache_capacity_arg $ no_rewrite_arg
          $ containers_arg $ memory_arg $ max_connections_arg $ gen_trace_arg
          $ arrival_rate_arg $ seed_arg $ oneshot_arg $ trace_arg)

(* -------------------------------------------------------------- workload *)

let workload_cmd =
  let n_arg = Arg.(value & opt int 100 & info [ "queries" ] ~docv:"N" ~doc:"Queries to simulate.") in
  let seed_arg = Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run n seed max_containers max_gb trace =
    with_trace trace @@ fun () ->
    let schema = Raqo_catalog.Tpch.schema () in
    let engine = Raqo_execsim.Engine.hive in
    let model = Raqo.Models.hive () in
    let rng = Raqo_util.Rng.create seed in
    let submissions =
      Raqo_scheduler.Workload_runner.generate rng ~n ~arrival_rate:0.002 schema
    in
    let conditions = conditions max_containers max_gb in
    let print_summary name (s : Raqo_scheduler.Workload_runner.summary) =
      Printf.printf
        "%-32s done %3d  makespan %7.1f h  mean lat %8.0f s  p95 %8.0f s  %8.0f TB·s  planning %6.1f ms\n"
        name s.Raqo_scheduler.Workload_runner.completed
        (s.Raqo_scheduler.Workload_runner.makespan /. 3600.0)
        s.Raqo_scheduler.Workload_runner.mean_latency
        s.Raqo_scheduler.Workload_runner.p95_latency
        s.Raqo_scheduler.Workload_runner.total_tb_seconds
        s.Raqo_scheduler.Workload_runner.total_plan_ms
    in
    let show name planner =
      let s, _ = Raqo_scheduler.Workload_runner.run engine schema submissions ~planner in
      print_summary name s
    in
    Printf.printf "%d queries, FIFO on a shared cluster (%s)\n\n" n
      (Format.asprintf "%a" Raqo_cluster.Conditions.pp conditions);
    show "default two-step (10 x 3 GB)"
      (Raqo_scheduler.Workload_runner.default_planner engine
         ~resources:(Raqo_cluster.Resources.make ~containers:10 ~container_gb:3.0));
    show "RAQO" (Raqo_scheduler.Workload_runner.raqo_planner ~model ~conditions ())
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Compare RAQO vs the two-step default on a query workload")
    Term.(const run $ n_arg $ seed_arg $ containers_arg $ memory_arg $ trace_arg)

(* -------------------------------------------------------------- allocate *)

let allocate_cmd =
  let module Allocator = Raqo_alloc.Allocator in
  let module Surface = Raqo_alloc.Surface in
  let module Pricing = Raqo_cluster.Pricing in
  let n_arg =
    Arg.(value & opt int 8 & info [ "queries" ] ~docv:"N"
           ~doc:"Concurrent queries in the workload (cycled from the TPC-H evaluation \
                 set).")
  in
  let budget_arg =
    Arg.(value & opt int 24 & info [ "budget" ] ~docv:"N"
           ~doc:"Global container budget the joint allocation must fit in.")
  in
  let seed_arg =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for arrivals, spot swings, and the randomized search.")
  in
  let objective_arg =
    Arg.(value
         & opt
             (choice_conv
                [
                  ("makespan", Allocator.Makespan);
                  ("cost", Allocator.Dollars);
                  ("balanced", Allocator.Balanced);
                ])
             Allocator.Balanced
         & info [ "objective" ] ~docv:"OBJ"
             ~doc:"Which frontier point to recommend: makespan, cost, or balanced. The \
                   whole frontier is always printed.")
  in
  let fairness_conv =
    let parse s =
      match float_of_string_opt s with
      | Some f when f >= 0.0 && f <= 1.0 -> Ok f
      | Some _ | None -> invalid_value s [ "a number in [0,1], e.g. 0.5" ]
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let fairness_arg =
    Arg.(value & opt fairness_conv 0.0 & info [ "fairness" ] ~docv:"F"
           ~doc:"Weighted-tenant fairness floor in [0,1]: each query is guaranteed \
                 $(docv) times its weight share of the budget; 0 (default) lets the \
                 frontier starve queries freely.")
  in
  let search_arg =
    Arg.(value
         & opt
             (choice_conv
                (List.map
                   (fun n -> (n, Option.get (Allocator.want_of_string n)))
                   Allocator.want_names))
             Allocator.Auto
         & info [ "search" ] ~docv:"MODE"
             ~doc:"Frontier search: exact Pareto DP, seeded randomized local search, or \
                   auto (exact when the DP is small enough).")
  in
  let slo_arg =
    Arg.(value & opt (some float) None & info [ "slo" ] ~docv:"SECONDS"
           ~doc:"Apply a per-query latency SLO: the frontier's third objective counts \
                 queries finishing slower than $(docv). Default: no SLOs.")
  in
  let tenants_arg =
    Arg.(value & opt int 2 & info [ "tenants" ] ~docv:"N"
           ~doc:"Spread queries round-robin over $(docv) tenants t0..t(N-1) with weights \
                 1..N (heavier tenants get larger fairness floors).")
  in
  let arrival_rate_arg =
    Arg.(value & opt float 0.01 & info [ "arrival-rate" ] ~docv:"R"
           ~doc:"Heavy-tailed (Poisson) arrival rate, queries/second.")
  in
  let spot_arg =
    Arg.(value & flag & info [ "spot" ]
           ~doc:"Price GB-time on a seeded spot schedule (piecewise-constant multipliers \
                 in [0.5,2.0) over the first two hours) instead of the flat on-demand \
                 rate — shifting work across price segments now trades makespan against \
                 dollars.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the frontier and baselines as JSON to $(docv).")
  in
  let run n budget seed objective fairness want slo tenants arrival_rate spot json_path
      max_containers max_gb trace =
    with_trace trace @@ fun () ->
    if n < 1 || budget < 1 || tenants < 1 || arrival_rate <= 0.0 then begin
      Printf.eprintf
        "raqo: --queries, --budget, --tenants must be >= 1 and --arrival-rate > 0\n";
      exit 2
    end;
    let schema = Raqo_catalog.Tpch.schema () in
    let model = Raqo.Models.hive () in
    let conditions = conditions max_containers max_gb in
    let rng = Raqo_util.Rng.create seed in
    let arrivals = Raqo_alloc.Workload.arrivals rng ~n ~rate:arrival_rate ~capacity:budget in
    let pool_queries = Array.of_list Raqo_catalog.Tpch.evaluation_queries in
    let specs =
      List.init n (fun i ->
          let qname, rels = pool_queries.(i mod Array.length pool_queries) in
          {
            Raqo_alloc.Workload.name = Printf.sprintf "q%d:%s" (i + 1) qname;
            relations = rels;
            tenant = Printf.sprintf "t%d" (i mod tenants);
            weight = float_of_int (1 + (i mod tenants));
            arrival = arrivals.(i);
            slo;
          })
    in
    let plan rels =
      let opt = Raqo.Cost_based.create ~model ~conditions schema in
      Option.map fst (Raqo.Cost_based.optimize opt rels)
    in
    let queries =
      Raqo_alloc.Workload.queries ~model ~conditions ~schema ~plan specs
    in
    if Array.length queries = 0 then begin
      print_endline "no feasible queries under the given cluster conditions";
      exit 2
    end;
    let pricing =
      if spot then
        Pricing.spot
          ~swings:
            (Pricing.random_swings (Raqo_util.Rng.create (seed + 1)) ~horizon:7200.0
               ~segments:6)
          Pricing.default
      else Pricing.flat Pricing.default
    in
    (* Every member needs at least its surface's smallest cap; a budget below
       their sum has no allocation at all. *)
    (match Allocator.floors ~budget ~fairness queries with
    | _ -> ()
    | exception Invalid_argument msg ->
        Printf.eprintf "raqo: %s (--budget %d for %d queries)\n" msg budget
          (Array.length queries);
        exit 2);
    let outcome = Allocator.search ~want ~pricing ~seed ~budget ~fairness queries in
    let chosen = Allocator.choose objective outcome in
    let independent = Allocator.independent ~pricing ~budget queries in
    let objective_name = Raqo_server.Protocol.objective_name objective in
    let alloc_string (p : Allocator.point) =
      "["
      ^ String.concat " " (Array.to_list (Array.map string_of_int p.Allocator.alloc))
      ^ "]"
    in
    Printf.printf
      "workload: %d queries over %d tenants, budget %d containers, fairness %.2f%s\n"
      (Array.length queries) tenants budget fairness
      (if spot then ", spot pricing" else "");
    Printf.printf "search: %s (%d allocations evaluated)\n\n"
      (Allocator.mode_name outcome.Allocator.mode)
      outcome.Allocator.evaluated;
    Printf.printf "Pareto frontier (%d points):\n"
      (List.length outcome.Allocator.frontier);
    Printf.printf "   #   makespan     dollars  slo-viol  allocation\n";
    List.iteri
      (fun i (p : Allocator.point) ->
        Printf.printf "  %2d %8.1f s  $%9.4f  %8d  %s%s\n" (i + 1) p.Allocator.makespan
          p.Allocator.dollars p.Allocator.violations (alloc_string p)
          (if p == chosen then "   <- chosen (" ^ objective_name ^ ")" else ""))
      outcome.Allocator.frontier;
    let print_point name (p : Allocator.point) =
      Printf.printf "  %-28s %8.1f s  $%9.4f  %8d  %s\n" name p.Allocator.makespan
        p.Allocator.dollars p.Allocator.violations (alloc_string p)
    in
    Printf.printf "\nbaselines:\n";
    print_point "equal split" outcome.Allocator.equal_split;
    print_point "independent (FIFO, greedy)" independent;
    (* Reference corner just past the worst of everything on the table, so
       every point contributes volume and the ratios are comparable. *)
    let all_points =
      independent :: outcome.Allocator.equal_split :: outcome.Allocator.frontier
    in
    let worst f = List.fold_left (fun acc p -> Float.max acc (f p)) 0.0 all_points in
    let ref_makespan = 1.01 *. worst (fun (p : Allocator.point) -> p.Allocator.makespan)
    and ref_dollars = 1.01 *. worst (fun (p : Allocator.point) -> p.Allocator.dollars) in
    Printf.printf
      "\nhypervolume (worst-corner ref): frontier %.3g, equal split %.3g, independent %.3g\n"
      (Allocator.hypervolume ~ref_makespan ~ref_dollars outcome.Allocator.frontier)
      (Allocator.hypervolume ~ref_makespan ~ref_dollars [ outcome.Allocator.equal_split ])
      (Allocator.hypervolume ~ref_makespan ~ref_dollars [ independent ]);
    Printf.printf "\nchosen allocation (%s):\n" objective_name;
    Printf.printf "  query                    tenant  weight  arrival  containers   latency\n";
    Array.iteri
      (fun i (q : Allocator.query) ->
        let cap = chosen.Allocator.alloc.(i) in
        Printf.printf "  %-24s %-7s %6.1f %7.1fs  %10d %8.1fs%s\n" q.Allocator.name
          q.Allocator.tenant q.Allocator.weight q.Allocator.arrival cap
          (Surface.latency_at q.Allocator.surface cap)
          (match q.Allocator.slo with
          | Some s when Surface.latency_at q.Allocator.surface cap > s -> "  [SLO MISS]"
          | _ -> ""))
      queries;
    match json_path with
    | None -> ()
    | Some path ->
        let module Json = Raqo_server.Json in
        let point_json (p : Allocator.point) =
          Json.Obj
            [
              ("makespan", Json.Num p.Allocator.makespan);
              ("dollars", Json.Num p.Allocator.dollars);
              ("violations", Json.Num (float_of_int p.Allocator.violations));
              ( "containers",
                Json.List
                  (Array.to_list
                     (Array.map (fun c -> Json.Num (float_of_int c)) p.Allocator.alloc))
              );
            ]
        in
        let doc =
          Json.Obj
            [
              ("queries", Json.Num (float_of_int (Array.length queries)));
              ("budget", Json.Num (float_of_int budget));
              ("fairness", Json.Num fairness);
              ("search", Json.Str (Allocator.mode_name outcome.Allocator.mode));
              ("objective", Json.Str objective_name);
              ( "frontier",
                Json.List (List.map point_json outcome.Allocator.frontier) );
              ("chosen", point_json chosen);
              ("equal_split", point_json outcome.Allocator.equal_split);
              ("independent", point_json independent);
            ]
        in
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Json.to_string doc);
            output_char oc '\n');
        Printf.printf "\nwrote %s\n" path
  in
  Cmd.v
    (Cmd.info "allocate"
       ~doc:"Globally allocate a container budget across concurrent queries on the \
             Pareto frontier of makespan, dollars, and SLO violations")
    Term.(const run $ n_arg $ budget_arg $ seed_arg $ objective_arg $ fairness_arg
          $ search_arg $ slo_arg $ tenants_arg $ arrival_rate_arg $ spot_arg $ json_arg
          $ containers_arg $ memory_arg $ trace_arg)

let commands =
  [
    plan_cmd;
    switch_cmd;
    tree_cmd;
    queue_cmd;
    pareto_cmd;
    robust_cmd;
    workload_cmd;
    allocate_cmd;
    fuzz_cmd;
    trace_cmd;
    metrics_cmd;
    serve_cmd;
  ]

let () =
  (* Reject unknown subcommands up front with the listing and exit 2 —
     cmdliner's own unknown-command path exits 124, and a typo'd subcommand
     silently matching nothing is how stale scripts rot. *)
  (match Array.to_list Sys.argv with
  | _ :: name :: _
    when String.length name > 0
         && name.[0] <> '-'
         && (not (List.mem name [ "help" ]))
         && not (List.exists (fun c -> Cmd.name c = name) commands) ->
      Printf.eprintf "raqo: unknown command %S. Available commands:\n" name;
      List.iter (fun c -> Printf.eprintf "  %s\n" (Cmd.name c)) commands;
      Printf.eprintf "Run 'raqo --help' for details.\n";
      exit 2
  | _ -> ());
  let info =
    Cmd.info "raqo" ~version:"1.0.0"
      ~doc:"Resource and query optimization (RAQO) for big data systems"
  in
  (* A bad option value or an option the subcommand does not take is a
     usage error: exit 2, as for an unknown subcommand, not cmdliner's 124. *)
  exit
    (match Cmd.eval (Cmd.group info commands) with
    | code when code = Cmd.Exit.cli_error -> 2
    | code -> code)
