(* Quickstart: build the TPC-H catalog, train a cost model, and ask RAQO for
   a joint query/resource plan for TPC-H Q3.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. The catalog: TPC-H at scale factor 100, as in the paper. *)
  let schema = Raqo_catalog.Tpch.schema () in
  Printf.printf "Catalog: %d relations\n"
    (List.length (Raqo_catalog.Schema.relations schema));
  List.iter
    (fun r -> Format.printf "  %a\n" Raqo_catalog.Relation.pp r)
    (Raqo_catalog.Schema.relations schema);

  (* 2. A cost model, trained on simulated profile runs of the Hive engine
     (the paper trains the same regressions on real profile runs). *)
  let model = Raqo.Models.hive () in

  (* 3. Current cluster conditions from the resource manager: up to 100
     containers of up to 10 GB. *)
  let conditions = Raqo_cluster.Conditions.default in
  Format.printf "\nCluster conditions: %a\n" Raqo_cluster.Conditions.pp conditions;

  (* 4. RAQO: one optimizer call returns plan AND resources. *)
  let opt = Raqo.Cost_based.create ~model ~conditions schema in
  let query = Raqo_catalog.Tpch.q3 in
  Printf.printf "\nQuery: join(%s)\n\n" (String.concat ", " query);
  match Raqo.Cost_based.optimize opt query with
  | Some (plan, cost) ->
      print_string (Raqo.Explain.joint model schema plan);
      Printf.printf "\nModel cost: %.1f\n" cost;
      (* 5. Ground truth: run the joint plan on the execution simulator. *)
      (match Raqo_execsim.Simulate.run_joint Raqo_execsim.Engine.hive schema plan with
      | Ok run ->
          Printf.printf "Simulated execution: %.0f s, %.2f TB·s, $%.4f\n"
            run.Raqo_execsim.Simulate.seconds
            (Raqo_execsim.Simulate.tb_seconds run)
            (Raqo_execsim.Simulate.money run)
      | Error e -> Printf.printf "Simulation failed: %s\n" e);
      let k = Raqo.Cost_based.counters opt in
      Printf.printf "Planner explored %d resource configurations (%d cache hits)\n"
        (Raqo_resource.Counters.cost_evaluations k)
          (Raqo_resource.Counters.cache_hits k);

      (* 6. Or start from SQL: the WHERE clause scales the statistics the
         optimizer plans with (here: the paper's 5.1 GB orders sample). *)
      print_endline "\nThe same, declaratively:";
      let sql =
        "select * from orders, lineitem where o_orderkey = l_orderkey and o_totalprice < 172000"
      in
      Printf.printf "  %s\n" sql;
      (match Raqo.Sql_frontend.plan_tpch sql with
      | Ok planned ->
          Format.printf "  -> %a (est cost %.1f)\n" Raqo_plan.Join_tree.pp_joint
            planned.Raqo.Sql_frontend.plan planned.Raqo.Sql_frontend.est_cost
      | Error e -> Printf.printf "  SQL error: %s\n" (Raqo.Sql_frontend.error_message e))
  | None -> print_endline "No feasible plan."
