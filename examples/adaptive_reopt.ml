(* Adaptive RAQO (paper Sections IV & VIII): between optimization and
   execution the cluster conditions change — a workload spike takes most of
   the cluster. Re-consult the optimizer under the new conditions
   (Cost_based.with_conditions, then Cost_based.optimize) and compare plans.

   Uses the paper's 5.1 GB sampled orders table so the BHJ/SMJ flip of
   Section III is visible end to end.

   Run with: dune exec examples/adaptive_reopt.exe *)

let () =
  let schema = Raqo_catalog.Tpch.schema () in
  (* The paper's sampled orders (~5.1 GB of the 16.5 GB table). *)
  let schema =
    Raqo_catalog.Schema.with_relation schema
      (Raqo_catalog.Relation.scale (Raqo_catalog.Schema.find schema "orders") 0.31)
  in
  let model = Raqo.Models.hive () in
  let roomy = Raqo_cluster.Conditions.make ~max_containers:12 ~max_gb:10.0 () in
  let opt = Raqo.Cost_based.create ~model ~conditions:roomy schema in
  let query = Raqo_catalog.Tpch.q12 in

  Format.printf "Optimizing under roomy conditions (%a)\n" Raqo_cluster.Conditions.pp roomy;
  match Raqo.Cost_based.optimize opt query with
  | None -> print_endline "no plan"
  | Some (stale, stale_cost) -> begin
      Format.printf "  chosen: %a (est cost %.1f)\n\n" Raqo_plan.Join_tree.pp_joint stale
        stale_cost;

      (* A spike hits: only small containers remain available. *)
      let spiked = Raqo_cluster.Conditions.make ~max_containers:40 ~max_gb:4.0 () in
      Format.printf "Cluster spike! New conditions: %a\n" Raqo_cluster.Conditions.pp spiked;
      (* Re-consult the optimizer under the new conditions. The stale plan's
         resources are clamped into them (the cluster may no longer offer
         them) and re-costed, so the two plans compare on equal terms. *)
      let clamp plan =
        Raqo_plan.Join_tree.map_annot
          (fun (impl, res) -> (impl, Raqo_cluster.Conditions.clamp spiked res))
          plan
      in
      match Raqo.Cost_based.optimize (Raqo.Cost_based.with_conditions opt spiked) query with
      | None -> print_endline "no feasible plan under the new conditions"
      | Some (fresh, fresh_cost) ->
          let stale_cost_now =
            (Raqo_cost.Plan_cost.joint (Raqo.Cost_based.model opt)
               (Raqo.Cost_based.schema opt) (clamp stale))
              .Raqo_cost.Plan_cost.cost
          in
          let same_annot (i1, r1) (i2, r2) =
            Raqo_plan.Join_impl.equal i1 i2 && Raqo_cluster.Resources.equal r1 r2
          in
          let plan_changed = not (Raqo_plan.Join_tree.equal_shape same_annot stale fresh) in
          let improvement = if fresh_cost > 0.0 then stale_cost_now /. fresh_cost else 1.0 in
          Format.printf "  stale plan re-costed (clamped): %.1f\n" stale_cost_now;
          Format.printf "  fresh plan: %a (est cost %.1f)\n" Raqo_plan.Join_tree.pp_joint
            fresh fresh_cost;
          Printf.printf "  plan changed: %b, improvement from re-optimizing: %.2fx\n"
            plan_changed improvement;
          print_string (Raqo.Explain.diff ~before:stale ~after:fresh);
          (* Ground-truth check on the simulator. *)
          match
            ( Raqo_execsim.Simulate.run_joint Raqo_execsim.Engine.hive schema (clamp stale),
              Raqo_execsim.Simulate.run_joint Raqo_execsim.Engine.hive schema fresh )
          with
          | Ok old_run, Ok new_run ->
              Printf.printf
                "  simulated: stale plan %.0f s vs fresh plan %.0f s (%.2fx speedup)\n"
                old_run.Raqo_execsim.Simulate.seconds new_run.Raqo_execsim.Simulate.seconds
                (old_run.Raqo_execsim.Simulate.seconds
                /. new_run.Raqo_execsim.Simulate.seconds)
          | Error e, _ ->
              Printf.printf "  stale plan no longer runs at all: %s\n" e
          | _, Error e -> Printf.printf "  fresh plan failed: %s\n" e
    end
