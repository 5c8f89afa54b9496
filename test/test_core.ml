(* Integration tests for the core RAQO library: decision trees, rule-based
   and cost-based RAQO, the four use cases, adaptive re-optimization, explain
   output, trained models — plus end-to-end properties tying the optimizer
   to the execution simulator. *)

module Join_dt = Raqo.Join_dt
module Rule_based = Raqo.Rule_based
module Cost_based = Raqo.Cost_based
module Use_cases = Raqo.Use_cases
module Explain = Raqo.Explain
module Models = Raqo.Models
module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions
module Schema = Raqo_catalog.Schema
module Tpch = Raqo_catalog.Tpch
module Engine = Raqo_execsim.Engine
module Simulate = Raqo_execsim.Simulate
module Plan_cost = Raqo_cost.Plan_cost
module Counters = Raqo_resource.Counters

let schema = Tpch.schema ()
let hive = Engine.hive
let res nc gb = Resources.make ~containers:nc ~container_gb:gb
let model = Models.hive ()
let make_opt ?kind ?resource_strategy ?cache ?lookup ?kernel () =
  Cost_based.create ?kind
    ~resource_planner:
      (Raqo_resource.Resource_planner.create ?strategy:resource_strategy ?cache ?lookup
         ?kernel)
    ~model ~conditions:Conditions.default schema

(* -------------------------------------------------------------- Join_dt *)

let test_default_tree_is_stock_rule () =
  let t = Join_dt.default_tree hive in
  Alcotest.(check bool) "tiny -> BHJ" true
    (Join_impl.equal (Join_dt.choose t ~small_gb:0.005 ~resources:(res 10 3.0)) Join_impl.Bhj);
  Alcotest.(check bool) "large -> SMJ" true
    (Join_impl.equal (Join_dt.choose t ~small_gb:5.0 ~resources:(res 10 10.0)) Join_impl.Smj)

let test_default_tree_ignores_resources () =
  let t = Join_dt.default_tree hive in
  let a = Join_dt.choose t ~small_gb:2.0 ~resources:(res 1 1.0) in
  let b = Join_dt.choose t ~small_gb:2.0 ~resources:(res 100 10.0) in
  Alcotest.(check bool) "resource-blind" true (Join_impl.equal a b)

let trained_tree = lazy (Join_dt.train hive ~big_gb:77.0)

let test_raqo_tree_is_resource_aware () =
  let t = Lazy.force trained_tree in
  (* 5.1 GB build side: BHJ in big containers, SMJ at high parallelism with
     small containers (Section III's headline finding). *)
  Alcotest.(check bool) "BHJ at 10x10GB" true
    (Join_impl.equal (Join_dt.choose t ~small_gb:5.1 ~resources:(res 10 10.0)) Join_impl.Bhj);
  Alcotest.(check bool) "SMJ at 40x3GB" true
    (Join_impl.equal (Join_dt.choose t ~small_gb:5.1 ~resources:(res 40 3.0)) Join_impl.Smj)

let test_raqo_tree_accuracy () =
  let t = Lazy.force trained_tree in
  let small_sizes, configs = Join_dt.training_grid hive ~big_gb:77.0 in
  let d =
    Raqo_workload.Profile_runs.classification_dataset hive ~big_gb:77.0 ~small_sizes ~configs
  in
  let acc = Raqo_dtree.Cart.accuracy t d in
  Alcotest.(check bool) (Printf.sprintf "training accuracy %.3f > 0.98" acc) true (acc > 0.98)

let test_raqo_tree_deeper_than_default () =
  (* Figure 11 vs Figure 10: the RAQO tree branches on resources too. *)
  let t = Lazy.force trained_tree in
  Alcotest.(check bool) "deeper" true
    (Raqo_dtree.Tree.depth t > Raqo_dtree.Tree.depth (Join_dt.default_tree hive));
  (* The paper reports maximum path length 6 for Hive; pruned CART on our
     grid stays in the same ballpark. *)
  Alcotest.(check bool) "not degenerate" true (Raqo_dtree.Tree.depth t < 30)

let test_tree_render_has_feature_names () =
  let s = Join_dt.render (Lazy.force trained_tree) in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions data_gb" true (contains "data_gb");
  Alcotest.(check bool) "mentions a resource feature" true
    (contains "container_gb" || contains "containers")

let test_impl_label_roundtrip () =
  List.iter
    (fun impl ->
      Alcotest.(check bool) "roundtrip" true
        (Join_impl.equal impl (Join_dt.impl_of_label (Join_dt.label_of_impl impl))))
    Join_impl.all

(* ----------------------------------------------------------- Rule_based *)

let test_rule_based_flips_with_resources () =
  let t = Lazy.force trained_tree in
  let plan_at r = Rule_based.plan t schema ~resources:r Tpch.q12 in
  let impl_at r =
    match Join_tree.annotations (plan_at r) with
    | [ impl ] -> impl
    | _ -> Alcotest.fail "one join"
  in
  (* orders (16.5 GB) never broadcasts; shrink orders to the paper's 5.1 GB
     sample to see the flip. *)
  ignore (impl_at (res 10 10.0));
  let sampled =
    Schema.with_relation schema
      (Raqo_catalog.Relation.scale (Schema.find schema "orders") (5.1 /. 16.48))
  in
  let impl_small r =
    match Join_tree.annotations (Rule_based.plan t sampled ~resources:r Tpch.q12) with
    | [ impl ] -> impl
    | _ -> Alcotest.fail "one join"
  in
  Alcotest.(check bool) "BHJ at big containers" true
    (Join_impl.equal (impl_small (res 10 10.0)) Join_impl.Bhj);
  Alcotest.(check bool) "SMJ at high parallelism" true
    (Join_impl.equal (impl_small (res 40 3.0)) Join_impl.Smj)

let test_rule_based_default_plan_matches_heuristic () =
  let a = Rule_based.default_plan hive schema ~resources:(res 10 3.0) Tpch.q3 in
  let b = Raqo_planner.Heuristics.default_plan hive schema Tpch.q3 in
  Alcotest.(check bool) "same plan" true (Join_tree.equal_shape Join_impl.equal a b)

let test_rule_based_valid_plans () =
  let t = Lazy.force trained_tree in
  let plan = Rule_based.plan t schema ~resources:(res 20 5.0) Tpch.all in
  Alcotest.(check bool) "valid" true (Join_tree.valid plan);
  Alcotest.(check int) "all relations" 8 (List.length (Join_tree.relations plan))

(* ----------------------------------------------------------- Cost_based *)

let test_cost_based_selinger_all_queries () =
  let opt = make_opt () in
  List.iter
    (fun (name, rels) ->
      Cost_based.reset opt;
      match Cost_based.optimize opt rels with
      | Some (plan, cost) ->
          Alcotest.(check bool) (name ^ " valid") true (Join_tree.valid plan);
          Alcotest.(check bool) (name ^ " finite") true (Float.is_finite cost);
          Alcotest.(check bool) (name ^ " positive") true (cost > 0.0);
          (* Resources must come from the cluster conditions. *)
          List.iter
            (fun (_, r) ->
              Alcotest.(check bool) (name ^ " resources on grid") true
                (Conditions.contains Conditions.default r))
            (Join_tree.annotations plan)
      | None -> Alcotest.failf "%s: no plan" name)
    Tpch.evaluation_queries

let test_cost_based_bushy_dp () =
  let opt = make_opt ~kind:Cost_based.Bushy_dp () in
  let ld = make_opt ~kind:Cost_based.Selinger () in
  match (Cost_based.optimize opt Tpch.all, Cost_based.optimize ld Tpch.all) with
  | Some (plan, bushy), Some (_, left_deep) ->
      Alcotest.(check bool) "valid" true (Join_tree.valid plan);
      Alcotest.(check bool) "bushy <= left-deep" true (bushy <= left_deep +. 1e-6)
  | _ -> Alcotest.fail "plans expected"

let test_cost_based_fast_randomized () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  match Cost_based.optimize opt Tpch.all with
  | Some (plan, cost) ->
      Alcotest.(check bool) "valid" true (Join_tree.valid plan);
      Alcotest.(check bool) "finite" true (Float.is_finite cost)
  | None -> Alcotest.fail "plan expected"

let test_cost_based_qo_baseline_fixed_resources () =
  let opt = make_opt () in
  let r = res 10 5.0 in
  match Cost_based.optimize_qo opt ~resources:r Tpch.q3 with
  | Some (plan, _) ->
      List.iter
        (fun (_, pr) -> Alcotest.(check bool) "fixed" true (Resources.equal pr r))
        (Join_tree.annotations plan)
  | None -> Alcotest.fail "plan expected"

let test_cost_based_raqo_not_worse_than_qo () =
  (* Under the same cost model, joint optimization over all resource
     configurations can never lose to any fixed-resource baseline. *)
  let opt = make_opt ~resource_strategy:Raqo_resource.Resource_planner.Brute_force () in
  List.iter
    (fun (name, rels) ->
      Cost_based.reset opt;
      let joint =
        match Cost_based.optimize opt rels with
        | Some (_, c) -> c
        | None -> Alcotest.failf "%s: no joint plan" name
      in
      List.iter
        (fun r ->
          match Cost_based.optimize_qo opt ~resources:r rels with
          | Some (_, fixed) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: joint %.2f <= fixed %.2f" name joint fixed)
                true
                (joint <= fixed +. 1e-6)
          | None -> ())
        [ res 10 3.0; res 10 10.0; res 100 10.0; res 1 1.0 ])
    [ ("Q12", Tpch.q12); ("Q3", Tpch.q3) ]

let test_hill_climb_fewer_evals_than_brute_force () =
  (* The paper's comparison: the climb against the exhaustive search (the
     scalar path evaluates every grid cell; the closed form would not). *)
  let bf =
    make_opt ~resource_strategy:Raqo_resource.Resource_planner.Brute_force ~cache:false
      ~kernel:false ()
  in
  let hc = make_opt ~resource_strategy:Raqo_resource.Resource_planner.Hill_climb ~cache:false () in
  ignore (Cost_based.optimize bf Tpch.all);
  ignore (Cost_based.optimize hc Tpch.all);
  let eb = Counters.cost_evaluations (Cost_based.counters bf) in
  let eh = Counters.cost_evaluations (Cost_based.counters hc) in
  Alcotest.(check bool)
    (Printf.sprintf "HC %d at least 2x below BF %d" eh eb)
    true
    (eh * 2 < eb)

let test_cache_reduces_evals_further () =
  let nocache = make_opt ~cache:false () in
  let cached = make_opt ~cache:true () in
  ignore (Cost_based.optimize nocache Tpch.all);
  ignore (Cost_based.optimize cached Tpch.all);
  let e1 = Counters.cost_evaluations (Cost_based.counters nocache) in
  let e2 = Counters.cost_evaluations (Cost_based.counters cached) in
  Alcotest.(check bool) (Printf.sprintf "cached %d < uncached %d" e2 e1) true (e2 < e1);
  (* Within one query the coster's memo answers every repeated build side
     without a probe; the cache's hits show on the next query, which plans
     from it alone. *)
  ignore (Cost_based.optimize cached Tpch.all);
  Alcotest.(check int) "second query: no new evaluations" e2
    (Counters.cost_evaluations (Cost_based.counters cached));
  Alcotest.(check bool) "hits recorded" true
    (Counters.cache_hits (Cost_based.counters cached) > 0)

let test_hill_climb_matches_brute_force_on_trained_model () =
  (* The trained model's per-join cost surfaces are benign enough that hill
     climbing finds the global optimum (observed and pinned here). *)
  let bf = make_opt ~resource_strategy:Raqo_resource.Resource_planner.Brute_force ~cache:false () in
  let hc = make_opt ~resource_strategy:Raqo_resource.Resource_planner.Hill_climb ~cache:false () in
  match (Cost_based.optimize bf Tpch.q3, Cost_based.optimize hc Tpch.q3) with
  | Some (_, cb), Some (_, ch) -> Alcotest.(check (float 1e-6)) "same cost" cb ch
  | _ -> Alcotest.fail "plans expected"

let test_with_conditions_changes_bounds () =
  let opt = make_opt () in
  let tight = Conditions.make ~max_containers:5 ~max_gb:2.0 () in
  let opt2 = Cost_based.with_conditions opt tight in
  match Cost_based.optimize opt2 Tpch.q12 with
  | Some (plan, _) ->
      List.iter
        (fun (_, r) ->
          Alcotest.(check bool) "within tight bounds" true (Conditions.contains tight r))
        (Join_tree.annotations plan)
  | None -> Alcotest.fail "plan expected"

let test_with_conditions_plans_fresh () =
  (* A warm optimizer re-targeted at new conditions must plan exactly as a
     fresh optimizer built for them: its cache holds entries planned under
     the old conditions, and none of them may answer. *)
  List.iter
    (fun (name, query, containers, gb) ->
      let conditions = Conditions.make ~max_containers:containers ~max_gb:gb () in
      let warm = make_opt () in
      ignore (Cost_based.optimize warm query);
      let fresh = Cost_based.create ~model ~conditions schema in
      let expected = Cost_based.optimize fresh query in
      Alcotest.(check bool)
        (Printf.sprintf "%s at %d x %.0f GB" name containers gb)
        true
        (Cost_based.optimize (Cost_based.with_conditions warm conditions) query = expected))
    [
      ("q3", Tpch.q3, 30, 6.0);
      ("q3", Tpch.q3, 8, 3.0);
      ("q12", Tpch.q12, 8, 3.0);
      ("q2", Tpch.q2, 50, 8.0);
    ]

let test_candidates_nonempty () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  let cands = Cost_based.candidates opt Tpch.q3 in
  Alcotest.(check bool) "several candidates" true (List.length cands >= 2)

let test_kernel_toggle_is_invisible () =
  (* Compiled kernels are a pure perf lever: a kernel-on optimizer and its
     [~kernel:false] twin emit identical joint plans and costs, and the
     climb's instrumentation too (brute force through the kernel is the
     closed form, which by design costs fewer cells than the exhaustive
     scalar scan; its invocation count still matches). The kernels engage on both the
     paper-space model and the extended-space hive model; the flag must be
     invisible either way. *)
  let models =
    [
      ("paper", Raqo_cost.Op_cost.with_floor 0.01 Raqo_cost.Op_cost.paper);
      ("extended hive", Models.hive ());
    ]
  in
  let strategies =
    [
      ("hill climb", Raqo_resource.Resource_planner.Hill_climb);
      ("brute force", Raqo_resource.Resource_planner.Brute_force);
    ]
  in
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun (sname, strategy) ->
          let run kernel =
            let opt =
              Cost_based.create
                ~resource_planner:
                  (Raqo_resource.Resource_planner.create ~strategy ~cache:false ~kernel)
                ~model ~conditions:Conditions.default schema
            in
            let result = Cost_based.optimize opt Tpch.q5 in
            let k = Cost_based.counters opt in
            (result, Counters.cost_evaluations k, Counters.planner_invocations k)
          in
          let label = mname ^ "/" ^ sname in
          let (r_on, e_on, i_on) = run true and (r_off, e_off, i_off) = run false in
          let same_evals =
            match strategy with
            | Raqo_resource.Resource_planner.Hill_climb -> e_on = e_off
            | Raqo_resource.Resource_planner.Brute_force -> e_on < e_off
          in
          Alcotest.(check bool) (label ^ ": kernel toggle invisible") true
            (r_on = r_off && i_on = i_off && same_evals))
        strategies)
    models

let test_kernel_matches_scalar_on_trained_models () =
  (* `raqo plan`'s settings on the trained models: with compiled kernels the
     resource search is the closed-form grid minimum, on the scalar path the
     exhaustive scan over every cell. Every planner must emit the same plan,
     per-join resources and cost bits either way, under the Spark model and
     on a ragged grid whose max-gb (10.5) is not a memory row. Only the
     count of configurations explored differs. *)
  let grid max_gb = Conditions.make ~max_containers:100 ~max_gb () in
  let settings =
    [
      ("hive", Models.hive (), grid 10.0);
      ("spark", Models.spark (), grid 10.0);
      ("hive, max-gb 10.5", Models.hive (), grid 10.5);
    ]
  in
  let kinds =
    [
      ("selinger", Cost_based.Selinger);
      ("dpsub", Cost_based.Bushy_dp);
      ("randomized", Cost_based.Fast_randomized);
    ]
  in
  let queries = [ Tpch.q3; [ "customer"; "orders"; "lineitem"; "nation"; "supplier" ] ] in
  List.iter
    (fun (sname, model, conditions) ->
      List.iter
        (fun (kname, kind) ->
          List.iter
            (fun rels ->
              let run ?resource_planner () =
                match
                  Cost_based.optimize
                    (Cost_based.create ~kind ?resource_planner ~model ~conditions schema)
                    rels
                with
                | Some (plan, cost) ->
                    ( Format.asprintf "%a" Join_tree.pp_joint plan,
                      Join_tree.annotations plan,
                      Int64.bits_of_float cost )
                | None -> Alcotest.failf "%s/%s: no plan" sname kname
              in
              let kp, kr, kc = run ()
              and sp, sr, sc =
                run ~resource_planner:(Raqo_resource.Resource_planner.create ~kernel:false) ()
              in
              let label what =
                Printf.sprintf "%s, %s, %s: %s" sname kname (String.concat " " rels) what
              in
              Alcotest.(check string) (label "plan") sp kp;
              Alcotest.(check bool) (label "per-join resources") true (kr = sr);
              Alcotest.(check int64) (label "cost bits") sc kc)
            queries)
        kinds)
    settings

(* ------------------------------------------------------------ Use_cases *)

let test_use_case_r_to_p () =
  let opt = make_opt () in
  match Use_cases.plan_for_resources opt ~resources:(res 10 5.0) Tpch.q3 with
  | Some p ->
      Alcotest.(check bool) "priced" true (p.Use_cases.est_money > 0.0);
      Alcotest.(check bool) "costed" true (p.Use_cases.est_cost > 0.0)
  | None -> Alcotest.fail "plan expected"

let test_use_case_p_to_r () =
  let opt = make_opt () in
  let shape = Raqo_planner.Heuristics.greedy_left_deep schema Tpch.q3 in
  match Use_cases.resources_for_plan opt shape with
  | Some p ->
      (* Shape preserved: same relations bottom-up. *)
      Alcotest.(check (list string)) "same join order"
        (Join_tree.relations shape)
        (Join_tree.relations p.Use_cases.plan)
  | None -> Alcotest.fail "plan expected"

let test_use_case_joint_beats_fixed () =
  let opt = make_opt ~resource_strategy:Raqo_resource.Resource_planner.Brute_force () in
  match
    ( Use_cases.best_joint opt Tpch.q12,
      Use_cases.plan_for_resources opt ~resources:(res 10 3.0) Tpch.q12 )
  with
  | Some joint, Some fixed ->
      Alcotest.(check bool) "joint cost <= fixed cost" true
        (joint.Use_cases.est_cost <= fixed.Use_cases.est_cost +. 1e-6)
  | _ -> Alcotest.fail "plans expected"

let test_use_case_c_to_pr_budget_respected () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  (* First learn what plans cost, then set a budget between min and max. *)
  match Use_cases.best_joint opt Tpch.q3 with
  | None -> Alcotest.fail "plan expected"
  | Some baseline -> begin
      let generous = baseline.Use_cases.est_money *. 10.0 in
      match Use_cases.plan_for_price opt ~budget:generous Tpch.q3 with
      | Some (p, within) ->
          Alcotest.(check bool) "within budget" true within;
          Alcotest.(check bool) "respects budget" true (p.Use_cases.est_money <= generous)
      | None -> Alcotest.fail "plan expected"
    end

let test_use_case_c_to_pr_impossible_budget () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  match Use_cases.plan_for_price opt ~budget:1e-9 Tpch.q3 with
  | Some (_, within) -> Alcotest.(check bool) "flagged as over budget" false within
  | None -> Alcotest.fail "fallback plan expected"

let test_use_case_rejects_bad_budget () =
  let opt = make_opt () in
  Alcotest.check_raises "budget"
    (Invalid_argument "Use_cases.plan_for_price: nonpositive budget") (fun () ->
      ignore (Use_cases.plan_for_price opt ~budget:0.0 Tpch.q3))

(* -------------------------------------------------------------- Adaptive *)

(* Adaptive RAQO re-consults the optimizer under the new conditions. The
   stale plan is re-costed with its resources clamped into them, since the
   cluster may no longer offer what it asked for. *)
let replan opt ~stale ~new_conditions relations =
  match Cost_based.optimize (Cost_based.with_conditions opt new_conditions) relations with
  | None -> None
  | Some (fresh, fresh_cost) ->
      let clamped =
        Join_tree.map_annot (fun (impl, r) -> (impl, Conditions.clamp new_conditions r)) stale
      in
      let stale_cost_now =
        (Plan_cost.joint (Cost_based.model opt) (Cost_based.schema opt) clamped).Plan_cost.cost
      in
      Some (fresh, fresh_cost, stale_cost_now)

let test_adaptive_reoptimize_improves () =
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q3 with
  | None -> Alcotest.fail "plan expected"
  | Some (stale, _) -> begin
      (* Load spike: the cluster shrinks to 8 small containers. *)
      let shrunk = Conditions.make ~max_containers:8 ~max_gb:3.0 () in
      match replan opt ~stale ~new_conditions:shrunk Tpch.q3 with
      | Some (fresh, fresh_cost, stale_cost_now) ->
          Alcotest.(check bool) "fresh plan within new conditions" true
            (List.for_all
               (fun (_, pr) -> Conditions.contains shrunk pr)
               (Join_tree.annotations fresh));
          Alcotest.(check bool) "re-optimizing never hurts" true
            (fresh_cost <= stale_cost_now +. 1e-6)
      | None -> Alcotest.fail "reoptimization expected"
    end

let test_adaptive_detects_plan_change () =
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q3 with
  | None -> Alcotest.fail "plan expected"
  | Some (stale, _) -> begin
      let shrunk = Conditions.make ~max_containers:4 ~max_gb:2.0 () in
      match replan opt ~stale ~new_conditions:shrunk Tpch.q3 with
      | Some (fresh, _, _) ->
          (* The stale plan used ~100 containers; 4-container conditions must
             change resource annotations at minimum. *)
          let same (i1, r1) (i2, r2) = Join_impl.equal i1 i2 && Resources.equal r1 r2 in
          Alcotest.(check bool) "plan changed" false (Join_tree.equal_shape same stale fresh)
      | None -> Alcotest.fail "reoptimization expected"
    end

let test_adaptive_noop_on_same_conditions () =
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q12 with
  | None -> Alcotest.fail "plan expected"
  | Some (stale, cost) -> begin
      match replan opt ~stale ~new_conditions:Conditions.default Tpch.q12 with
      | Some (_, fresh_cost, _) -> Alcotest.(check (float 1e-6)) "same cost" cost fresh_cost
      | None -> Alcotest.fail "reoptimization expected"
    end

(* --------------------------------------------------------------- Explain *)

let test_explain_contains_structure () =
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q3 with
  | None -> Alcotest.fail "plan expected"
  | Some (plan, _) ->
      let s = Explain.joint model schema plan in
      let contains needle =
        let n = String.length needle and h = String.length s in
        let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
        [ "Joint query/resource plan"; "join 1"; "join 2"; "total:"; "est price" ]

let test_explain_diff_identical () =
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q12 with
  | Some (plan, _) ->
      let s = Explain.diff ~before:plan ~after:plan in
      Alcotest.(check string) "identical" "plans are identical\n" s
  | None -> Alcotest.fail "plan expected"

let test_explain_diff_resources () =
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q12 with
  | Some (plan, _) ->
      let shrunk =
        Join_tree.map_annot (fun (impl, _) -> (impl, res 1 1.0)) plan
      in
      let s = Explain.diff ~before:plan ~after:shrunk in
      let contains needle =
        let n = String.length needle and h = String.length s in
        let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "reports join 1" true (contains "join 1");
      Alcotest.(check bool) "shows new resources" true (contains "<1 x 1.0GB>")
  | None -> Alcotest.fail "plan expected"

let test_explain_diff_order_change () =
  let a = Join_tree.Join ((Join_impl.Smj, res 1 1.0), Join_tree.Scan "orders", Join_tree.Scan "lineitem") in
  let b =
    Join_tree.Join ((Join_impl.Smj, res 1 1.0), Join_tree.Scan "lineitem", Join_tree.Scan "orders")
  in
  let s = Explain.diff ~before:a ~after:b in
  Alcotest.(check bool) "flags order change" true
    (String.length s >= 18 && String.sub s 0 18 = "join order changed")

let test_q5_preset () =
  Alcotest.(check int) "6 tables" 6 (List.length Tpch.q5);
  Alcotest.(check bool) "joinable" true (Schema.joinable schema Tpch.q5);
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q5 with
  | Some (plan, _) -> Alcotest.(check int) "5 joins" 5 (Join_tree.n_joins plan)
  | None -> Alcotest.fail "plan expected"

(* ---------------------------------------------------------------- Models *)

let test_models_memoized () =
  let a = Models.hive () in
  let b = Models.hive () in
  Alcotest.(check bool) "same physical model" true (a == b)

let test_models_spark_differs () =
  let h = Models.hive () and s = Models.spark () in
  Alcotest.(check bool) "different coefficients" true
    (h.Raqo_cost.Op_cost.smj <> s.Raqo_cost.Op_cost.smj)

(* ---------------------------------------------------------------- Pareto *)

let test_pareto_front_nondominated () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  let front = Raqo.Pareto.front opt Tpch.q3 in
  Alcotest.(check bool) "nonempty" true (front <> []);
  List.iter
    (fun (p : Use_cases.priced_plan) ->
      Alcotest.(check bool) "nobody dominates a front member" true
        (not
           (List.exists
              (fun (q : Use_cases.priced_plan) ->
                q != p
                && q.Use_cases.est_cost <= p.Use_cases.est_cost
                && q.Use_cases.est_money <= p.Use_cases.est_money
                && (q.Use_cases.est_cost < p.Use_cases.est_cost
                   || q.Use_cases.est_money < p.Use_cases.est_money))
              front)))
    front

let test_pareto_front_sorted_by_cost () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  let front = Raqo.Pareto.front opt Tpch.q3 in
  let costs = List.map (fun p -> p.Use_cases.est_cost) front in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ascending cost" true (nondecreasing costs)

let test_pareto_knee_is_member () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  let front = Raqo.Pareto.front opt Tpch.q3 in
  match Raqo.Pareto.knee front with
  | Some k -> Alcotest.(check bool) "knee on front" true (List.memq k front)
  | None -> Alcotest.fail "front is nonempty"

let test_pareto_knee_empty () =
  Alcotest.(check bool) "None on empty" true (Raqo.Pareto.knee [] = None)

let test_pareto_render () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  let s = Raqo.Pareto.render (Raqo.Pareto.front opt Tpch.q12) in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* ---------------------------------------------------------------- Robust *)

let roomy = Conditions.default
let tight = Conditions.make ~max_containers:10 ~max_gb:3.0 ()

let test_robust_single_scenario_matches_nominal () =
  let opt = make_opt () in
  match
    (Raqo.Robust.optimize opt ~scenarios:[ roomy ] Tpch.q3, Cost_based.optimize opt Tpch.q3)
  with
  | Some choice, Some (_, nominal) ->
      Alcotest.(check (float 1e-6)) "score = nominal cost" nominal choice.Raqo.Robust.score
  | _ -> Alcotest.fail "both should plan"

let test_robust_worst_case_finite () =
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  match Raqo.Robust.optimize opt ~scenarios:[ roomy; tight ] Tpch.q3 with
  | Some choice ->
      Alcotest.(check int) "both scenarios evaluated" 2
        (List.length choice.Raqo.Robust.per_scenario);
      Alcotest.(check bool) "finite worst case" true (Float.is_finite choice.Raqo.Robust.score);
      (* The worst case is the max of per-scenario costs. *)
      let max_cost =
        List.fold_left
          (fun acc (_, _, c) -> Float.max acc c)
          Float.neg_infinity choice.Raqo.Robust.per_scenario
      in
      Alcotest.(check (float 1e-9)) "score = max" max_cost choice.Raqo.Robust.score
  | None -> Alcotest.fail "robust plan expected"

let test_robust_beats_nominal_in_worst_case () =
  (* Evaluating the nominal (roomy-optimal) shape under both scenarios can
     only be >= the robust choice's worst case. *)
  let opt = make_opt ~kind:Cost_based.Fast_randomized () in
  match
    (Raqo.Robust.optimize opt ~scenarios:[ roomy; tight ] Tpch.q3, Cost_based.optimize opt Tpch.q3)
  with
  | Some choice, Some (nominal_plan, _) ->
      let shape = Raqo_planner.Coster.shape_of nominal_plan in
      let worst_of_nominal =
        List.fold_left
          (fun acc conditions ->
            let o = Cost_based.with_conditions opt conditions in
            let coster =
              Raqo_planner.Coster.raqo (Cost_based.model o) (Cost_based.schema o)
                (Cost_based.resource_planner o)
            in
            match Raqo_planner.Coster.cost_tree coster shape with
            | Some (_, c) -> Float.max acc c
            | None -> Float.infinity)
          Float.neg_infinity [ roomy; tight ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "robust %.1f <= nominal-worst %.1f" choice.Raqo.Robust.score
           worst_of_nominal)
        true
        (choice.Raqo.Robust.score <= worst_of_nominal +. 1e-6)
  | _ -> Alcotest.fail "both should plan"

let test_robust_expected_criterion () =
  let opt = make_opt () in
  match
    Raqo.Robust.optimize opt ~scenarios:[ roomy; tight ]
      ~criterion:(Raqo.Robust.Expected [ 0.7; 0.3 ]) Tpch.q12
  with
  | Some choice ->
      let expected =
        match choice.Raqo.Robust.per_scenario with
        | [ (_, _, c1); (_, _, c2) ] -> (0.7 *. c1) +. (0.3 *. c2)
        | _ -> Alcotest.fail "two scenarios"
      in
      Alcotest.(check (float 1e-9)) "weighted mean" expected choice.Raqo.Robust.score
  | None -> Alcotest.fail "plan expected"

let test_robust_rejects_bad_inputs () =
  let opt = make_opt () in
  Alcotest.check_raises "no scenarios" (Invalid_argument "Robust.optimize: no scenarios")
    (fun () -> ignore (Raqo.Robust.optimize opt ~scenarios:[] Tpch.q12));
  Alcotest.check_raises "bad weights"
    (Invalid_argument "Robust.optimize: weights must sum to 1") (fun () ->
      ignore
        (Raqo.Robust.optimize opt ~scenarios:[ roomy ]
           ~criterion:(Raqo.Robust.Expected [ 0.5 ]) Tpch.q12))

(* --------------------------------------------- End-to-end (Fig 2 property) *)

let test_raqo_beats_default_two_step_on_simulator () =
  (* The Figure 2 scenario: the two-step baseline picks the stock plan
     (SMJ, data-size rule) and a user-guessed 10 x 3 GB configuration; RAQO
     picks plan and resources jointly. Ground-truth simulated runtime of the
     RAQO plan must win by a clear margin. *)
  let opt = make_opt () in
  match Cost_based.optimize opt Tpch.q12 with
  | None -> Alcotest.fail "plan expected"
  | Some (joint, _) -> begin
      let guessed = res 10 3.0 in
      let default_plan = Raqo_planner.Heuristics.default_plan hive schema Tpch.q12 in
      match
        ( Simulate.run_joint hive schema joint,
          Simulate.run_plain hive schema ~resources:guessed default_plan )
      with
      | Ok raqo_run, Ok default_run ->
          Alcotest.(check bool)
            (Printf.sprintf "RAQO %.0fs vs default %.0fs"
               raqo_run.Simulate.seconds default_run.Simulate.seconds)
            true
            (raqo_run.Simulate.seconds < default_run.Simulate.seconds)
      | Error e, _ | _, Error e -> Alcotest.fail e
    end

let test_rule_based_never_worse_than_default_on_grid () =
  (* Rule-based RAQO with the trained tree, against the stock rule, across a
     resource grid, judged by the ground-truth simulator on the paper's
     5.1 GB orders sample. Decision-tree choices are per-join and
     resource-aware, so they must match or beat the stock rule everywhere
     the tree classifies correctly (allow a small tolerance for the few
     misclassified grid cells). *)
  let tree = Lazy.force trained_tree in
  let sampled =
    Schema.with_relation schema
      (Raqo_catalog.Relation.scale (Schema.find schema "orders") (5.1 /. 16.48))
  in
  let losses = ref 0 and cells = ref 0 in
  List.iter
    (fun nc ->
      List.iter
        (fun gb ->
          let r = res nc gb in
          let raqo = Rule_based.plan tree sampled ~resources:r Tpch.q12 in
          let stock = Rule_based.default_plan hive sampled ~resources:r Tpch.q12 in
          match
            ( Simulate.run_plain hive sampled ~resources:r raqo,
              Simulate.run_plain hive sampled ~resources:r stock )
          with
          | Ok a, Ok b ->
              incr cells;
              if a.Simulate.seconds > b.Simulate.seconds *. 1.001 then incr losses
          | Error _, _ | _, Error _ -> ())
        [ 3.0; 5.0; 7.0; 9.0 ])
    [ 10; 20; 30; 40 ];
  Alcotest.(check bool)
    (Printf.sprintf "losses %d of %d cells" !losses !cells)
    true
    (!cells > 10 && float_of_int !losses /. float_of_int !cells < 0.1)

let () =
  Alcotest.run "raqo_core"
    [
      ( "join_dt",
        [
          Alcotest.test_case "default tree = stock rule" `Quick test_default_tree_is_stock_rule;
          Alcotest.test_case "default tree is resource-blind" `Quick
            test_default_tree_ignores_resources;
          Alcotest.test_case "RAQO tree is resource-aware" `Quick test_raqo_tree_is_resource_aware;
          Alcotest.test_case "RAQO tree accuracy" `Quick test_raqo_tree_accuracy;
          Alcotest.test_case "RAQO tree deeper than default" `Quick
            test_raqo_tree_deeper_than_default;
          Alcotest.test_case "render uses feature names" `Quick test_tree_render_has_feature_names;
          Alcotest.test_case "label mapping roundtrip" `Quick test_impl_label_roundtrip;
        ] );
      ( "rule_based",
        [
          Alcotest.test_case "implementation flips with resources" `Quick
            test_rule_based_flips_with_resources;
          Alcotest.test_case "default plan = stock heuristic" `Quick
            test_rule_based_default_plan_matches_heuristic;
          Alcotest.test_case "valid plans on All" `Quick test_rule_based_valid_plans;
        ] );
      ( "cost_based",
        [
          Alcotest.test_case "Selinger RAQO on all TPC-H queries" `Quick
            test_cost_based_selinger_all_queries;
          Alcotest.test_case "Bushy-DP RAQO on All" `Quick test_cost_based_bushy_dp;
          Alcotest.test_case "FastRandomized RAQO on All" `Quick test_cost_based_fast_randomized;
          Alcotest.test_case "QO baseline keeps fixed resources" `Quick
            test_cost_based_qo_baseline_fixed_resources;
          Alcotest.test_case "RAQO never worse than any fixed baseline" `Quick
            test_cost_based_raqo_not_worse_than_qo;
          Alcotest.test_case "hill climb explores far fewer configs" `Quick
            test_hill_climb_fewer_evals_than_brute_force;
          Alcotest.test_case "caching reduces evals further" `Quick
            test_cache_reduces_evals_further;
          Alcotest.test_case "hill climb matches brute force here" `Quick
            test_hill_climb_matches_brute_force_on_trained_model;
          Alcotest.test_case "condition changes rebound resources" `Quick
            test_with_conditions_changes_bounds;
          Alcotest.test_case "condition change plans like a fresh optimizer" `Quick
            test_with_conditions_plans_fresh;
          Alcotest.test_case "candidates for multi-objective use" `Quick test_candidates_nonempty;
          Alcotest.test_case "kernel toggle changes nothing observable" `Quick
            test_kernel_toggle_is_invisible;
          Alcotest.test_case "kernel matches scalar on trained models" `Quick
            test_kernel_matches_scalar_on_trained_models;
        ] );
      ( "use_cases",
        [
          Alcotest.test_case "r => p" `Quick test_use_case_r_to_p;
          Alcotest.test_case "p => (r, c) keeps the shape" `Quick test_use_case_p_to_r;
          Alcotest.test_case "joint (p, r) beats fixed" `Quick test_use_case_joint_beats_fixed;
          Alcotest.test_case "c => (p, r) respects the budget" `Quick
            test_use_case_c_to_pr_budget_respected;
          Alcotest.test_case "c => (p, r) flags impossible budgets" `Quick
            test_use_case_c_to_pr_impossible_budget;
          Alcotest.test_case "rejects nonpositive budgets" `Quick test_use_case_rejects_bad_budget;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "re-optimizing never hurts" `Quick test_adaptive_reoptimize_improves;
          Alcotest.test_case "detects plan changes on shrink" `Quick
            test_adaptive_detects_plan_change;
          Alcotest.test_case "no-op on unchanged conditions" `Quick
            test_adaptive_noop_on_same_conditions;
        ] );
      ( "explain",
        [
          Alcotest.test_case "explain output structure" `Quick test_explain_contains_structure;
          Alcotest.test_case "diff: identical plans" `Quick test_explain_diff_identical;
          Alcotest.test_case "diff: resource changes" `Quick test_explain_diff_resources;
          Alcotest.test_case "diff: order changes" `Quick test_explain_diff_order_change;
          Alcotest.test_case "Q5 preset plans" `Quick test_q5_preset;
        ] );
      ( "models",
        [
          Alcotest.test_case "memoized" `Quick test_models_memoized;
          Alcotest.test_case "spark differs from hive" `Quick test_models_spark_differs;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "front is non-dominated" `Quick test_pareto_front_nondominated;
          Alcotest.test_case "front sorted by cost" `Quick test_pareto_front_sorted_by_cost;
          Alcotest.test_case "knee lies on the front" `Quick test_pareto_knee_is_member;
          Alcotest.test_case "knee of empty front" `Quick test_pareto_knee_empty;
          Alcotest.test_case "render" `Quick test_pareto_render;
        ] );
      ( "robust",
        [
          Alcotest.test_case "single scenario = nominal" `Quick
            test_robust_single_scenario_matches_nominal;
          Alcotest.test_case "worst case over scenarios" `Quick test_robust_worst_case_finite;
          Alcotest.test_case "robust <= nominal in the worst case" `Quick
            test_robust_beats_nominal_in_worst_case;
          Alcotest.test_case "expected-cost criterion" `Quick test_robust_expected_criterion;
          Alcotest.test_case "input validation" `Quick test_robust_rejects_bad_inputs;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "RAQO beats the two-step default (Fig 2)" `Quick
            test_raqo_beats_default_two_step_on_simulator;
          Alcotest.test_case "rule-based RAQO vs stock rule on the grid" `Quick
            test_rule_based_never_worse_than_default_on_grid;
        ] );
    ]
