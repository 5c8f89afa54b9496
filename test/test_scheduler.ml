(* Tests for Raqo_scheduler: capacity traces and the policy-driven executor
   (the paper's "interaction with the DAG scheduler" agenda item), the
   workload runner, and the allocation probe of a kernel sweep on a pool
   worker. *)

module Capacity = Raqo_scheduler.Capacity
module Executor = Raqo_scheduler.Executor
module Conditions = Raqo_cluster.Conditions
module Resources = Raqo_cluster.Resources
module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Tpch = Raqo_catalog.Tpch
module Schema = Raqo_catalog.Schema

let hive = Raqo_execsim.Engine.hive
let model = Raqo.Models.hive ()
let res nc gb = Resources.make ~containers:nc ~container_gb:gb
let roomy = Conditions.make ~max_containers:100 ~max_gb:10.0 ()
let tight = Conditions.make ~max_containers:8 ~max_gb:3.0 ()

let schema =
  (* 5.1 GB orders sample so BHJ plans exist and can OOM under the dip. *)
  let s = Tpch.schema () in
  Schema.with_relation s
    (Raqo_catalog.Relation.scale (Schema.find s "orders") (5.1 /. 16.48))

(* A plan whose single join wants a big-memory BHJ. *)
let bhj_plan = Join_tree.Join ((Join_impl.Bhj, res 10 9.0), Join_tree.Scan "orders", Join_tree.Scan "lineitem")
let smj_plan = Join_tree.Join ((Join_impl.Smj, res 40 3.0), Join_tree.Scan "orders", Join_tree.Scan "lineitem")

(* ------------------------------------------------------------- Capacity *)

let test_capacity_constant () =
  let c = Capacity.constant roomy in
  Alcotest.(check bool) "always roomy" true (Capacity.at c 0.0 == roomy && Capacity.at c 1e9 == roomy);
  Alcotest.(check bool) "no changes" true (Capacity.next_change c ~after:0.0 = None)

let test_capacity_steps () =
  let c = Capacity.steps ~initial:roomy [ (100.0, tight); (200.0, roomy) ] in
  Alcotest.(check bool) "before" true (Capacity.at c 99.9 == roomy);
  Alcotest.(check bool) "during" true (Capacity.at c 100.0 == tight);
  Alcotest.(check bool) "after" true (Capacity.at c 200.0 == roomy);
  Alcotest.(check (option (float 1e-9))) "next change" (Some 200.0)
    (Capacity.next_change c ~after:100.0)

let test_capacity_steps_rejects_unordered () =
  Alcotest.check_raises "unordered"
    (Invalid_argument "Capacity.steps: change times must be increasing and positive")
    (fun () -> ignore (Capacity.steps ~initial:roomy [ (10.0, tight); (5.0, roomy) ]))

let test_capacity_dip () =
  let c = Capacity.dip ~normal:roomy ~reduced:tight ~from_t:50.0 ~until_t:150.0 in
  Alcotest.(check bool) "normal before" true (Capacity.at c 0.0 == roomy);
  Alcotest.(check bool) "reduced inside" true (Capacity.at c 100.0 == tight);
  Alcotest.(check bool) "normal after" true (Capacity.at c 150.0 == roomy)

let test_capacity_fits () =
  Alcotest.(check bool) "fits" true (Capacity.fits roomy (res 100 10.0));
  Alcotest.(check bool) "too many containers" false (Capacity.fits tight (res 9 3.0));
  Alcotest.(check bool) "too much memory" false (Capacity.fits tight (res 8 3.5))

(* ------------------------------------------------------------- Executor *)

let run ?policy ~capacity plan =
  Executor.run ?policy hive ~model schema ~capacity plan

let test_executes_when_capacity_is_there () =
  match run ~capacity:(Capacity.constant roomy) bhj_plan with
  | Executor.Completed { finish; total_wait; stages; _ } ->
      Alcotest.(check (float 1e-9)) "no waiting" 0.0 total_wait;
      Alcotest.(check int) "one stage" 1 (List.length stages);
      Alcotest.(check bool) "positive finish" true (finish > 0.0);
      let s = List.hd stages in
      Alcotest.(check bool) "ran as planned" true
        (Join_impl.equal s.Executor.impl Join_impl.Bhj && not s.Executor.adapted)
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_fail_policy_fails_fast () =
  match run ~policy:Executor.Fail ~capacity:(Capacity.constant tight) bhj_plan with
  | Executor.Failed { stage; _ } -> Alcotest.(check int) "first stage" 1 stage
  | Executor.Completed _ -> Alcotest.fail "should not run in a tight cluster"

let test_wait_policy_waits_for_recovery () =
  (* Capacity is tight until t=500, then recovers. *)
  let capacity = Capacity.steps ~initial:tight [ (500.0, roomy) ] in
  match run ~policy:(Executor.Wait None) ~capacity bhj_plan with
  | Executor.Completed { total_wait; stages; _ } ->
      Alcotest.(check (float 1e-6)) "waited for recovery" 500.0 total_wait;
      Alcotest.(check (float 1e-6)) "stage started at 500" 500.0 (List.hd stages).Executor.start
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_wait_policy_times_out () =
  let capacity = Capacity.steps ~initial:tight [ (500.0, roomy) ] in
  match run ~policy:(Executor.Wait (Some 100.0)) ~capacity bhj_plan with
  | Executor.Failed { reason; _ } ->
      Alcotest.(check bool) "timeout reason" true
        (String.length reason > 0 && reason.[0] = 'c')
  | Executor.Completed _ -> Alcotest.fail "should time out"

let test_wait_policy_never_recovers () =
  match run ~policy:(Executor.Wait None) ~capacity:(Capacity.constant tight) bhj_plan with
  | Executor.Failed _ -> ()
  | Executor.Completed _ -> Alcotest.fail "capacity never returns: must fail"

let test_downscale_runs_with_less () =
  match run ~policy:Executor.Downscale ~capacity:(Capacity.constant tight) bhj_plan with
  | Executor.Completed { stages; total_wait; _ } ->
      let s = List.hd stages in
      Alcotest.(check bool) "adapted" true s.Executor.adapted;
      Alcotest.(check (float 1e-9)) "no waiting" 0.0 total_wait;
      Alcotest.(check bool) "within tight bounds" true
        (Capacity.fits tight s.Executor.resources);
      (* 5.1 GB build side cannot broadcast into 3 GB containers: the
         downscale falls back to SMJ. *)
      Alcotest.(check bool) "fell back to SMJ" true (Join_impl.equal s.Executor.impl Join_impl.Smj)
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_reoptimize_adapts_plan () =
  match run ~policy:Executor.Reoptimize ~capacity:(Capacity.constant tight) bhj_plan with
  | Executor.Completed { stages; _ } ->
      let s = List.hd stages in
      Alcotest.(check bool) "adapted" true s.Executor.adapted;
      Alcotest.(check bool) "within tight bounds" true (Capacity.fits tight s.Executor.resources)
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_reoptimize_no_worse_than_downscale_here () =
  (* Re-optimization picks resources freely under the tight conditions, so
     it cannot lose to plain clamping on this single-join plan. *)
  match
    ( run ~policy:Executor.Reoptimize ~capacity:(Capacity.constant tight) bhj_plan,
      run ~policy:Executor.Downscale ~capacity:(Capacity.constant tight) bhj_plan )
  with
  | Executor.Completed { finish = a; _ }, Executor.Completed { finish = b; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "reopt %.0f <= downscale %.0f" a b)
        true (a <= b +. 1e-6)
  | _ -> Alcotest.fail "both should complete"

let test_multi_stage_plan_executes_in_order () =
  let plan =
    Join_tree.Join
      ( (Join_impl.Smj, res 40 3.0),
        Join_tree.Join ((Join_impl.Smj, res 40 3.0), Join_tree.Scan "orders", Join_tree.Scan "lineitem"),
        Join_tree.Scan "customer" )
  in
  match run ~capacity:(Capacity.constant roomy) plan with
  | Executor.Completed { stages; finish; _ } ->
      Alcotest.(check int) "two stages" 2 (List.length stages);
      let starts = List.map (fun s -> s.Executor.start) stages in
      (match starts with
      | [ s1; s2 ] ->
          Alcotest.(check bool) "sequential" true (s2 >= s1);
          Alcotest.(check bool) "finish after last start" true (finish > s2)
      | _ -> Alcotest.fail "two stages")
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_mid_query_dip_with_wait () =
  (* The dip hits after the first stage of an SMJ plan completes quickly;
     only later stages wait. *)
  let plan =
    Join_tree.Join
      ( (Join_impl.Smj, res 40 3.0),
        Join_tree.Join ((Join_impl.Smj, res 40 3.0), Join_tree.Scan "orders", Join_tree.Scan "lineitem"),
        Join_tree.Scan "customer" )
  in
  (* First stage duration at 40x3 is a few hundred seconds; dip from t=1. *)
  let tiny = Conditions.make ~max_containers:10 ~max_gb:3.0 () in
  let capacity = Capacity.dip ~normal:roomy ~reduced:tiny ~from_t:1.0 ~until_t:1e6 in
  match run ~policy:Executor.Downscale ~capacity plan with
  | Executor.Completed { stages; _ } -> begin
      match stages with
      | [ s1; s2 ] ->
          Alcotest.(check bool) "first stage unadapted" true (not s1.Executor.adapted);
          Alcotest.(check bool) "second stage adapted" true s2.Executor.adapted
      | _ -> Alcotest.fail "two stages"
    end
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_replan_remaining_adapts () =
  (* The whole remaining join graph is re-planned under the tight
     conditions: join order, operators, and resources together. The
     installed plan must run inside the dip. *)
  match run ~policy:Executor.Replan_remaining ~capacity:(Capacity.constant tight) bhj_plan with
  | Executor.Completed { stages; _ } ->
      let s = List.hd stages in
      Alcotest.(check bool) "adapted" true s.Executor.adapted;
      Alcotest.(check bool) "within tight bounds" true
        (Capacity.fits tight s.Executor.resources)
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_replan_remaining_mid_query_dip () =
  (* The dip hits at the boundary between stages: the executed first join
     collapses into a measured pseudo-relation and the remainder is
     re-planned jointly — every post-dip stage runs within the reduced
     conditions, and the job never waits. *)
  let plan =
    Join_tree.Join
      ( (Join_impl.Smj, res 40 3.0),
        Join_tree.Join ((Join_impl.Smj, res 40 3.0), Join_tree.Scan "orders", Join_tree.Scan "lineitem"),
        Join_tree.Scan "customer" )
  in
  let tiny = Conditions.make ~max_containers:10 ~max_gb:3.0 () in
  let capacity = Capacity.dip ~normal:roomy ~reduced:tiny ~from_t:1.0 ~until_t:1e6 in
  match run ~policy:Executor.Replan_remaining ~capacity plan with
  | Executor.Completed { stages; total_wait; _ } ->
      Alcotest.(check (float 1e-9)) "never waits" 0.0 total_wait;
      Alcotest.(check bool) "first stage unadapted" true
        (not (List.hd stages).Executor.adapted);
      List.iteri
        (fun i s ->
          if i > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "stage %d within the dip" (i + 1))
              true
              (Capacity.fits tiny s.Executor.resources))
        stages
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let test_replan_remaining_no_worse_than_reoptimize_here () =
  (* Re-planning the remainder searches a superset of per-stage repair's
     space (it may also reorder joins), so on this single-join plan the two
     coincide and neither can lose. *)
  match
    ( run ~policy:Executor.Replan_remaining ~capacity:(Capacity.constant tight) bhj_plan,
      run ~policy:Executor.Reoptimize ~capacity:(Capacity.constant tight) bhj_plan )
  with
  | Executor.Completed { finish = a; _ }, Executor.Completed { finish = b; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "replan %.0f <= reoptimize %.0f" a b)
        true (a <= b +. 1e-6)
  | _ -> Alcotest.fail "both should complete"

let test_executor_rejects_invalid_plan () =
  let bad = Join_tree.Join ((Join_impl.Smj, res 1 1.0), Join_tree.Scan "orders", Join_tree.Scan "orders") in
  Alcotest.check_raises "invalid" (Invalid_argument "Executor.run: invalid plan") (fun () ->
      ignore (run ~capacity:(Capacity.constant roomy) bad))

let test_gb_seconds_accumulates () =
  match run ~capacity:(Capacity.constant roomy) smj_plan with
  | Executor.Completed { gb_seconds; stages; _ } ->
      let expected =
        List.fold_left
          (fun acc s -> acc +. Resources.gb_seconds s.Executor.resources s.Executor.duration)
          0.0 stages
      in
      Alcotest.(check (float 1e-6)) "usage matches stages" expected gb_seconds
  | Executor.Failed { reason; _ } -> Alcotest.failf "unexpected failure: %s" reason

let prop_policies_always_terminate =
  QCheck.Test.make ~name:"every policy yields an outcome on random dips" ~count:25
    QCheck.(triple (int_range 1 100) (int_range 1 8) (int_range 0 4))
    (fun (from_t, max_c, policy_id) ->
      let policy =
        match policy_id with
        | 0 -> Executor.Wait (Some 1000.0)
        | 1 -> Executor.Fail
        | 2 -> Executor.Downscale
        | 3 -> Executor.Reoptimize
        | _ -> Executor.Replan_remaining
      in
      let reduced = Conditions.make ~max_containers:max_c ~max_gb:2.0 () in
      let capacity =
        Capacity.dip ~normal:roomy ~reduced ~from_t:(float_of_int from_t)
          ~until_t:(float_of_int (from_t + 500))
      in
      match run ~policy ~capacity smj_plan with
      | Executor.Completed _ | Executor.Failed _ -> true)

(* ------------------------------------------------------- Workload_runner *)

module Workload_runner = Raqo_scheduler.Workload_runner

let base_schema = Raqo_catalog.Tpch.schema ()

let test_workload_generate () =
  let rng = Raqo_util.Rng.create 5 in
  let subs = Workload_runner.generate rng ~n:50 ~arrival_rate:0.01 base_schema in
  Alcotest.(check int) "50 submissions" 50 (List.length subs);
  let arrivals = List.map (fun (s : Workload_runner.submission) -> s.arrival) subs in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ordered arrivals" true (nondecreasing arrivals);
  List.iter
    (fun (s : Workload_runner.submission) ->
      Alcotest.(check bool) "scale in (0,1]" true (s.data_scale > 0.0 && s.data_scale <= 1.0))
    subs

let test_workload_fifo_ordering () =
  let rng = Raqo_util.Rng.create 6 in
  let subs = Workload_runner.generate rng ~n:20 ~arrival_rate:0.01 base_schema in
  let planner = Workload_runner.default_planner hive ~resources:(res 20 5.0) in
  let summary, outcomes = Workload_runner.run hive base_schema subs ~planner in
  Alcotest.(check int) "all completed" 20 summary.Workload_runner.completed;
  (* FIFO: starts are nondecreasing and never before arrival. *)
  let rec check prev = function
    | [] -> ()
    | (o : Workload_runner.query_outcome) :: rest ->
        Alcotest.(check bool) "start >= arrival" true (o.started >= o.submission.arrival);
        Alcotest.(check bool) "FIFO starts" true (o.started >= prev);
        Alcotest.(check bool) "finish after start" true (o.finished >= o.started);
        check o.started rest
  in
  check 0.0 outcomes

let test_workload_raqo_beats_bad_guess () =
  let rng = Raqo_util.Rng.create 7 in
  let subs = Workload_runner.generate rng ~n:30 ~arrival_rate:0.01 base_schema in
  let default = Workload_runner.default_planner hive ~resources:(res 10 3.0) in
  let raqo =
    Workload_runner.raqo_planner ~model ~conditions:Raqo_cluster.Conditions.default ()
  in
  let sd, _ = Workload_runner.run hive base_schema subs ~planner:default in
  let sr, _ = Workload_runner.run hive base_schema subs ~planner:raqo in
  Alcotest.(check bool)
    (Printf.sprintf "RAQO makespan %.0f < default %.0f" sr.Workload_runner.makespan
       sd.Workload_runner.makespan)
    true
    (sr.Workload_runner.makespan < sd.Workload_runner.makespan)

let test_workload_failed_plans_counted () =
  let subs =
    [ { Workload_runner.arrival = 0.0; relations = Raqo_catalog.Tpch.q12; data_scale = 1.0 } ]
  in
  let planner _ _ = None in
  let summary, outcomes = Workload_runner.run hive base_schema subs ~planner in
  Alcotest.(check int) "failed" 1 summary.Workload_runner.failed;
  Alcotest.(check int) "completed" 0 summary.Workload_runner.completed;
  Alcotest.(check bool) "flagged" true (List.hd outcomes).Workload_runner.failed

let test_workload_across_query_cache_saves_planning () =
  (* Planning work, not wall time: the cost evaluations each run records in
     the default registry (observability on), a count no host load can
     move. *)
  let rng = Raqo_util.Rng.create 8 in
  let subs = Workload_runner.generate rng ~n:40 ~arrival_rate:0.01 base_schema in
  let evaluations = Raqo_obs.Metrics.counter "raqo_cost_evaluations_total" in
  let run cache =
    let planner =
      Workload_runner.raqo_planner ~cache_across_queries:cache ~model
        ~conditions:Raqo_cluster.Conditions.default ()
    in
    let before = Raqo_obs.Metrics.Counter.value evaluations in
    ignore (Workload_runner.run hive base_schema subs ~planner);
    Raqo_obs.Metrics.Counter.value evaluations - before
  in
  Raqo_obs.Obs.set_enabled true;
  let without, with_cache =
    Fun.protect
      ~finally:(fun () -> Raqo_obs.Obs.set_enabled false)
      (fun () ->
        let without = run false in
        (without, run true))
  in
  Alcotest.(check bool)
    (Printf.sprintf "cached planning %d evaluations < uncached %d" with_cache without)
    true
    (with_cache > 0 && with_cache < without)

(* ------------------------------------------------------------ allocation *)

let test_kernel_sweep_allocation_free_in_pool () =
  (* A warm compiled-kernel sweep stays allocation-free when it runs on a
     pool worker, as it does when a workload batch plans its queries in
     parallel, and inside randomized restarts and the allocator's surface
     builds. Gc.minor_words is
     per-domain in OCaml 5, so the probe must execute inside the task. *)
  Raqo_obs.Obs.set_enabled false;
  let floored = Raqo_cost.Op_cost.with_floor 0.01 Raqo_cost.Op_cost.paper in
  let c =
    Conditions.make ~min_containers:1 ~max_containers:60 ~container_step:1 ~min_gb:1.0
      ~max_gb:60.0 ~gb_step:1.0 ()
  in
  let probe () =
    let k =
      Raqo_cost.Kernel.make floored Raqo_plan.Join_impl.Bhj ~small_gb:12.5
    in
    let buf = Array.make (Conditions.n_configs c) 0.0 in
    Raqo_cost.Kernel.sweep k c buf;
    let w0 = Gc.minor_words () in
    Raqo_cost.Kernel.sweep k c buf;
    Gc.minor_words () -. w0
  in
  Raqo_par.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun delta ->
          Alcotest.(check bool)
            (Printf.sprintf "warm sweep on a worker allocated %.0f minor words" delta)
            true (delta <= 64.0))
        (Raqo_par.Pool.parallel_map pool (fun () -> probe ()) [ (); () ]))

let () =
  Alcotest.run "raqo_scheduler"
    [
      ( "capacity",
        [
          Alcotest.test_case "constant" `Quick test_capacity_constant;
          Alcotest.test_case "steps" `Quick test_capacity_steps;
          Alcotest.test_case "rejects unordered changes" `Quick
            test_capacity_steps_rejects_unordered;
          Alcotest.test_case "dip" `Quick test_capacity_dip;
          Alcotest.test_case "fits" `Quick test_capacity_fits;
        ] );
      ( "executor",
        [
          Alcotest.test_case "runs when capacity allows" `Quick
            test_executes_when_capacity_is_there;
          Alcotest.test_case "Fail fails fast" `Quick test_fail_policy_fails_fast;
          Alcotest.test_case "Wait waits for recovery" `Quick test_wait_policy_waits_for_recovery;
          Alcotest.test_case "Wait times out" `Quick test_wait_policy_times_out;
          Alcotest.test_case "Wait fails if capacity never returns" `Quick
            test_wait_policy_never_recovers;
          Alcotest.test_case "Downscale clamps and swaps operators" `Quick
            test_downscale_runs_with_less;
          Alcotest.test_case "Reoptimize adapts" `Quick test_reoptimize_adapts_plan;
          Alcotest.test_case "Reoptimize <= Downscale here" `Quick
            test_reoptimize_no_worse_than_downscale_here;
          Alcotest.test_case "multi-stage plans run in order" `Quick
            test_multi_stage_plan_executes_in_order;
          Alcotest.test_case "mid-query dip adapts later stages" `Quick
            test_mid_query_dip_with_wait;
          Alcotest.test_case "Replan_remaining adapts" `Quick test_replan_remaining_adapts;
          Alcotest.test_case "Replan_remaining re-plans after a mid-query dip" `Quick
            test_replan_remaining_mid_query_dip;
          Alcotest.test_case "Replan_remaining <= Reoptimize here" `Quick
            test_replan_remaining_no_worse_than_reoptimize_here;
          Alcotest.test_case "rejects invalid plans" `Quick test_executor_rejects_invalid_plan;
          Alcotest.test_case "usage accounting" `Quick test_gb_seconds_accumulates;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_policies_always_terminate ] );
      ( "workload_runner",
        [
          Alcotest.test_case "generation" `Quick test_workload_generate;
          Alcotest.test_case "FIFO ordering invariants" `Quick test_workload_fifo_ordering;
          Alcotest.test_case "RAQO beats a bad resource guess" `Quick
            test_workload_raqo_beats_bad_guess;
          Alcotest.test_case "failed plans accounted" `Quick test_workload_failed_plans_counted;
          Alcotest.test_case "across-query cache saves planning time" `Quick
            test_workload_across_query_cache_saves_planning;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "kernel sweep allocation-free on a worker" `Quick
            test_kernel_sweep_allocation_free_in_pool;
        ] );
    ]
