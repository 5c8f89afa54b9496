(* Tests for Raqo_cluster: resource configurations, cluster conditions,
   pricing, and the multi-tenant queue simulator behind Figure 1. *)

module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions
module Pricing = Raqo_cluster.Pricing
module Queue_sim = Raqo_cluster.Queue_sim
module Rng = Raqo_util.Rng
module Stats = Raqo_util.Stats

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------ Resources *)

let test_resources_totals () =
  let r = Resources.make ~containers:10 ~container_gb:3.0 in
  check_float "total" 30.0 (Resources.total_gb r);
  check_float "gb_seconds" 300.0 (Resources.gb_seconds r 10.0);
  check_float "tb_seconds" (300.0 /. 1024.0) (Resources.tb_seconds r 10.0)

let test_resources_rejects_bad () =
  Alcotest.check_raises "containers"
    (Invalid_argument "Resources.make: containers must be positive") (fun () ->
      ignore (Resources.make ~containers:0 ~container_gb:1.0));
  Alcotest.check_raises "memory"
    (Invalid_argument "Resources.make: container_gb must be positive") (fun () ->
      ignore (Resources.make ~containers:1 ~container_gb:0.0))

let test_resources_equal () =
  let a = Resources.make ~containers:2 ~container_gb:4.0 in
  let b = Resources.make ~containers:2 ~container_gb:4.0 in
  let c = Resources.make ~containers:3 ~container_gb:4.0 in
  Alcotest.(check bool) "equal" true (Resources.equal a b);
  Alcotest.(check bool) "not equal" false (Resources.equal a c)

(* ----------------------------------------------------------- Conditions *)

let test_conditions_default_space () =
  (* Paper: 100 containers x 10 GB in steps of 1 => 1000 configurations. *)
  Alcotest.(check int) "1000 configs" 1000 (Conditions.n_configs Conditions.default)

let test_conditions_all_configs_complete () =
  let c = Conditions.make ~max_containers:3 ~max_gb:2.0 () in
  let configs = Conditions.all_configs c in
  Alcotest.(check int) "3x2" 6 (List.length configs);
  Alcotest.(check bool) "all within" true (List.for_all (Conditions.contains c) configs)

let test_conditions_contains_grid_only () =
  let c = Conditions.make ~max_containers:10 ~max_gb:10.0 ~gb_step:2.0 ~min_gb:1.0 () in
  Alcotest.(check bool) "on grid" true
    (Conditions.contains c (Resources.make ~containers:5 ~container_gb:3.0));
  Alcotest.(check bool) "off grid" false
    (Conditions.contains c (Resources.make ~containers:5 ~container_gb:4.0));
  Alcotest.(check bool) "out of bounds" false
    (Conditions.contains c (Resources.make ~containers:11 ~container_gb:3.0))

let test_conditions_clamp () =
  let c = Conditions.default in
  let r = Conditions.clamp c (Resources.make ~containers:5000 ~container_gb:0.5) in
  Alcotest.(check int) "containers clamped" 100 r.Resources.containers;
  check_float "memory clamped" 1.0 r.Resources.container_gb

let test_conditions_min_max () =
  let c = Conditions.default in
  Alcotest.(check int) "min containers" 1 (Conditions.min_config c).Resources.containers;
  Alcotest.(check int) "max containers" 100 (Conditions.max_config c).Resources.containers

let test_conditions_scale_capacity () =
  let c = Conditions.scale_capacity Conditions.default ~containers:100_000 ~gb:100.0 in
  Alcotest.(check int) "containers" 100_000 c.Conditions.max_containers;
  check_float "memory" 100.0 c.Conditions.max_gb

let test_conditions_rejects_bad () =
  Alcotest.check_raises "bounds" (Invalid_argument "Conditions.make: bad container bounds")
    (fun () -> ignore (Conditions.make ~min_containers:10 ~max_containers:5 ()));
  Alcotest.check_raises "no containers" (Invalid_argument "Conditions.make: bad container bounds")
    (fun () -> ignore (Conditions.make ~max_containers:0 ()));
  List.iter
    (fun max_gb ->
      Alcotest.check_raises
        (Printf.sprintf "max_gb %g" max_gb)
        (Invalid_argument "Conditions.make: bad memory bounds")
        (fun () -> ignore (Conditions.make ~max_gb ())))
    [ 0.0; -1.0; Float.nan; Float.infinity ];
  Alcotest.check_raises "nan min_gb" (Invalid_argument "Conditions.make: bad memory bounds")
    (fun () -> ignore (Conditions.make ~min_gb:Float.nan ()));
  List.iter
    (fun gb_step ->
      Alcotest.check_raises
        (Printf.sprintf "gb_step %g" gb_step)
        (Invalid_argument "Conditions.make: bad memory step")
        (fun () -> ignore (Conditions.make ~gb_step ())))
    [ 0.0; Float.nan; Float.infinity ]

let prop_clamp_idempotent =
  QCheck.Test.make ~name:"clamp is idempotent and lands in bounds" ~count:100
    QCheck.(pair (int_range 1 5000) (float_range 0.1 500.0))
    (fun (containers, container_gb) ->
      let c = Conditions.default in
      let r = Resources.make ~containers ~container_gb in
      let once = Conditions.clamp c r in
      let twice = Conditions.clamp c once in
      Resources.equal once twice
      && once.Resources.containers >= c.Conditions.min_containers
      && once.Resources.containers <= c.Conditions.max_containers
      && once.Resources.container_gb >= c.Conditions.min_gb -. 1e-9
      && once.Resources.container_gb <= c.Conditions.max_gb +. 1e-9)

let prop_all_configs_within_bounds =
  QCheck.Test.make ~name:"every enumerated config is contained" ~count:30
    QCheck.(pair (int_range 1 15) (int_range 1 6))
    (fun (max_containers, max_gb) ->
      let c = Conditions.make ~max_containers ~max_gb:(float_of_int max_gb) () in
      List.for_all (Conditions.contains c) (Conditions.all_configs c))

let prop_all_configs_count_matches =
  QCheck.Test.make ~name:"all_configs length = n_configs" ~count:50
    QCheck.(pair (int_range 1 20) (int_range 1 8))
    (fun (max_containers, max_gb) ->
      let c = Conditions.make ~max_containers ~max_gb:(float_of_int max_gb) () in
      List.length (Conditions.all_configs c) = Conditions.n_configs c)

(* -------------------------------------------------------------- Pricing *)

let test_pricing_linear_in_time_and_memory () =
  let p = Pricing.default in
  let r = Resources.make ~containers:10 ~container_gb:4.0 in
  let c1 = Pricing.run_cost p ~resources:r ~seconds:100.0 in
  let c2 = Pricing.run_cost p ~resources:r ~seconds:200.0 in
  check_float "linear in time" (2.0 *. c1) c2;
  let r2 = Resources.make ~containers:20 ~container_gb:4.0 in
  check_float "linear in memory" (2.0 *. c1) (Pricing.run_cost p ~resources:r2 ~seconds:100.0)

let test_pricing_gb_seconds () =
  let p = { Pricing.dollars_per_gb_hour = 3.6 } in
  check_float "1 GB for 1000s at 3.6/h" 1.0 (Pricing.gb_seconds_cost p 1000.0)

(* ------------------------------------------------- Pricing spot schedules *)

let test_pricing_flat_never_swings () =
  let s = Pricing.flat Pricing.default in
  check_float "multiplier everywhere 1" 1.0 (Pricing.multiplier_at s 12345.6);
  check_float "spot equals base"
    (Pricing.gb_seconds_cost Pricing.default 500.0)
    (Pricing.spot_cost s ~gb_seconds:500.0 ~start:3.0 ~finish:73.0)

let test_pricing_spot_zero_duration () =
  (* A zero-duration job averages to the instantaneous rate — and segments
     are closed on the left, so at the swing instant the new rate is
     already in force. *)
  let s = Pricing.spot ~swings:[ (10.0, 2.0) ] Pricing.default in
  check_float "before the swing" 1.0 (Pricing.average_multiplier s ~start:5.0 ~finish:5.0);
  check_float "exactly at the swing" 2.0
    (Pricing.average_multiplier s ~start:10.0 ~finish:10.0);
  check_float "after the swing" 2.0
    (Pricing.average_multiplier s ~start:11.0 ~finish:11.0);
  check_float "zero-duration cost still prices usage"
    (2.0 *. Pricing.gb_seconds_cost Pricing.default 100.0)
    (Pricing.spot_cost s ~gb_seconds:100.0 ~start:10.0 ~finish:10.0)

let test_pricing_spot_step_at_boundary () =
  (* A price step landing exactly on a stage boundary: the window ending at
     the step never sees the new rate (zero measure), the window starting
     there is entirely post-step. *)
  let s = Pricing.spot ~swings:[ (10.0, 2.0) ] Pricing.default in
  check_float "window ending at the step" 1.0
    (Pricing.average_multiplier s ~start:0.0 ~finish:10.0);
  check_float "window starting at the step" 2.0
    (Pricing.average_multiplier s ~start:10.0 ~finish:20.0);
  check_float "window straddling the step" 1.5
    (Pricing.average_multiplier s ~start:5.0 ~finish:15.0)

let test_pricing_spot_multi_segment_integral () =
  let s = Pricing.spot ~swings:[ (10.0, 2.0); (20.0, 0.5) ] Pricing.default in
  (* [0,30] = 10s at 1.0 + 10s at 2.0 + 10s at 0.5. *)
  check_float "piecewise integral" (35.0 /. 30.0)
    (Pricing.average_multiplier s ~start:0.0 ~finish:30.0);
  check_float "tail segment extends forever" 0.5
    (Pricing.average_multiplier s ~start:40.0 ~finish:90.0)

let test_pricing_spot_validation () =
  Alcotest.check_raises "nonpositive multiplier"
    (Invalid_argument "Pricing.spot: multiplier must be positive") (fun () ->
      ignore (Pricing.spot ~swings:[ (1.0, 0.0) ] Pricing.default));
  Alcotest.check_raises "negative swing time"
    (Invalid_argument "Pricing.spot: swing time must be >= 0") (fun () ->
      ignore (Pricing.spot ~swings:[ (-1.0, 2.0) ] Pricing.default));
  Alcotest.check_raises "unordered swings"
    (Invalid_argument "Pricing.spot: swing times must be strictly increasing") (fun () ->
      ignore (Pricing.spot ~swings:[ (5.0, 2.0); (5.0, 0.5) ] Pricing.default));
  Alcotest.check_raises "backwards window"
    (Invalid_argument "Pricing.average_multiplier: finish < start") (fun () ->
      ignore
        (Pricing.average_multiplier (Pricing.flat Pricing.default) ~start:2.0
           ~finish:1.0))

let test_pricing_random_swings_deterministic () =
  let draw seed = Pricing.random_swings (Rng.create seed) ~horizon:1000.0 ~segments:4 in
  Alcotest.(check bool) "same seed, same swings" true (draw 7 = draw 7);
  Alcotest.(check bool) "different seed, different swings" true (draw 7 <> draw 8);
  List.iter
    (fun (at, m) ->
      Alcotest.(check bool) "time in horizon" true (at >= 0.0 && at <= 1000.0);
      Alcotest.(check bool) "multiplier in [0.5,2)" true (m >= 0.5 && m < 2.0))
    (draw 7);
  (* And the schedule they build is valid (strictly increasing times). *)
  ignore (Pricing.spot ~swings:(draw 7) Pricing.default)

(* ------------------------------------------------------------ Queue_sim *)

let test_queue_empty_cluster_no_wait () =
  (* A single job on an idle cluster starts immediately. *)
  let jobs = [ { Queue_sim.arrival = 5.0; demand = 10; runtime = 100.0 } ] in
  match Queue_sim.run ~capacity:100 jobs with
  | [ o ] ->
      check_float "starts at arrival" 5.0 o.Queue_sim.start;
      check_float "no queueing" 0.0 o.Queue_sim.queue_time
  | _ -> Alcotest.fail "expected one outcome"

let test_queue_serializes_when_full () =
  (* Two jobs each demanding the whole cluster run back to back. *)
  let jobs =
    [
      { Queue_sim.arrival = 0.0; demand = 10; runtime = 50.0 };
      { Queue_sim.arrival = 1.0; demand = 10; runtime = 50.0 };
    ]
  in
  (match Queue_sim.run ~capacity:10 jobs with
  | [ o1; o2 ] ->
      check_float "first immediate" 0.0 o1.Queue_sim.queue_time;
      check_float "second waits for first" 50.0 o2.Queue_sim.start;
      check_float "second queue time" 49.0 o2.Queue_sim.queue_time
  | _ -> Alcotest.fail "expected two outcomes")

let test_queue_parallel_when_fits () =
  let jobs =
    [
      { Queue_sim.arrival = 0.0; demand = 4; runtime = 50.0 };
      { Queue_sim.arrival = 1.0; demand = 4; runtime = 50.0 };
    ]
  in
  match Queue_sim.run ~capacity:10 jobs with
  | [ _; o2 ] -> check_float "no wait" 0.0 o2.Queue_sim.queue_time
  | _ -> Alcotest.fail "expected two outcomes"

let test_queue_fifo_order () =
  (* A small job behind a big one still waits (FIFO, no backfilling). *)
  let jobs =
    [
      { Queue_sim.arrival = 0.0; demand = 10; runtime = 100.0 };
      { Queue_sim.arrival = 1.0; demand = 10; runtime = 1.0 };
      { Queue_sim.arrival = 2.0; demand = 1; runtime = 1.0 };
    ]
  in
  match Queue_sim.run ~capacity:10 jobs with
  | [ _; o2; o3 ] ->
      check_float "second starts when first ends" 100.0 o2.Queue_sim.start;
      Alcotest.(check bool) "third not before second" true
        (o3.Queue_sim.start >= o2.Queue_sim.start)
  | _ -> Alcotest.fail "expected three outcomes"

let test_queue_rejects_oversized_demand () =
  Alcotest.check_raises "demand" (Invalid_argument "Queue_sim.run: demand exceeds capacity")
    (fun () ->
      ignore
        (Queue_sim.run ~capacity:5
           [ { Queue_sim.arrival = 0.0; demand = 6; runtime = 1.0 } ]))

let test_queue_generate_bounds () =
  let rng = Rng.create 3 in
  let jobs = Queue_sim.generate rng Queue_sim.default_workload ~capacity:50 in
  Alcotest.(check int) "job count" Queue_sim.default_workload.Queue_sim.jobs
    (List.length jobs);
  List.iter
    (fun (j : Queue_sim.job) ->
      Alcotest.(check bool) "demand feasible" true (j.demand >= 1 && j.demand <= 50);
      Alcotest.(check bool) "runtime positive" true (j.runtime > 0.0))
    jobs;
  let arrivals = List.map (fun (j : Queue_sim.job) -> j.arrival) jobs in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "arrivals ordered" true (nondecreasing arrivals)

let test_queue_generate_deterministic () =
  (* Heavy-tailed arrival generation is a pure function of the seed: two
     generators with the same seed yield bit-identical job lists, so the
     allocator's scenario sweeps are reproducible. *)
  let draw seed =
    Queue_sim.generate (Rng.create seed) Queue_sim.default_workload ~capacity:40
  in
  Alcotest.(check bool) "same seed, same jobs" true (draw 17 = draw 17);
  Alcotest.(check bool) "different seed, different jobs" true (draw 17 <> draw 18)

let test_queue_contended_cluster_matches_fig1_shape () =
  (* Figure 1's headline: on a busy cluster, >80% of jobs wait at least as
     long as they run, and >20% wait at least 4x. *)
  let rng = Rng.create 1 in
  let jobs = Queue_sim.generate rng Queue_sim.default_workload ~capacity:60 in
  let ratios = Queue_sim.ratios (Queue_sim.run ~capacity:60 jobs) in
  let frac1 = Stats.fraction_at_least ratios 1.0 in
  let frac4 = Stats.fraction_at_least ratios 4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "most jobs wait >= runtime (got %.2f)" frac1)
    true (frac1 > 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "heavy tail of 4x waiters (got %.2f)" frac4)
    true (frac4 > 0.1)

let prop_queue_never_starts_before_arrival =
  QCheck.Test.make ~name:"jobs never start before arrival" ~count:30
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let w = { Queue_sim.default_workload with Queue_sim.jobs = 200 } in
      let jobs = Queue_sim.generate rng w ~capacity:30 in
      let outcomes = Queue_sim.run ~capacity:30 jobs in
      List.for_all
        (fun (o : Queue_sim.outcome) -> o.start >= o.job.Queue_sim.arrival -. 1e-9)
        outcomes)

let prop_queue_capacity_never_exceeded =
  QCheck.Test.make ~name:"concurrent demand never exceeds capacity" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let w = { Queue_sim.default_workload with Queue_sim.jobs = 150 } in
      let capacity = 25 in
      let jobs = Queue_sim.generate rng w ~capacity in
      let outcomes = Queue_sim.run ~capacity jobs in
      (* Check usage at every start instant. *)
      List.for_all
        (fun (o : Queue_sim.outcome) ->
          let t = o.start in
          let used =
            List.fold_left
              (fun acc (p : Queue_sim.outcome) ->
                if p.start <= t && t < p.start +. p.job.Queue_sim.runtime then
                  acc + p.job.Queue_sim.demand
                else acc)
              0 outcomes
          in
          used <= capacity)
        outcomes)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "raqo_cluster"
    [
      ( "resources",
        [
          Alcotest.test_case "totals" `Quick test_resources_totals;
          Alcotest.test_case "rejects bad inputs" `Quick test_resources_rejects_bad;
          Alcotest.test_case "equality" `Quick test_resources_equal;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "paper default space is 1000" `Quick test_conditions_default_space;
          Alcotest.test_case "all_configs enumerates the grid" `Quick
            test_conditions_all_configs_complete;
          Alcotest.test_case "contains respects the grid" `Quick
            test_conditions_contains_grid_only;
          Alcotest.test_case "clamp" `Quick test_conditions_clamp;
          Alcotest.test_case "min/max configs" `Quick test_conditions_min_max;
          Alcotest.test_case "scale_capacity (Fig 15b)" `Quick test_conditions_scale_capacity;
          Alcotest.test_case "rejects bad bounds" `Quick test_conditions_rejects_bad;
        ]
        @ qsuite
            [ prop_all_configs_count_matches; prop_clamp_idempotent; prop_all_configs_within_bounds ]
      );
      ( "pricing",
        [
          Alcotest.test_case "linear in time and memory" `Quick
            test_pricing_linear_in_time_and_memory;
          Alcotest.test_case "gb_seconds pricing" `Quick test_pricing_gb_seconds;
          Alcotest.test_case "flat schedule never swings" `Quick
            test_pricing_flat_never_swings;
          Alcotest.test_case "spot: zero-duration window" `Quick
            test_pricing_spot_zero_duration;
          Alcotest.test_case "spot: step exactly at stage boundary" `Quick
            test_pricing_spot_step_at_boundary;
          Alcotest.test_case "spot: multi-segment integral" `Quick
            test_pricing_spot_multi_segment_integral;
          Alcotest.test_case "spot: rejects bad swings" `Quick test_pricing_spot_validation;
          Alcotest.test_case "random swings deterministic and bounded" `Quick
            test_pricing_random_swings_deterministic;
        ] );
      ( "queue_sim",
        [
          Alcotest.test_case "idle cluster: no wait" `Quick test_queue_empty_cluster_no_wait;
          Alcotest.test_case "full cluster serializes" `Quick test_queue_serializes_when_full;
          Alcotest.test_case "parallel when capacity fits" `Quick test_queue_parallel_when_fits;
          Alcotest.test_case "FIFO ordering" `Quick test_queue_fifo_order;
          Alcotest.test_case "rejects infeasible demand" `Quick
            test_queue_rejects_oversized_demand;
          Alcotest.test_case "generated workload bounds" `Quick test_queue_generate_bounds;
          Alcotest.test_case "generation deterministic under fixed seed" `Quick
            test_queue_generate_deterministic;
          Alcotest.test_case "contended cluster reproduces Fig 1 shape" `Quick
            test_queue_contended_cluster_matches_fig1_shape;
        ]
        @ qsuite [ prop_queue_never_starts_before_arrival; prop_queue_capacity_never_exceeded ]
      );
    ]
