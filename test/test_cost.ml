(* Tests for Raqo_cost: feature vectors, linear regression, operator cost
   models (including the paper's published coefficients), plan costing,
   multi-objective dominance. *)

module Feature = Raqo_cost.Feature
module Linreg = Raqo_cost.Linreg
module Op_cost = Raqo_cost.Op_cost
module Plan_cost = Raqo_cost.Plan_cost
module Objective = Raqo_cost.Objective
module Resources = Raqo_cluster.Resources
module Join_impl = Raqo_plan.Join_impl
module Join_tree = Raqo_plan.Join_tree

let res nc gb = Resources.make ~containers:nc ~container_gb:gb

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* -------------------------------------------------------------- Feature *)

let test_feature_paper_vector () =
  let x = Feature.vector ~small_gb:2.0 ~resources:(res 10 3.0) in
  Alcotest.(check int) "7 dims" 7 (Array.length x);
  check_float "ss" 2.0 x.(0);
  check_float "ss2" 4.0 x.(1);
  check_float "cs" 3.0 x.(2);
  check_float "cs2" 9.0 x.(3);
  check_float "nc" 10.0 x.(4);
  check_float "nc2" 100.0 x.(5);
  check_float "cs*nc" 30.0 x.(6)

let test_feature_extended_vector () =
  let x = Feature.vector_of Feature.Extended ~small_gb:2.0 ~resources:(res 10 4.0) in
  Alcotest.(check int) "11 dims" 11 (Array.length x);
  check_float "1/nc" 0.1 x.(7);
  check_float "ss/nc" 0.2 x.(8);
  check_float "ss*nc" 20.0 x.(9);
  check_float "ss/cs" 0.5 x.(10)

let test_feature_names_align () =
  Alcotest.(check int) "paper names" (Feature.dims Feature.Paper)
    (Array.length (Feature.names Feature.Paper));
  Alcotest.(check int) "extended names" (Feature.dims Feature.Extended)
    (Array.length (Feature.names Feature.Extended))

let test_feature_with_intercept () =
  let x = Feature.vector_with_intercept ~small_gb:1.0 ~resources:(res 2 2.0) in
  Alcotest.(check int) "8 dims" 8 (Array.length x);
  check_float "leading 1" 1.0 x.(0)

(* --------------------------------------------------------------- Linreg *)

let test_linreg_recovers_intercept () =
  let features = Array.init 30 (fun i -> [| float_of_int i; float_of_int (i * i) |]) in
  let targets = Array.map (fun row -> 5.0 +. (2.0 *. row.(0)) -. (0.5 *. row.(1))) features in
  let m = Linreg.train ~features ~targets () in
  check_float ~eps:1e-5 "intercept" 5.0 m.Linreg.intercept;
  check_float ~eps:1e-5 "b0" 2.0 m.Linreg.coefficients.(0);
  check_float ~eps:1e-5 "b1" (-0.5) m.Linreg.coefficients.(1)

let test_linreg_no_intercept () =
  let features = Array.init 10 (fun i -> [| float_of_int (i + 1) |]) in
  let targets = Array.map (fun row -> 3.0 *. row.(0)) features in
  let m = Linreg.train ~with_intercept:false ~features ~targets () in
  check_float "no intercept" 0.0 m.Linreg.intercept;
  check_float ~eps:1e-6 "slope" 3.0 m.Linreg.coefficients.(0)

let test_linreg_r_squared_perfect () =
  let features = Array.init 10 (fun i -> [| float_of_int i |]) in
  let targets = Array.map (fun row -> 1.0 +. row.(0)) features in
  let m = Linreg.train ~features ~targets () in
  check_float ~eps:1e-9 "r2 = 1" 1.0 (Linreg.r_squared m ~features ~targets)

let test_linreg_r_squared_mean_model () =
  (* Slope-less data: R² of the fitted (constant) model is ~0 against noise
     structure, but the degenerate all-equal target yields R² = 1 by
     convention. *)
  let features = Array.init 10 (fun i -> [| float_of_int i |]) in
  let targets = Array.make 10 7.0 in
  let m = Linreg.train ~features ~targets () in
  check_float "constant target" 1.0 (Linreg.r_squared m ~features ~targets)

let test_linreg_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Linreg.train: no samples") (fun () ->
      ignore (Linreg.train ~features:[||] ~targets:[||] ()))

let test_linreg_rejects_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Linreg.train: ragged features")
    (fun () ->
      ignore (Linreg.train ~features:[| [| 1.0 |]; [| 1.0; 2.0 |] |] ~targets:[| 1.0; 2.0 |] ()))

let prop_linreg_recovers_planted =
  QCheck.Test.make ~name:"OLS recovers planted 3-feature model" ~count:50
    QCheck.(triple (float_range (-10.) 10.) (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (b0, b1, b2) ->
      let features =
        Array.init 40 (fun i ->
            let x = float_of_int (i mod 7) and y = float_of_int (i mod 5) in
            [| x; y; x *. y |])
      in
      let targets =
        Array.map (fun r -> (b0 *. r.(0)) +. (b1 *. r.(1)) +. (b2 *. r.(2))) features
      in
      let m = Linreg.train ~with_intercept:false ~features ~targets () in
      let c = m.Linreg.coefficients in
      Float.abs (c.(0) -. b0) < 1e-4
      && Float.abs (c.(1) -. b1) < 1e-4
      && Float.abs (c.(2) -. b2) < 1e-4)

(* -------------------------------------------------------------- Op_cost *)

let test_paper_coefficients_verbatim () =
  (* Spot-check the published vectors survived transcription. *)
  let m = Op_cost.paper in
  check_float "smj[0]" 16.2643613 m.Op_cost.smj.Linreg.coefficients.(0);
  check_float "smj[6]" 0.110387975 m.Op_cost.smj.Linreg.coefficients.(6);
  check_float "bhj[0]" 10073.9509 m.Op_cost.bhj.Linreg.coefficients.(0);
  check_float "bhj[6]" (-137.319484) m.Op_cost.bhj.Linreg.coefficients.(6)

let test_paper_model_prediction_matches_dot_product () =
  let m = Op_cost.paper in
  let r = res 10 5.0 in
  let x = Feature.vector ~small_gb:3.0 ~resources:r in
  let expected = Raqo_util.Linalg.dot m.Op_cost.smj.Linreg.coefficients x in
  match Op_cost.predict m Join_impl.Smj ~small_gb:3.0 ~resources:r with
  | Some c -> check_float "manual dot" expected c
  | None -> Alcotest.fail "SMJ always feasible"

let test_op_cost_bhj_oom () =
  let m = Op_cost.paper in
  Alcotest.(check bool) "infeasible" true
    (Op_cost.predict m Join_impl.Bhj ~small_gb:5.0 ~resources:(res 10 2.0) = None);
  check_float "predict_exn infinity" Float.infinity
    (Op_cost.predict_exn m Join_impl.Bhj ~small_gb:5.0 ~resources:(res 10 2.0))

let test_op_cost_floor () =
  let m = Op_cost.with_floor 10.0 Op_cost.paper in
  (* The paper's SMJ model goes negative at large container counts; the
     floor clamps it. *)
  match Op_cost.predict m Join_impl.Smj ~small_gb:0.5 ~resources:(res 100 1.0) with
  | Some c -> Alcotest.(check bool) "clamped" true (c >= 10.0)
  | None -> Alcotest.fail "SMJ feasible"

let test_op_cost_floor_rejects_negative () =
  Alcotest.check_raises "floor" (Invalid_argument "Op_cost.with_floor: negative floor")
    (fun () -> ignore (Op_cost.with_floor (-1.0) Op_cost.paper))

let test_best_impl_respects_oom () =
  let m = Op_cost.paper in
  match Op_cost.best_impl m ~small_gb:5.0 ~resources:(res 10 2.0) with
  | Some (impl, _) -> Alcotest.(check bool) "SMJ when BHJ OOMs" true (Join_impl.equal impl Join_impl.Smj)
  | None -> Alcotest.fail "SMJ feasible"

(* ------------------------------------------------------------ Plan_cost *)

let schema = Raqo_catalog.Tpch.schema ()

let test_plan_cost_additive () =
  let m = Op_cost.paper in
  let r = res 10 5.0 in
  let single =
    Join_tree.Join ((Join_impl.Smj, r), Join_tree.Scan "orders", Join_tree.Scan "lineitem")
  in
  let double =
    Join_tree.Join ((Join_impl.Smj, r), single, Join_tree.Scan "customer")
  in
  let c1 = (Plan_cost.joint m schema single).Plan_cost.cost in
  let c2 = (Plan_cost.joint m schema double).Plan_cost.cost in
  let small2 =
    Plan_cost.join_small_gb schema ~left:[ "orders"; "lineitem" ] ~right:[ "customer" ]
  in
  let expected_extra = Op_cost.predict_exn m Join_impl.Smj ~small_gb:small2 ~resources:r in
  check_float ~eps:1e-9 "additive" (c1 +. expected_extra) c2

let test_plan_cost_infeasible_infinite () =
  let m = Op_cost.paper in
  let bad =
    Join_tree.Join ((Join_impl.Bhj, res 10 2.0), Join_tree.Scan "orders", Join_tree.Scan "lineitem")
  in
  check_float "infinite" Float.infinity (Plan_cost.joint m schema bad).Plan_cost.cost

let test_plan_cost_plain_vs_joint () =
  let m = Op_cost.paper in
  let r = res 10 5.0 in
  let plain = Join_tree.Join (Join_impl.Smj, Join_tree.Scan "orders", Join_tree.Scan "lineitem") in
  let joint = Join_tree.Join ((Join_impl.Smj, r), Join_tree.Scan "orders", Join_tree.Scan "lineitem") in
  check_float "same" (Plan_cost.plain m schema ~resources:r plain).Plan_cost.cost
    (Plan_cost.joint m schema joint).Plan_cost.cost

let test_plan_cost_money_scales_with_usage () =
  let m = Op_cost.paper in
  let r = res 10 5.0 in
  let joint = Join_tree.Join ((Join_impl.Smj, r), Join_tree.Scan "orders", Join_tree.Scan "lineitem") in
  let est = Plan_cost.joint m schema joint in
  let money = Plan_cost.money est in
  check_float "money = priced gb_seconds"
    (Raqo_cluster.Pricing.gb_seconds_cost Raqo_cluster.Pricing.default est.Plan_cost.gb_seconds)
    money

let test_join_small_gb_is_min_side () =
  let s = Plan_cost.join_small_gb schema ~left:[ "lineitem" ] ~right:[ "orders" ] in
  let orders = Raqo_catalog.Relation.size_gb (Raqo_catalog.Schema.find schema "orders") in
  check_float "orders side" orders s

(* ------------------------------------------------------------ Objective *)

let test_dominates_strict () =
  let a = Objective.make ~time:1.0 ~money:1.0 in
  let b = Objective.make ~time:2.0 ~money:2.0 in
  Alcotest.(check bool) "a dom b" true (Objective.dominates a b);
  Alcotest.(check bool) "b not dom a" false (Objective.dominates b a);
  Alcotest.(check bool) "not self-dominating" false (Objective.dominates a a)

let test_dominates_incomparable () =
  let a = Objective.make ~time:1.0 ~money:5.0 in
  let b = Objective.make ~time:5.0 ~money:1.0 in
  Alcotest.(check bool) "a not dom b" false (Objective.dominates a b);
  Alcotest.(check bool) "b not dom a" false (Objective.dominates b a)

let test_pareto_front () =
  let items = [ (1.0, 5.0); (5.0, 1.0); (2.0, 2.0); (6.0, 6.0) ] in
  let objective (t, m) = Objective.make ~time:t ~money:m in
  let front = Objective.pareto_front items ~objective in
  Alcotest.(check int) "3 nondominated" 3 (List.length front);
  Alcotest.(check bool) "(6,6) dominated" true (not (List.mem (6.0, 6.0) front))

let test_scalarize_weights () =
  let o = Objective.make ~time:10.0 ~money:0.002 in
  check_float "pure time" 10.0 (Objective.scalarize ~time_weight:1.0 o);
  check_float "pure money" 2.0 (Objective.scalarize ~time_weight:0.0 o);
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Objective.scalarize: weight out of [0,1]") (fun () ->
      ignore (Objective.scalarize ~time_weight:1.5 o))

let prop_pareto_front_sound =
  (* Nothing in the front is dominated by anything in the input. *)
  QCheck.Test.make ~name:"pareto front soundness" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 25) (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun items ->
      let objective (t, m) = Objective.make ~time:t ~money:m in
      let front = Objective.pareto_front items ~objective in
      List.for_all
        (fun f ->
          not
            (List.exists
               (fun x -> x != f && Objective.dominates (objective x) (objective f))
               items))
        front)

let prop_pareto_front_complete =
  (* Everything not in the front is dominated by something. *)
  QCheck.Test.make ~name:"pareto front completeness" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 25) (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun items ->
      let objective (t, m) = Objective.make ~time:t ~money:m in
      let front = Objective.pareto_front items ~objective in
      List.for_all
        (fun x ->
          List.memq x front
          || List.exists (fun y -> y != x && Objective.dominates (objective y) (objective x)) items)
        items)

(* --------------------------------------------------------------- Kernel *)

module Kernel = Raqo_cost.Kernel
module Conditions = Raqo_cluster.Conditions

(* Kernel outputs must be *bit*-identical to the scalar path, not merely
   close: downstream tie-breaks compare raw floats. *)
let check_bits msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let floored = Op_cost.with_floor 0.01 Op_cost.paper

(* A well-formed extended-space model (11-dim coefficients): the paper's
   polynomial plus small extended terms. *)
let extended_model =
  let extend (l : Linreg.t) =
    Linreg.of_coefficients ~intercept:l.Linreg.intercept
      (Array.append l.Linreg.coefficients [| 0.01; 0.02; 0.03; 0.04 |])
  in
  {
    Op_cost.paper with
    Op_cost.space = Feature.Extended;
    smj = extend Op_cost.paper.Op_cost.smj;
    bhj = extend Op_cost.paper.Op_cost.bhj;
    scan = extend Op_cost.paper.Op_cost.scan;
  }

(* Every model the kernel must reproduce bitwise: both feature spaces,
   floored and unfloored, and the trained Hive model the server plans
   with. *)
let kernel_models () =
  [
    Op_cost.paper;
    floored;
    extended_model;
    Op_cost.with_floor 0.01 extended_model;
    Raqo.Models.hive ();
  ]

let test_kernel_extended_space_compiles () =
  (* The trained models are extended-space; their kernels must cost every
     point of a grid exactly as the scalar model does, and a model whose
     coefficient count does not match its space is refused up front. *)
  let c = Conditions.make ~max_containers:12 ~max_gb:6.0 ~gb_step:0.5 () in
  List.iter
    (fun model ->
      List.iter
        (fun impl ->
          List.iter
            (fun small_gb ->
              let k = Kernel.make model impl ~small_gb in
              List.iter
                (fun (r : Resources.t) ->
                  check_bits
                    (Printf.sprintf "%s @ %.1f GB, %d x %.1f GB" (Join_impl.to_string impl)
                       small_gb r.Resources.containers r.Resources.container_gb)
                    (Op_cost.predict_exn model impl ~small_gb ~resources:r)
                    (Kernel.predict_resources k r))
                (Conditions.all_configs c))
            [ 0.05; 1.0; 3.3; 7.0 ])
        Join_impl.all)
    [ extended_model; Op_cost.with_floor 0.01 extended_model; Raqo.Models.hive () ];
  Alcotest.check_raises "paper coefficients in the extended space"
    (Invalid_argument "Kernel.make: coefficient count does not match the feature space")
    (fun () ->
      ignore
        (Kernel.make { floored with Op_cost.space = Feature.Extended } Join_impl.Smj
           ~small_gb:1.0))

let test_kernel_predict_bhj_cliff () =
  let small_gb = 5.0 in
  let k = Kernel.make floored Join_impl.Bhj ~small_gb in
  (* Below the OOM threshold (5.0 / 1.15 ≈ 4.35 GB) the mask applies. *)
  check_bits "infeasible side is infinity" Float.infinity
    (Kernel.predict k ~containers:4 ~container_gb:4.0);
  let r = res 4 5.0 in
  check_bits "feasible side matches the scalar model"
    (Op_cost.predict_exn floored Join_impl.Bhj ~small_gb ~resources:r)
    (Kernel.predict_resources k r)

let gen_impl = QCheck.map (fun b -> if b then Join_impl.Smj else Join_impl.Bhj) QCheck.bool

let prop_kernel_predict_bitwise =
  QCheck.Test.make ~name:"kernel predict is bit-identical to predict_exn" ~count:500
    QCheck.(
      quad gen_impl (float_range 0.01 40.0) (int_range 1 400) (float_range 0.25 16.0))
    (fun (impl, small_gb, containers, container_gb) ->
      List.for_all
        (fun model ->
          let k = Kernel.make model impl ~small_gb in
          let resources = res containers container_gb in
          Int64.bits_of_float (Kernel.predict k ~containers ~container_gb)
          = Int64.bits_of_float (Op_cost.predict_exn model impl ~small_gb ~resources))
        (kernel_models ()))

let prop_kernel_sweep_bitwise =
  (* One sweep = per-point scalar prediction, bitwise, at every grid cell of
     random (possibly ragged) grids; also pins the j-major cell layout. *)
  QCheck.Test.make ~name:"kernel sweep is bit-identical per grid cell" ~count:100
    QCheck.(
      quad gen_impl (float_range 0.01 30.0) (int_range 1 40) (int_range 1 12))
    (fun (impl, small_gb, max_containers, gb_steps) ->
      let c =
        Conditions.make ~min_containers:1 ~max_containers ~container_step:1 ~min_gb:0.5
          ~max_gb:(0.5 +. (0.75 *. float_of_int (gb_steps - 1)))
          ~gb_step:0.75 ()
      in
      List.for_all
        (fun model ->
          let k = Kernel.make model impl ~small_gb in
          let n = Conditions.n_configs c in
          let buf = Array.make n nan in
          Kernel.sweep k c buf;
          let nc = Conditions.steps_containers c in
          List.for_all2
            (fun idx (r : Resources.t) ->
              let cell = buf.(((idx / nc) * nc) + (idx mod nc)) in
              Int64.bits_of_float cell
              = Int64.bits_of_float (Op_cost.predict_exn model impl ~small_gb ~resources:r))
            (List.init n Fun.id) (Conditions.all_configs c))
        (kernel_models ()))

let test_kernel_sweep_rejects_small_buffer () =
  let c = Conditions.make ~max_containers:4 ~max_gb:3.0 () in
  let k = Kernel.make floored Join_impl.Smj ~small_gb:1.0 in
  Alcotest.check_raises "undersized scratch"
    (Invalid_argument "Kernel.sweep: scratch buffer too small") (fun () ->
      Kernel.sweep k c (Array.make (Conditions.n_configs c - 1) 0.0))

let test_kernel_sweep_allocation_free () =
  (* The acceptance criterion's allocation probe: a warm sweep over a 60x60
     grid must allocate nothing (the scalar path allocates a feature vector
     and a configuration per cell — tens of thousands of words here). *)
  let c =
    Conditions.make ~min_containers:1 ~max_containers:60 ~container_step:1 ~min_gb:1.0
      ~max_gb:60.0 ~gb_step:1.0 ()
  in
  let k = Kernel.make floored Join_impl.Bhj ~small_gb:12.5 in
  let buf = Array.make (Conditions.n_configs c) 0.0 in
  Kernel.sweep k c buf;
  let w0 = Gc.minor_words () in
  Kernel.sweep k c buf;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "warm sweep allocated %.0f minor words" delta)
    true (delta <= 64.0)

let test_kernel_climb_allocation_flat () =
  (* A warm kernel climb allocates per climb (its result), never per probe:
     a climb of a handful of evaluations and one of hundreds must allocate
     the same number of minor words, in both feature spaces. *)
  let c =
    Conditions.make ~min_containers:1 ~max_containers:200 ~container_step:1 ~min_gb:1.0
      ~max_gb:60.0 ~gb_step:0.5 ()
  in
  let climb_words kernel start =
    let counters = Raqo_resource.Counters.create () in
    let climb () = Raqo_resource.Hill_climb.plan_kernel ~counters ~start c kernel in
    ignore (climb ());
    let evals0 = Raqo_resource.Counters.cost_evaluations counters in
    let w0 = Gc.minor_words () in
    let result = climb () in
    let w = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity result);
    (w, Raqo_resource.Counters.cost_evaluations counters - evals0)
  in
  List.iter
    (fun (name, model) ->
      List.iter
        (fun impl ->
          let kernel = Kernel.make model impl ~small_gb:4.0 in
          (* From some corner or midpoint the climb walks a long way; from
             that climb's optimum it stops after one round of probes. *)
          let corner =
            List.fold_left
              (fun (best, evals) start ->
                let _, e = climb_words kernel start in
                if e > evals then (start, e) else (best, evals))
              (res 1 1.0, 0)
              [ res 1 1.0; res 200 60.0; res 1 60.0; res 200 1.0; res 100 30.0; res 1 5.0 ]
            |> fst
          in
          let long_w, long_evals = climb_words kernel corner in
          let opt, _ = Raqo_resource.Hill_climb.plan_kernel ~start:corner c kernel in
          let short_w, short_evals = climb_words kernel opt in
          if long_evals < 10 * short_evals then
            Alcotest.failf "%s %s: climbs too similar (%d vs %d evaluations)" name
              (Join_impl.to_string impl) long_evals short_evals;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s %s: %d-evaluation climb allocates like a %d-evaluation one"
               name (Join_impl.to_string impl) long_evals short_evals)
            short_w long_w)
        Join_impl.all)
    [ ("paper", floored); ("extended", Raqo.Models.hive ()) ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "raqo_cost"
    [
      ( "feature",
        [
          Alcotest.test_case "paper vector layout" `Quick test_feature_paper_vector;
          Alcotest.test_case "extended vector layout" `Quick test_feature_extended_vector;
          Alcotest.test_case "names align with dims" `Quick test_feature_names_align;
          Alcotest.test_case "intercept variant" `Quick test_feature_with_intercept;
        ] );
      ( "linreg",
        [
          Alcotest.test_case "recovers intercept model" `Quick test_linreg_recovers_intercept;
          Alcotest.test_case "no-intercept mode" `Quick test_linreg_no_intercept;
          Alcotest.test_case "R² = 1 on perfect fit" `Quick test_linreg_r_squared_perfect;
          Alcotest.test_case "R² on constant target" `Quick test_linreg_r_squared_mean_model;
          Alcotest.test_case "rejects empty" `Quick test_linreg_rejects_empty;
          Alcotest.test_case "rejects ragged" `Quick test_linreg_rejects_ragged;
        ]
        @ qsuite [ prop_linreg_recovers_planted ] );
      ( "op_cost",
        [
          Alcotest.test_case "paper coefficients verbatim" `Quick
            test_paper_coefficients_verbatim;
          Alcotest.test_case "prediction = dot product" `Quick
            test_paper_model_prediction_matches_dot_product;
          Alcotest.test_case "BHJ OOM handling" `Quick test_op_cost_bhj_oom;
          Alcotest.test_case "prediction floor" `Quick test_op_cost_floor;
          Alcotest.test_case "floor rejects negatives" `Quick test_op_cost_floor_rejects_negative;
          Alcotest.test_case "best_impl respects OOM" `Quick test_best_impl_respects_oom;
        ] );
      ( "plan_cost",
        [
          Alcotest.test_case "costs are additive over joins" `Quick test_plan_cost_additive;
          Alcotest.test_case "infeasible plans cost infinity" `Quick
            test_plan_cost_infeasible_infinite;
          Alcotest.test_case "plain = joint at same resources" `Quick
            test_plan_cost_plain_vs_joint;
          Alcotest.test_case "money prices gb_seconds" `Quick
            test_plan_cost_money_scales_with_usage;
          Alcotest.test_case "join_small_gb picks the smaller side" `Quick
            test_join_small_gb_is_min_side;
        ] );
      ( "objective",
        [
          Alcotest.test_case "strict dominance" `Quick test_dominates_strict;
          Alcotest.test_case "incomparable points" `Quick test_dominates_incomparable;
          Alcotest.test_case "pareto front" `Quick test_pareto_front;
          Alcotest.test_case "scalarization" `Quick test_scalarize_weights;
        ]
        @ qsuite [ prop_pareto_front_sound; prop_pareto_front_complete ] );
      ( "kernel",
        [
          Alcotest.test_case "extended space compiles bit-identically" `Quick
            test_kernel_extended_space_compiles;
          Alcotest.test_case "BHJ OOM cliff is an infinity mask" `Quick
            test_kernel_predict_bhj_cliff;
          Alcotest.test_case "rejects undersized buffers" `Quick
            test_kernel_sweep_rejects_small_buffer;
          Alcotest.test_case "warm sweep allocates nothing" `Quick
            test_kernel_sweep_allocation_free;
          Alcotest.test_case "climb allocation is flat in its length" `Quick
            test_kernel_climb_allocation_flat;
        ]
        @ qsuite [ prop_kernel_predict_bitwise; prop_kernel_sweep_bitwise ] );
    ]
