(* Tests for Raqo_verify: the invariant checker must reject hand-crafted
   invalid plans with the right diagnostics, the differential oracle must
   pass on clean instances and catch deliberately broken costers, and the
   fuzz harness must shrink an injected failure to a minimal repro. *)

module Diagnostic = Raqo_verify.Diagnostic
module Invariant = Raqo_verify.Invariant
module Oracle = Raqo_verify.Oracle
module Fuzz = Raqo_verify.Fuzz
module Coster = Raqo_planner.Coster
module Selinger = Raqo_planner.Selinger
module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Schema = Raqo_catalog.Schema
module Objective = Raqo_cost.Objective
module Plan_cache = Raqo_resource.Plan_cache
module Cost_based = Raqo.Cost_based

let res nc gb = Resources.make ~containers:nc ~container_gb:gb

let key =
  { Plan_cache.model = Oracle.model; conditions = Oracle.conditions; impl = Join_impl.Smj }
let qsuite = List.map QCheck_alcotest.to_alcotest

(* One deterministic instance shared by the hand-crafted-plan tests. *)
let inst = Oracle.instance 7
let fixed_coster () = Coster.fixed Oracle.model inst.Oracle.schema Oracle.fixed_resources

let selinger_plan () =
  match Selinger.optimize (fixed_coster ()) inst.Oracle.schema inst.Oracle.relations with
  | Some plan -> plan
  | None -> Alcotest.fail "Selinger found no plan on the shared instance"

let has invariant diags = List.exists (fun d -> d.Diagnostic.invariant = invariant) diags

let check_has invariant diags =
  Alcotest.(check bool)
    (Printf.sprintf "diagnostic %s reported in:\n%s" invariant (Diagnostic.render diags))
    true (has invariant diags)

let check_clean what diags =
  Alcotest.(check string) (what ^ " reports no violations") "" (Diagnostic.render diags)

(* ------------------------------------------------------ invariant checker *)

let test_checker_accepts_real_plan () =
  let plan = selinger_plan () in
  check_clean "a real Selinger plan"
    (Invariant.check_joint ~model:Oracle.model ~conditions:Oracle.conditions
       ~schema:inst.Oracle.schema ~expected:inst.Oracle.relations plan)

let test_checker_rejects_duplicate_leaf () =
  match inst.Oracle.relations with
  | a :: b :: _ ->
      let annot = (Join_impl.Smj, Oracle.fixed_resources) in
      let tree =
        Join_tree.Join (annot, Join_tree.Scan a, Join_tree.Join (annot, Join_tree.Scan a, Join_tree.Scan b))
      in
      let diags = Invariant.check_shape ~schema:inst.Oracle.schema ~expected:[ a; b ] tree in
      check_has "tree/duplicate-leaf" diags
  | _ -> Alcotest.fail "instance has fewer than two relations"

let test_checker_rejects_wrong_leaf_set () =
  match inst.Oracle.relations with
  | a :: b :: _ ->
      let diags =
        Invariant.check_shape ~schema:inst.Oracle.schema ~expected:[ a; b ] (Join_tree.Scan a)
      in
      check_has "tree/missing-leaf" diags;
      let diags =
        Invariant.check_shape ~schema:inst.Oracle.schema ~expected:[ a ]
          (Join_tree.Join ((), Join_tree.Scan a, Join_tree.Scan b))
      in
      check_has "tree/extra-leaf" diags;
      let diags =
        Invariant.check_shape ~schema:inst.Oracle.schema ~expected:[ a ]
          (Join_tree.Scan "no_such_relation")
      in
      check_has "tree/unknown-relation" diags
  | _ -> Alcotest.fail "instance has fewer than two relations"

let test_checker_rejects_out_of_bounds_resources () =
  let tree, _ = selinger_plan () in
  let bad = Join_tree.map_annot (fun (impl, _) -> (impl, res 99 50.0)) tree in
  let diags = Invariant.check_resources ~conditions:Oracle.conditions bad in
  check_has "resources/containers-out-of-bounds" diags;
  check_has "resources/memory-out-of-bounds" diags

let test_checker_rejects_bhj_oom () =
  match inst.Oracle.relations with
  | a :: b :: _ ->
      let small_gb =
        Float.min
          (Schema.join_size_gb inst.Oracle.schema [ a ])
          (Schema.join_size_gb inst.Oracle.schema [ b ])
      in
      Alcotest.(check bool) "build side is non-trivial" true (small_gb > 0.0);
      (* Memory so tight the build side cannot fit under any headroom. *)
      let starved = res 1 (small_gb *. 0.01) in
      let tree =
        Join_tree.Join ((Join_impl.Bhj, starved), Join_tree.Scan a, Join_tree.Scan b)
      in
      check_has "resources/bhj-oom"
        (Invariant.check_bhj_memory ~model:Oracle.model ~schema:inst.Oracle.schema tree)
  | _ -> Alcotest.fail "instance has fewer than two relations"

let test_checker_rejects_bad_costs () =
  check_has "cost/negative" (Invariant.check_cost (-1.0));
  check_has "cost/non-finite" (Invariant.check_cost Float.nan);
  check_has "cost/non-finite" (Invariant.check_cost Float.infinity);
  check_clean "a positive finite cost" (Invariant.check_cost 12.5)

let test_checker_rejects_dominated_pareto () =
  let describe o = Format.asprintf "%a" Objective.pp o in
  let id o = o in
  let dominated =
    [ Objective.make ~time:1.0 ~money:1.0; Objective.make ~time:2.0 ~money:2.0 ]
  in
  check_has "pareto/dominated" (Invariant.check_pareto ~objective:id ~describe dominated);
  let front =
    [ Objective.make ~time:1.0 ~money:3.0; Objective.make ~time:3.0 ~money:1.0 ]
  in
  check_clean "a true Pareto front" (Invariant.check_pareto ~objective:id ~describe front)

let test_cache_lookup_checker_passes_on_real_cache () =
  let cache = Plan_cache.create () in
  ignore (Plan_cache.insert ~cost:0.0 cache ~key ~data_gb:1.0 (res 2 2.0));
  ignore (Plan_cache.insert ~cost:0.0 cache ~key ~data_gb:2.0 (res 4 3.0));
  List.iter
    (fun data_gb ->
      List.iter
        (fun lookup ->
          check_clean "a well-behaved cache lookup"
            (Invariant.check_cache_lookup cache ~key ~data_gb lookup))
        [ Plan_cache.Exact; Plan_cache.Nearest_neighbor 0.6; Plan_cache.Weighted_average 0.6 ])
    [ 0.5; 1.0; 1.5; 2.0; 3.0 ]

(* ---------------------------------------------------- differential oracle *)

(* Sequential-only oracle runs keep the unit tests fast; the parallel arms
   get their own dedicated test below. *)
let seq_jobs = []

let test_oracle_clean_instance () =
  check_clean "a clean instance" (Oracle.check ~jobs:seq_jobs (Oracle.instance 1))

let test_oracle_clean_parallel_arms () =
  check_clean "a clean instance with parallel arms" (Oracle.check ~jobs:[ 2 ] (Oracle.instance 3))

(* The acceptance-criterion fault: a sign-flipped cost term in one arm's
   coster. The oracle must notice both the impossible (negative) plan cost
   and the broken cross-planner ordering. *)
let sign_flip ~arm coster =
  if arm = "selinger" then
    {
      Coster.name = coster.Coster.name ^ "+sign-flip";
      best_join =
        (fun ~left ~right ->
          Option.map
            (fun c -> { c with Coster.cost = -.c.Coster.cost })
            (coster.Coster.best_join ~left ~right));
    }
  else coster

let test_oracle_catches_sign_flip () =
  let diags = Oracle.check ~jobs:seq_jobs ~fault:sign_flip (Oracle.instance 5) in
  check_has "cost/negative" diags;
  check_has "oracle/dpsub-above-selinger" diags

let test_oracle_catches_broken_joint_arm () =
  (* Overstating every joint cost makes "joint <= fixed baseline" fail. *)
  let inflate ~arm coster =
    if arm = "raqo-bf" then
      {
        Coster.name = coster.Coster.name ^ "+inflate";
        best_join =
          (fun ~left ~right ->
            Option.map
              (fun c -> { c with Coster.cost = (c.Coster.cost *. 10.0) +. 1.0 })
              (coster.Coster.best_join ~left ~right));
      }
    else coster
  in
  let diags = Oracle.check ~jobs:seq_jobs ~fault:inflate (Oracle.instance 5) in
  Alcotest.(check bool)
    (Printf.sprintf "some oracle/raqo-* relation violated in:\n%s" (Diagnostic.render diags))
    true
    (List.exists
       (fun d -> String.length d.Diagnostic.invariant >= 11 && String.sub d.Diagnostic.invariant 0 11 = "oracle/raqo")
       diags)

(* ------------------------------------------------------------ fuzz harness *)

let test_fuzz_clean_seeds () =
  let reports = Fuzz.run ~jobs:seq_jobs ~start:1 ~seeds:5 () in
  Alcotest.(check int) "five clean seeds" 0 (List.length reports)

let test_fuzz_shrinks_sign_flip () =
  let t = Oracle.instance 5 in
  let report = Fuzz.report ~jobs:seq_jobs ~fault:sign_flip t in
  let rendered = Fuzz.render report in
  (* The shrunk repro is part of the acceptance criterion: print it. *)
  print_string rendered;
  Alcotest.(check bool) "original instance failed" true (report.Fuzz.diagnostics <> []);
  (* A sign-flipped coster fails on any join, so the minimal failing query
     is a single connected pair of relations. *)
  Alcotest.(check int) "shrunk to a single join" 2 (List.length report.Fuzz.minimized);
  Alcotest.(check bool) "minimized query is a subset" true
    (List.for_all (fun r -> List.mem r t.Oracle.relations) report.Fuzz.minimized);
  Alcotest.(check bool) "minimized query stays connected" true
    (Schema.joinable t.Oracle.schema report.Fuzz.minimized);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "repro names the seed" true (contains "seed=5" rendered);
  Alcotest.(check bool) "repro gives a replay command" true (contains "raqo fuzz --seeds 1" rendered)

(* ----------------------------------------------------- production costers *)

let test_cost_based_coster_reproduces_cost () =
  (* The Cost_based.coster hook must re-cost an emitted plan's shape to the
     reported cost (the exact-lookup cache keeps the coster deterministic). *)
  let cb =
    Cost_based.create ~model:Oracle.model ~conditions:Oracle.conditions inst.Oracle.schema
  in
  match Cost_based.optimize cb inst.Oracle.relations with
  | None -> Alcotest.fail "cost-based RAQO found no plan"
  | Some (tree, cost) -> (
      check_clean "the emitted joint plan"
        (Invariant.check_joint ~model:Oracle.model ~conditions:Oracle.conditions
           ~schema:inst.Oracle.schema ~expected:inst.Oracle.relations (tree, cost));
      match Coster.cost_tree (Cost_based.coster cb) (Coster.shape_of tree) with
      | None -> Alcotest.fail "re-costing the emitted shape failed"
      | Some (_, recost) ->
          Alcotest.(check (float 1e-6)) "re-costed shape matches reported cost" cost recost)

let test_counting_coster_counts () =
  let coster, count = Coster.counting (fixed_coster ()) in
  Alcotest.(check int) "starts at zero" 0 (count ());
  (match inst.Oracle.relations with
  | a :: b :: _ -> ignore (coster.Coster.best_join ~left:[ a ] ~right:[ b ])
  | _ -> ());
  Alcotest.(check int) "one invocation counted" 1 (count ());
  ignore (Selinger.optimize coster inst.Oracle.schema inst.Oracle.relations);
  Alcotest.(check bool) "Selinger drove further lookups" true (count () > 1)

(* ------------------------------------------------------------- properties *)

let prop_selinger_plans_pass_checker =
  QCheck.Test.make ~count:30 ~name:"random Selinger plans pass the invariant checker"
    QCheck.(int_range 1 500)
    (fun seed ->
      let t = Oracle.instance seed in
      let coster = Coster.fixed Oracle.model t.Oracle.schema Oracle.fixed_resources in
      match Selinger.optimize coster t.Oracle.schema t.Oracle.relations with
      | None -> QCheck.Test.fail_report "no plan"
      | Some plan ->
          let diags =
            Invariant.check_joint ~model:Oracle.model ~conditions:Oracle.conditions
              ~schema:t.Oracle.schema ~expected:t.Oracle.relations plan
          in
          diags = [] || QCheck.Test.fail_report (Diagnostic.render diags))

let prop_raqo_plans_stay_on_grid =
  QCheck.Test.make ~count:15 ~name:"joint brute-force plans stay on the condition grid"
    QCheck.(int_range 1 500)
    (fun seed ->
      let t = Oracle.instance seed in
      let rp =
        Raqo_resource.Resource_planner.create
          ~strategy:Raqo_resource.Resource_planner.Brute_force ~cache:true Oracle.conditions
      in
      let coster = Coster.raqo Oracle.model t.Oracle.schema rp in
      match Selinger.optimize coster t.Oracle.schema t.Oracle.relations with
      | None -> QCheck.Test.fail_report "no plan"
      | Some (tree, _) ->
          let diags =
            Invariant.check_resources ~grid:true ~conditions:Oracle.conditions tree
            @ Invariant.check_bhj_memory ~model:Oracle.model ~schema:t.Oracle.schema tree
          in
          diags = [] || QCheck.Test.fail_report (Diagnostic.render diags))

let prop_pareto_front_is_non_dominated =
  QCheck.Test.make ~count:100 ~name:"Objective.pareto_front output passes check_pareto"
    QCheck.(list_of_size Gen.(1 -- 12) (pair (float_range 0.1 100.0) (float_range 0.1 100.0)))
    (fun points ->
      let items = List.map (fun (time, money) -> Objective.make ~time ~money) points in
      let front = Objective.pareto_front items ~objective:(fun o -> o) in
      let describe o = Format.asprintf "%a" Objective.pp o in
      let diags = Invariant.check_pareto ~objective:(fun o -> o) ~describe front in
      diags = [] || QCheck.Test.fail_report (Diagnostic.render diags))

let prop_cache_lookups_pass_audit =
  QCheck.Test.make ~count:100 ~name:"every cache lookup policy passes check_cache_lookup"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8)
           (triple (float_range 0.0 10.0) (int_range 1 8) (float_range 1.0 6.0)))
        (list_of_size Gen.(1 -- 6) (float_range 0.0 10.0)))
    (fun (entries, probes) ->
      let cache = Plan_cache.create () in
      List.iter
        (fun (data_gb, nc, gb) ->
          ignore (Plan_cache.insert ~cost:0.0 cache ~key ~data_gb (res nc gb));
          (* Near-duplicate keys a few ulps apart are exactly the regime the
             weighted-average epsilon guard exists for. *)
          ignore (Plan_cache.insert ~cost:0.0 cache ~key ~data_gb:(Float.succ data_gb) (res nc gb)))
        entries;
      let probes = probes @ List.map (fun (d, _, _) -> d) entries in
      let diags =
        List.concat_map
          (fun data_gb ->
            List.concat_map
              (fun lookup -> Invariant.check_cache_lookup cache ~key ~data_gb lookup)
              [ Plan_cache.Exact; Plan_cache.Nearest_neighbor 0.5; Plan_cache.Weighted_average 0.5 ])
          probes
      in
      diags = [] || QCheck.Test.fail_report (Diagnostic.render diags))

(* -------------------------------------------------------------------- run *)

let () =
  Alcotest.run "raqo_verify"
    [
      ( "invariant",
        [
          Alcotest.test_case "accepts a real Selinger plan" `Quick test_checker_accepts_real_plan;
          Alcotest.test_case "rejects duplicated leaves" `Quick test_checker_rejects_duplicate_leaf;
          Alcotest.test_case "rejects wrong leaf sets" `Quick test_checker_rejects_wrong_leaf_set;
          Alcotest.test_case "rejects out-of-bounds resources" `Quick
            test_checker_rejects_out_of_bounds_resources;
          Alcotest.test_case "rejects BHJ over memory" `Quick test_checker_rejects_bhj_oom;
          Alcotest.test_case "rejects bad costs" `Quick test_checker_rejects_bad_costs;
          Alcotest.test_case "rejects dominated Pareto points" `Quick
            test_checker_rejects_dominated_pareto;
          Alcotest.test_case "accepts well-behaved cache lookups" `Quick
            test_cache_lookup_checker_passes_on_real_cache;
        ]
        @ qsuite
            [
              prop_selinger_plans_pass_checker;
              prop_raqo_plans_stay_on_grid;
              prop_pareto_front_is_non_dominated;
              prop_cache_lookups_pass_audit;
            ] );
      ( "oracle",
        [
          Alcotest.test_case "clean instance passes" `Quick test_oracle_clean_instance;
          Alcotest.test_case "clean instance passes with parallel arms" `Quick
            test_oracle_clean_parallel_arms;
          Alcotest.test_case "catches a sign-flipped coster" `Quick test_oracle_catches_sign_flip;
          Alcotest.test_case "catches a broken joint arm" `Quick
            test_oracle_catches_broken_joint_arm;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean seeds report nothing" `Quick test_fuzz_clean_seeds;
          Alcotest.test_case "shrinks a sign-flip failure to one join" `Quick
            test_fuzz_shrinks_sign_flip;
        ] );
      ( "production",
        [
          Alcotest.test_case "Cost_based.coster reproduces the reported cost" `Quick
            test_cost_based_coster_reproduces_cost;
          Alcotest.test_case "counting coster counts invocations" `Quick
            test_counting_coster_counts;
        ] );
    ]
