(* Runtime adaptive re-optimization (lib/adaptive): the zero-error identity
   and never-worse theorems checked directly, a handcrafted OOM rescue with a
   BHJ->SMJ flip, mid-flight container re-sizing, fault-injected re-planning
   (fallback to the incumbent remainder), pool-size bit-identity of the
   pooled static plan, and the Remaining collapse algebra. *)

module Adaptive = Raqo_adaptive.Adaptive_exec
module Remaining = Raqo_adaptive.Remaining
module Estimation_error = Raqo_execsim.Estimation_error
module Engine = Raqo_execsim.Engine
module Simulate = Raqo_execsim.Simulate
module Oracle = Raqo_verify.Oracle
module Schema = Raqo_catalog.Schema
module Relation = Raqo_catalog.Relation
module Join_graph = Raqo_catalog.Join_graph
module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Conditions = Raqo_cluster.Conditions
module Resources = Raqo_cluster.Resources
module Coster = Raqo_planner.Coster

let model = Oracle.model
let conditions = Oracle.conditions
let res nc gb = Resources.make ~containers:nc ~container_gb:gb

(* Plan an oracle instance's query with the bushy DP over [schema] (truth or
   a perturbed estimate schema). *)
let plan_with schema rels =
  let opt =
    Raqo.Cost_based.create ~kind:Raqo.Cost_based.Bushy_dp ~model ~conditions schema
  in
  match Raqo.Cost_based.optimize opt rels with
  | Some (plan, _) -> plan
  | None -> Alcotest.fail "bushy DP found no plan"

let run_adaptive ?fault ~engine ~truth ~estimates rels =
  let plan = plan_with estimates rels in
  Adaptive.run ?fault ~engine ~model ~conditions ~truth ~estimates plan

let error_of dist seed = Estimation_error.make dist ~seed

let rec annots = function
  | Join_tree.Scan _ -> []
  | Join_tree.Join (a, l, r) -> annots l @ annots r @ [ a ]

(* ------------------------------------------------------ zero-error identity *)

let test_zero_error_identity () =
  List.iter
    (fun seed ->
      let t = Oracle.instance ~tables:8 ~joins:6 seed in
      List.iter
        (fun engine ->
          let r =
            run_adaptive ~engine ~truth:t.Oracle.schema ~estimates:t.Oracle.schema
              t.Oracle.relations
          in
          let tag fmt =
            Printf.sprintf ("seed %d %s: " ^^ fmt) seed engine.Engine.name
          in
          Alcotest.(check int) (tag "no replans") 0 r.Adaptive.replans;
          Alcotest.(check int) (tag "no switches") 0 r.Adaptive.switches;
          Alcotest.(check int) (tag "no failures") 0 r.Adaptive.failed_replans;
          Alcotest.(check bool) (tag "plan unchanged") true
            (r.Adaptive.adaptive_plan = r.Adaptive.static_plan);
          Alcotest.(check bool) (tag "outcome bit-identical") true
            (r.Adaptive.adaptive_outcome = r.Adaptive.static_outcome);
          (* The report's static path is the execution simulator, bitwise. *)
          match
            (r.Adaptive.static_outcome, Simulate.run_joint engine t.Oracle.schema r.Adaptive.static_plan)
          with
          | Adaptive.Done { seconds; gb_seconds }, Ok sim ->
              Alcotest.(check bool) (tag "seconds = Simulate") true
                (Float.equal seconds sim.Simulate.seconds);
              Alcotest.(check bool) (tag "gb-seconds = Simulate") true
                (Float.equal gb_seconds sim.Simulate.gb_seconds)
          | Adaptive.Oom _, Error _ -> ()
          | _ -> Alcotest.fail (tag "static outcome disagrees with Simulate"))
        [ Engine.hive; Engine.spark ])
    [ 1; 2; 3; 4; 5; 6 ]

(* Exact's perturb must return the truth schema physically unchanged — the
   identity above hinges on it. *)
let test_exact_perturb_is_physical_identity () =
  let t = Oracle.instance 3 in
  Alcotest.(check bool) "physically equal" true
    (Estimation_error.perturb Estimation_error.exact t.Oracle.schema == t.Oracle.schema)

(* ------------------------------------------------------------- never-worse *)

let sweep_dists =
  [
    Estimation_error.Lognormal 0.6;
    Estimation_error.Skew 0.8;
    Estimation_error.Correlated 0.8;
  ]

let test_never_worse_sweep () =
  let replans = ref 0 and switches = ref 0 in
  List.iter
    (fun seed ->
      let t = Oracle.instance ~tables:8 ~joins:6 seed in
      List.iter
        (fun dist ->
          let error = error_of dist (100 + seed) in
          let estimates = Estimation_error.perturb error t.Oracle.schema in
          List.iter
            (fun engine ->
              let r =
                run_adaptive ~engine ~truth:t.Oracle.schema ~estimates t.Oracle.relations
              in
              replans := !replans + r.Adaptive.replans;
              switches := !switches + r.Adaptive.switches;
              let static_s = Adaptive.latency r.Adaptive.static_outcome in
              let adaptive_s = Adaptive.latency r.Adaptive.adaptive_outcome in
              (* Plain float <=, no tolerance: the differential guard makes
                 the adaptive clock replay the static one exactly until a
                 switch strictly improves the projection. *)
              Alcotest.(check bool)
                (Printf.sprintf "seed %d %s %s: adaptive %.6f <= static %.6f" seed
                   engine.Engine.name
                   (Estimation_error.to_string error)
                   adaptive_s static_s)
                true (adaptive_s <= static_s);
              match (r.Adaptive.static_outcome, r.Adaptive.adaptive_outcome) with
              | Adaptive.Done _, Adaptive.Oom _ ->
                  Alcotest.fail
                    (Printf.sprintf "seed %d: adaptive turned a completed run into an OOM" seed)
              | _ -> ())
            [ Engine.hive; Engine.spark ])
        sweep_dists)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  (* The sweep must actually exercise the machinery, not vacuously pass. *)
  Alcotest.(check bool) "re-planning fired" true (!replans > 0);
  Alcotest.(check bool) "some candidate won" true (!switches > 0)

(* ------------------------------------------------- OOM rescue: BHJ -> SMJ *)

(* A 3-relation chain where the estimates make a x b look like 100 rows but
   the truth materializes 20 GB: the static plan broadcasts that
   intermediate and dies; the adaptive run observes the true size at the
   stage boundary, re-plans the remainder, and switches to a sort-merge. *)
let rescue_truth, rescue_estimates =
  let rel name rows row_bytes = Relation.make ~name ~rows ~row_bytes in
  let rels = [ rel "a" 1e7 100.0; rel "b" 1e7 100.0; rel "c" 5e8 150.0 ] in
  let edge l r s = { Join_graph.left = l; right = r; selectivity = s } in
  let make ab_sel =
    Schema.make rels (Join_graph.make [ edge "a" "b" ab_sel; edge "b" "c" 1e-8 ])
  in
  (make 1e-6, make 1e-12)

let rescue_plan =
  Join_tree.Join
    ( (Join_impl.Bhj, res 10 3.0),
      Join_tree.Join ((Join_impl.Bhj, res 10 3.0), Join_tree.Scan "a", Join_tree.Scan "b"),
      Join_tree.Scan "c" )

let test_oom_rescue_flips_bhj_to_smj () =
  let r =
    Adaptive.run ~engine:Engine.hive ~model ~conditions ~truth:rescue_truth
      ~estimates:rescue_estimates rescue_plan
  in
  (match r.Adaptive.static_outcome with
  | Adaptive.Oom { stage; _ } -> Alcotest.(check int) "static dies at stage 1" 1 stage
  | Adaptive.Done _ -> Alcotest.fail "static plan should OOM under the truth");
  (match r.Adaptive.adaptive_outcome with
  | Adaptive.Done _ -> ()
  | Adaptive.Oom _ -> Alcotest.fail "adaptive run should rescue the OOM");
  Alcotest.(check bool) "a re-plan fired" true (r.Adaptive.replans >= 1);
  Alcotest.(check bool) "the candidate won" true (r.Adaptive.switches >= 1);
  (* The rescued remainder runs the 20 GB build as a sort-merge join. *)
  let last = List.nth r.Adaptive.stages (List.length r.Adaptive.stages - 1) in
  Alcotest.(check bool) "flipped to SMJ" true
    (Join_impl.equal last.Adaptive.impl Join_impl.Smj);
  Alcotest.(check bool) "switch recorded on the boundary stage" true
    (List.exists (fun s -> s.Adaptive.switched) r.Adaptive.stages);
  Alcotest.(check bool) "rescued latency is finite" true
    (Float.is_finite (Adaptive.latency r.Adaptive.adaptive_outcome))

(* ------------------------------------------------------ container re-size *)

let test_switch_resizes_containers () =
  (* Across a seeded sweep, at least one winning re-plan must change a
     stage's resource assignment, not just its operator — the joint
     query/resource re-optimization the subsystem exists for. *)
  let resized = ref false in
  List.iter
    (fun seed ->
      let t = Oracle.instance ~tables:8 ~joins:6 seed in
      let error = error_of (Estimation_error.Lognormal 1.0) (200 + seed) in
      let estimates = Estimation_error.perturb error t.Oracle.schema in
      let r =
        run_adaptive ~engine:Engine.hive ~truth:t.Oracle.schema ~estimates
          t.Oracle.relations
      in
      if r.Adaptive.switches > 0 then begin
        let static_res = List.map snd (annots r.Adaptive.static_plan) in
        let adaptive_res = List.map snd (annots r.Adaptive.adaptive_plan) in
        if static_res <> adaptive_res then resized := true
      end)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
  Alcotest.(check bool) "some switch re-sized resources" true !resized

(* --------------------------------------------------------- fault injection *)

exception Boom

let boom_fault (_ : Coster.masked) =
  {
    Coster.best_join_masked = (fun ~left:_ ~right:_ -> raise Boom);
    masked_name = "boom";
  }

(* A seed/error pair the never-worse sweep shows re-plans on. *)
let faulted_instance () =
  let t = Oracle.instance ~tables:8 ~joins:6 1 in
  let error = error_of (Estimation_error.Lognormal 0.6) 101 in
  (t, Estimation_error.perturb error t.Oracle.schema)

let test_fault_falls_back () =
  let t, estimates = faulted_instance () in
  let clean = run_adaptive ~engine:Engine.hive ~truth:t.Oracle.schema ~estimates t.Oracle.relations in
  Alcotest.(check bool) "the instance re-plans at all" true (clean.Adaptive.replans > 0);
  let r =
    run_adaptive ~fault:boom_fault ~engine:Engine.hive ~truth:t.Oracle.schema
      ~estimates t.Oracle.relations
  in
  Alcotest.(check int) "every re-plan failed" r.Adaptive.replans r.Adaptive.failed_replans;
  Alcotest.(check bool) "failures counted" true (r.Adaptive.failed_replans > 0);
  Alcotest.(check int) "no switches" 0 r.Adaptive.switches;
  (* Fallback means the incumbent keeps running: the adaptive path must be
     bit-identical to the static one. *)
  Alcotest.(check bool) "plan unchanged" true
    (r.Adaptive.adaptive_plan = r.Adaptive.static_plan);
  Alcotest.(check bool) "outcome unchanged" true
    (r.Adaptive.adaptive_outcome = r.Adaptive.static_outcome)

(* -------------------------------------------------------------- validation *)

let test_run_rejects_invalid_plan () =
  let t = Oracle.instance 1 in
  let dup =
    match t.Oracle.relations with
    | a :: b :: _ ->
        Join_tree.Join ((Join_impl.Smj, res 4 3.0), Join_tree.Scan a,
          Join_tree.Join ((Join_impl.Smj, res 4 3.0), Join_tree.Scan b, Join_tree.Scan a))
    | _ -> Alcotest.fail "instance too small"
  in
  Alcotest.(check bool) "duplicate relation rejected" true
    (match
       Adaptive.run ~engine:Engine.hive ~model ~conditions ~truth:t.Oracle.schema
         ~estimates:t.Oracle.schema dup
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let unknown =
    Join_tree.Join ((Join_impl.Smj, res 4 3.0), Join_tree.Scan "nonesuch",
      Join_tree.Scan (List.hd t.Oracle.relations))
  in
  Alcotest.(check bool) "unknown relation rejected" true
    (match
       Adaptive.run ~engine:Engine.hive ~model ~conditions ~truth:t.Oracle.schema
         ~estimates:t.Oracle.schema unknown
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------- Remaining algebra *)

let test_collapse_counts_and_stats () =
  let plan = rescue_plan in
  (* executed = 0: unchanged over base relations. *)
  (match Remaining.collapse ~truth:rescue_truth ~estimates:rescue_estimates plan ~executed:0 with
  | Some rem ->
      Alcotest.(check (list string)) "all bases remain" [ "a"; "b"; "c" ]
        (List.map (fun (l : Remaining.leaf) -> l.Remaining.name) rem.Remaining.leaves)
  | None -> Alcotest.fail "collapse at 0 must keep the plan");
  (* executed = 1: a x b collapses into one pseudo-leaf with truth stats. *)
  (match Remaining.collapse ~truth:rescue_truth ~estimates:rescue_estimates plan ~executed:1 with
  | Some rem ->
      let leaf = List.hd rem.Remaining.leaves in
      Alcotest.(check string) "pseudo-leaf name" "a+b" leaf.Remaining.name;
      Alcotest.(check (list string)) "pseudo-leaf bases" [ "a"; "b" ] leaf.Remaining.bases;
      (* Materialized leaves carry ground truth, not the estimates. *)
      let truth_rows = Schema.join_rows rescue_truth [ "a"; "b" ] in
      Alcotest.(check bool) "truth statistics on the pseudo-leaf" true
        (Float.equal (Schema.join_rows rem.Remaining.schema [ "a+b" ]) truth_rows)
  | None -> Alcotest.fail "one join must remain");
  (* executed = n_joins: nothing remains. *)
  Alcotest.(check bool) "fully executed collapses to None" true
    (Remaining.collapse ~truth:rescue_truth ~estimates:rescue_estimates plan ~executed:2 = None)

(* ------------------------------------------------------ oracle integration *)

let test_oracle_adaptive_clean () =
  List.iter
    (fun seed ->
      let t = Oracle.instance seed in
      Alcotest.(check (list string)) (Printf.sprintf "seed %d clean" seed) []
        (List.map Raqo_verify.Diagnostic.to_string (Oracle.check_adaptive t)))
    [ 1; 2; 3 ]

let test_oracle_adaptive_clean_under_fault () =
  (* A raising re-plan coster forces every fallback path; all adaptive
     invariants must still hold. *)
  List.iter
    (fun seed ->
      let t = Oracle.instance seed in
      Alcotest.(check (list string)) (Printf.sprintf "seed %d clean under fault" seed) []
        (List.map Raqo_verify.Diagnostic.to_string
           (Oracle.check_adaptive ~fault:boom_fault t)))
    [ 1; 2 ]

let () =
  Alcotest.run "raqo_adaptive"
    [
      ( "identity",
        [
          Alcotest.test_case "zero error is bit-identical to static" `Quick
            test_zero_error_identity;
          Alcotest.test_case "Exact perturb is physical identity" `Quick
            test_exact_perturb_is_physical_identity;
        ] );
      ( "never-worse",
        [ Alcotest.test_case "adaptive <= static across seeds, dists, engines" `Quick
            test_never_worse_sweep ] );
      ( "rescue",
        [
          Alcotest.test_case "OOM rescue flips BHJ to SMJ" `Quick
            test_oom_rescue_flips_bhj_to_smj;
          Alcotest.test_case "a switch re-sizes containers" `Quick
            test_switch_resizes_containers;
        ] );
      ( "faults",
        [
          Alcotest.test_case "raising re-plan falls back (sequential)" `Quick
            test_fault_falls_back;
        ] );
      ( "validation",
        [ Alcotest.test_case "invalid plans rejected" `Quick test_run_rejects_invalid_plan ] );
      ( "remaining",
        [ Alcotest.test_case "collapse counts and statistics" `Quick
            test_collapse_counts_and_stats ] );
      ( "oracle",
        [
          Alcotest.test_case "check_adaptive clean on random instances" `Quick
            test_oracle_adaptive_clean;
          Alcotest.test_case "check_adaptive clean under fault injection" `Quick
            test_oracle_adaptive_clean_under_fault;
        ] );
    ]
