(* Tests for Raqo_planner: costers, Selinger DP, randomized search,
   exhaustive oracle, heuristics. Correctness is anchored on the oracle:
   Selinger must match it on left-deep-optimal instances, and the randomized
   planner must land within a small factor. *)

module Coster = Raqo_planner.Coster
module Selinger = Raqo_planner.Selinger
module Randomized = Raqo_planner.Randomized
module Exhaustive = Raqo_planner.Exhaustive
module Heuristics = Raqo_planner.Heuristics
module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions
module Schema = Raqo_catalog.Schema
module Tpch = Raqo_catalog.Tpch
module Rng = Raqo_util.Rng

let schema = Tpch.schema ()
let res nc gb = Resources.make ~containers:nc ~container_gb:gb
let fixed_res = res 10 5.0
let model = Raqo_cost.Op_cost.with_floor 0.01 Raqo_cost.Op_cost.paper
let fixed_coster () = Coster.fixed model schema fixed_res

let raqo_coster () =
  let planner = Raqo_resource.Resource_planner.create Conditions.default in
  Coster.raqo model schema planner

let sim_coster () = Coster.simulator Raqo_execsim.Engine.hive schema fixed_res

(* ---------------------------------------------------------------- Coster *)

let test_fixed_coster_picks_cheaper_impl () =
  let c = fixed_coster () in
  match c.Coster.best_join ~left:[ "orders" ] ~right:[ "lineitem" ] with
  | Some choice ->
      let by_hand impl =
        Raqo_cost.Op_cost.predict_exn model impl
          ~small_gb:(Raqo_cost.Plan_cost.join_small_gb schema ~left:[ "orders" ] ~right:[ "lineitem" ])
          ~resources:fixed_res
      in
      let expected = Float.min (by_hand Join_impl.Smj) (by_hand Join_impl.Bhj) in
      Alcotest.(check (float 1e-9)) "min of impls" expected choice.Coster.cost
  | None -> Alcotest.fail "feasible"

let test_fixed_coster_resources_are_fixed () =
  let c = fixed_coster () in
  match c.Coster.best_join ~left:[ "orders" ] ~right:[ "lineitem" ] with
  | Some choice -> Alcotest.(check bool) "fixed" true (Resources.equal choice.Coster.resources fixed_res)
  | None -> Alcotest.fail "feasible"

let test_raqo_coster_never_worse_than_fixed () =
  (* Resource planning searches a superset including the fixed config's
     whole grid; with hill climbing it can stop at a local optimum, but on
     the orders⋈lineitem surface it must at least beat the 1-container
     minimum and produce a finite cost. *)
  let c = raqo_coster () in
  match c.Coster.best_join ~left:[ "orders" ] ~right:[ "lineitem" ] with
  | Some choice -> Alcotest.(check bool) "finite" true (Float.is_finite choice.Coster.cost)
  | None -> Alcotest.fail "feasible"

let test_cost_tree_sums_joins () =
  let c = fixed_coster () in
  let shape =
    Join_tree.Join
      ( (),
        Join_tree.Join ((), Join_tree.Scan "orders", Join_tree.Scan "lineitem"),
        Join_tree.Scan "customer" )
  in
  match Coster.cost_tree c shape with
  | Some (annotated, total) ->
      Alcotest.(check int) "2 joins annotated" 2 (Join_tree.n_joins annotated);
      let parts =
        [
          c.Coster.best_join ~left:[ "orders" ] ~right:[ "lineitem" ];
          c.Coster.best_join ~left:[ "orders"; "lineitem" ] ~right:[ "customer" ];
        ]
      in
      let expected =
        List.fold_left
          (fun acc p ->
            match p with
            | Some ch -> acc +. ch.Coster.cost
            | None -> Alcotest.fail "feasible")
          0.0 parts
      in
      Alcotest.(check (float 1e-9)) "sum" expected total
  | None -> Alcotest.fail "feasible"

let test_cost_tree_infeasible_none () =
  (* At 1 GB fixed containers the simulator still runs SMJ, so use a coster
     that rejects everything. *)
  let never = { Coster.best_join = (fun ~left:_ ~right:_ -> None); name = "never" } in
  let shape = Join_tree.Join ((), Join_tree.Scan "orders", Join_tree.Scan "lineitem") in
  Alcotest.(check bool) "None" true (Coster.cost_tree never shape = None)

let test_shape_of_strips () =
  let joint =
    Join_tree.Join ((Join_impl.Smj, fixed_res), Join_tree.Scan "a", Join_tree.Scan "b")
  in
  match Coster.shape_of joint with
  | Join_tree.Join ((), Join_tree.Scan "a", Join_tree.Scan "b") -> ()
  | _ -> Alcotest.fail "bad shape"

(* -------------------------------------------------------------- Selinger *)

let test_selinger_single_relation () =
  match Selinger.optimize (fixed_coster ()) schema [ "orders" ] with
  | Some (Join_tree.Scan "orders", cost) -> Alcotest.(check (float 1e-9)) "no joins" 0.0 cost
  | _ -> Alcotest.fail "expected bare scan"

let test_selinger_produces_valid_left_deep () =
  List.iter
    (fun (name, rels) ->
      match Selinger.optimize (fixed_coster ()) schema rels with
      | Some (plan, cost) ->
          Alcotest.(check bool) (name ^ " valid") true (Join_tree.valid plan);
          Alcotest.(check bool) (name ^ " left deep") true (Join_tree.left_deep plan);
          Alcotest.(check int) (name ^ " joins all") (List.length rels)
            (List.length (Join_tree.relations plan));
          Alcotest.(check bool) (name ^ " finite") true (Float.is_finite cost)
      | None -> Alcotest.failf "%s: no plan" name)
    Tpch.evaluation_queries

let test_selinger_matches_exhaustive_left_deep_oracle () =
  (* With 3 relations every bushy tree is left-deep up to mirroring, and
     costers order build/probe sides by size, so the DP must match the full
     exhaustive oracle on Q3. *)
  let coster = fixed_coster () in
  match
    (Selinger.optimize coster schema Tpch.q3, Exhaustive.optimize coster schema Tpch.q3)
  with
  | Some (_, dp), Some (_, oc) -> Alcotest.(check (float 1e-6)) "DP = oracle" oc dp
  | _ -> Alcotest.fail "both should find plans"

let test_selinger_avoids_cartesian () =
  match Selinger.optimize (fixed_coster ()) schema Tpch.all with
  | Some (plan, _) ->
      let ok =
        Join_tree.fold_joins
          (fun acc _ left right ->
            acc
            && Raqo_catalog.Join_graph.edges_between (Schema.graph schema) left right <> [])
          true plan
      in
      Alcotest.(check bool) "every join has an edge" true ok
  | None -> Alcotest.fail "plan expected"

let test_selinger_rejects_empty_and_unknown () =
  Alcotest.check_raises "empty" (Invalid_argument "Selinger.optimize: empty relation set")
    (fun () -> ignore (Selinger.optimize (fixed_coster ()) schema []));
  Alcotest.check_raises "unknown" (Invalid_argument "Selinger.optimize: unknown zz")
    (fun () -> ignore (Selinger.optimize (fixed_coster ()) schema [ "zz" ]))

let test_selinger_none_when_all_infeasible () =
  let never = { Coster.best_join = (fun ~left:_ ~right:_ -> None); name = "never" } in
  Alcotest.(check bool) "None" true (Selinger.optimize never schema Tpch.q12 = None)

let test_selinger_with_simulator_coster () =
  (* Ground-truth coster: DP must still produce a valid plan whose cost
     equals re-simulating it. *)
  let coster = sim_coster () in
  match Selinger.optimize coster schema Tpch.q3 with
  | Some (plan, cost) -> begin
      match Raqo_execsim.Simulate.run_joint Raqo_execsim.Engine.hive schema plan with
      | Ok run -> Alcotest.(check (float 1e-6)) "cost = simulated" run.Raqo_execsim.Simulate.seconds cost
      | Error e -> Alcotest.fail e
    end
  | None -> Alcotest.fail "plan expected"

(* ------------------------------------------------------------ Randomized *)

let tpch_graph = Randomized.graph schema Tpch.all

let test_random_shape_valid () =
  let rng = Rng.create 1 in
  for _ = 1 to 50 do
    let shape = Randomized.random_shape rng tpch_graph in
    Alcotest.(check bool) "valid" true (Join_tree.valid shape);
    Alcotest.(check int) "all relations" 8 (List.length (Join_tree.relations shape))
  done;
  let refuses why rels =
    Alcotest.check_raises (String.concat " " rels) (Invalid_argument ("Randomized.random_shape: " ^ why))
      (fun () -> ignore (Randomized.random_shape rng (Randomized.graph schema rels)))
  in
  refuses "empty relation set" [];
  refuses "relations not joinable" [ "orders"; "orders"; "lineitem" ];
  refuses "relations not joinable" [ "customer"; "part" ]

let test_random_shape_no_cartesian () =
  let rng = Rng.create 2 in
  for _ = 1 to 50 do
    let shape = Randomized.random_shape rng tpch_graph in
    let ok =
      Join_tree.fold_joins
        (fun acc _ left right ->
          acc && Raqo_catalog.Join_graph.edges_between (Schema.graph schema) left right <> [])
        true shape
    in
    Alcotest.(check bool) "no cartesian" true ok
  done

let test_mutate_preserves_validity () =
  let rng = Rng.create 3 in
  let shape = ref (Randomized.random_shape rng tpch_graph) in
  let valid = Randomized.checker tpch_graph in
  let mutated = ref 0 in
  for _ = 1 to 300 do
    match Randomized.mutate rng valid !shape with
    | Some s ->
        incr mutated;
        Alcotest.(check bool) "valid" true (Join_tree.valid s);
        Alcotest.(check (list string)) "same relations"
          (List.sort compare (Join_tree.relations !shape))
          (List.sort compare (Join_tree.relations s));
        shape := s
    | None -> ()
  done;
  Alcotest.(check bool) "some mutations applied" true (!mutated > 30)

let test_randomized_close_to_selinger () =
  let coster = fixed_coster () in
  let rng = Rng.create 4 in
  match
    ( Randomized.optimize ~params:{ Randomized.iterations = 10; max_no_improve = 50 } rng
        coster schema Tpch.q3,
      Selinger.optimize coster schema Tpch.q3 )
  with
  | Some (_, rc), Some (_, sc) ->
      (* Bushy space includes left-deep: randomized should be close (it can
         even win, since Selinger is restricted to left-deep trees). *)
      Alcotest.(check bool)
        (Printf.sprintf "within 2x (randomized %.1f vs selinger %.1f)" rc sc)
        true (rc <= 2.0 *. sc +. 1e-6)
  | _ -> Alcotest.fail "both should find plans"

let test_randomized_deterministic_for_seed () =
  let coster = fixed_coster () in
  let run seed =
    match Randomized.optimize (Rng.create seed) coster schema Tpch.q2 with
    | Some (_, c) -> c
    | None -> Alcotest.fail "plan expected"
  in
  Alcotest.(check (float 1e-12)) "same seed, same cost" (run 9) (run 9)

let test_local_optima_count () =
  let coster = fixed_coster () in
  let rng = Rng.create 5 in
  let optima =
    Randomized.local_optima ~params:{ Randomized.iterations = 7; max_no_improve = 10 } rng
      coster schema Tpch.q3
  in
  Alcotest.(check int) "one per restart" 7 (List.length optima)

let test_randomized_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Randomized.local_optima: empty relation set")
    (fun () -> ignore (Randomized.optimize (Rng.create 1) (fixed_coster ()) schema []))

(* The graph check ([Randomized.checker]) must give the verdict of the
   randomized planner's former check, kept here verbatim plus the
   membership rule the graph adds (a relation outside the query has no
   id): every join crossed by a catalog edge between its sides' relation
   lists, no leaf twice, every leaf a query relation. *)
let reference_valid ~schema ~relations shape =
  let rec valid_shape = function
    | Join_tree.Scan _ -> true
    | Join_tree.Join (_, l, r) ->
        Raqo_catalog.Join_graph.edges_between (Schema.graph schema) (Join_tree.relations l)
          (Join_tree.relations r)
        <> []
        && valid_shape l && valid_shape r
  in
  valid_shape shape && Join_tree.valid shape
  && List.for_all (fun r -> List.mem r relations) (Join_tree.relations shape)

let big_catalog = lazy (Raqo_catalog.Random_schema.generate (Rng.create 2018) ~tables:100)

(* A bushy tree over [rels] that ignores the join graph: split the list at
   random points, so cartesian joins are common. *)
let rec graph_blind_tree rng = function
  | [ r ] -> Join_tree.Scan r
  | rels ->
      let k = 1 + Rng.int rng (List.length rels - 1) in
      Join_tree.Join
        ( (),
          graph_blind_tree rng (List.filteri (fun i _ -> i < k) rels),
          graph_blind_tree rng (List.filteri (fun i _ -> i >= k) rels) )

(* Compares both checks on a random shape, every mutation drawn along a
   [steps]-long chain, and 20 graph-blind trees; returns the (accepted,
   rejected) counts. *)
let checks_agree schema rels rng ~steps =
  let g = Randomized.graph schema rels in
  let valid = Randomized.checker g in
  let accepted = ref 0 and rejected = ref 0 in
  let verdict s =
    let want = reference_valid ~schema ~relations:rels s in
    if valid s <> want then
      Alcotest.failf "%d relations: the graph check disagrees with the reference (%b) on %a"
        (List.length rels) want
        (Join_tree.pp (fun _ () -> ()))
        s;
    if want then incr accepted else incr rejected;
    want
  in
  let shape = ref (Randomized.random_shape rng g) in
  Alcotest.(check bool) "random shape accepted" true (verdict !shape);
  for _ = 1 to steps do
    Option.iter (fun s -> shape := s) (Randomized.mutate rng verdict !shape)
  done;
  for _ = 1 to 20 do
    let shuffled = Array.of_list rels in
    Rng.shuffle rng shuffled;
    ignore (verdict (graph_blind_tree rng (Array.to_list shuffled)) : bool)
  done;
  (!accepted, !rejected)

let test_validity_matches_reference_random () =
  let catalog = Lazy.force big_catalog in
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let rels =
            Raqo_catalog.Random_schema.query (Rng.create ((31 * seed) + n)) catalog
              ~joins:(n - 1)
          in
          let accepted, rejected = checks_agree catalog rels (Rng.create seed) ~steps:300 in
          if n >= 3 then
            Alcotest.(check bool)
              (Printf.sprintf "%d relations, seed %d: both verdicts seen" n seed)
              true
              (accepted > 1 && rejected > 0))
        (* The reference is quadratic: one chain per large size. *)
        (if n <= 24 then [ 1; 2 ] else [ 1 ]))
    [ 2; 3; 5; 10; 24; 40; 63; 70; 100 ]

let test_validity_matches_reference_tpch () =
  List.iter
    (fun rels ->
      List.iter
        (fun seed -> ignore (checks_agree schema rels (Rng.create seed) ~steps:300))
        [ 1; 2; 3; 4; 5 ])
    [ Tpch.q12; Tpch.q3; Tpch.q2; Tpch.all ]

let test_validity_rejects () =
  let valid = Randomized.checker (Randomized.graph schema Tpch.q3) in
  let scan r = Join_tree.Scan r and join l r = Join_tree.Join ((), l, r) in
  List.iter
    (fun (what, want, shape) ->
      Alcotest.(check bool) (what ^ " (graph check)") want (valid shape);
      Alcotest.(check bool)
        (what ^ " (reference)")
        want
        (reference_valid ~schema ~relations:Tpch.q3 shape))
    [
      ("left-deep", true, join (join (scan "customer") (scan "orders")) (scan "lineitem"));
      ("bushy, other side smaller", true, join (scan "customer") (join (scan "orders") (scan "lineitem")));
      ("a subset of the query", true, join (scan "lineitem") (scan "orders"));
      ("cartesian join", false, join (join (scan "customer") (scan "lineitem")) (scan "orders"));
      ("duplicated leaf", false, join (join (scan "orders") (scan "lineitem")) (scan "orders"));
      ("leaf outside the query", false, join (join (scan "customer") (scan "orders")) (scan "nation"));
      ("leaf outside the catalog", false, join (scan "orders") (scan "bogus"));
    ]

(* Plans [n] relations of a random walk from [seed] over the 100-table
   catalog at join-large's settings (the Hive model, default conditions and
   restarts) and checks the plan digest, the cost bits and the counters. *)
(* One join-large plan: its digest, its cost in hex, and the counters
   [evaluations; hits; misses; evictions; invocations]. *)
let join_large_run kind ~kernel rels =
  let catalog = Lazy.force big_catalog in
  let opt =
    Raqo.Cost_based.create ~kind
      ~resource_planner:(Raqo_resource.Resource_planner.create ~kernel)
      ~model:(Raqo.Models.hive ()) ~conditions:Conditions.default catalog
  in
  match Raqo.Cost_based.optimize opt rels with
  | None -> None
  | Some (plan, c) ->
      let k = Raqo.Cost_based.counters opt in
      let module K = Raqo_resource.Counters in
      Some
        ( Digest.to_hex (Digest.string (Format.asprintf "%a" Join_tree.pp_joint plan)),
          Printf.sprintf "%h" c,
          [ K.cost_evaluations k; K.cache_hits k; K.cache_misses k; K.planner_invocations k ] )

(* The pins are the scalar path's answers: with [~kernel:false] the default
   strategy is the paper's exhaustive scan, which costs all 1,000 cells per
   search. The closed form must reproduce its plan, cost and cache counts
   exactly, from the pinned, far smaller number of evaluations. *)
let check_join_large_pinned kind (n, seed, digest, cost, counts) =
  let catalog = Lazy.force big_catalog in
  let rels = Raqo_catalog.Random_schema.query (Rng.create seed) catalog ~joins:(n - 1) in
  let grid = Conditions.n_configs Conditions.default in
  let check label kernel counts =
    match join_large_run kind ~kernel rels with
    | None -> Alcotest.failf "%d relations (%s): no plan" n label
    | Some (d, c, k) ->
        Alcotest.(check string) (Printf.sprintf "%d relations (%s): plan" n label) digest d;
        Alcotest.(check string) (Printf.sprintf "%d relations (%s): cost" n label) cost c;
        Alcotest.(check (list int))
          (Printf.sprintf "%d relations (%s): evaluations, hits, misses, invocations" n label)
          counts k
  in
  (match counts with
  | [ _; hits; misses; invocations ] ->
      check "exhaustive" false [ invocations * grid; hits; misses; invocations ]
  | _ -> invalid_arg "check_join_large_pinned: four counts");
  check "closed form" true counts

(* The randomized side. 24 relations plan on the mask seam, 63 and 70 on
   the string seam. *)
let test_randomized_join_large_pinned () =
  List.iter
    (check_join_large_pinned Raqo.Cost_based.Fast_randomized)
    [
      (24, 1, "d5902dec8a963e9274947848a8329d1b", "0x1.d70a3d70a3d73p-3", [ 3885; 0; 308; 308 ]);
      (63, 2, "c4fb49bc1b7b8412331fc22a99d00e94", "0x1.3d70a3d70a3dap-1", [ 11014; 16858; 874; 874 ]);
      (70, 3, "bdc11097ebe96d703d2290f808c17cf6", "0x1.6147ae147ae18p-1", [ 11510; 20058; 918; 918 ]);
    ]

(* The DP side: one 17-relation walk planned by Selinger and by DPsub, where
   the resource-plan cache takes its inserts. *)
let test_dp_join_large_pinned () =
  check_join_large_pinned Raqo.Cost_based.Selinger
    (17, 5, "7d1580548cce7531b82aeab559aa7617", "0x1.47ae147ae147bp-3",
     [ 62650; 0; 5012; 5012 ]);
  check_join_large_pinned Raqo.Cost_based.Bushy_dp
    (17, 5, "bf66483d2222db77d8dd1e4e77307868", "0x1.47ae147ae147ap-3",
     [ 63932; 0; 5086; 5086 ])

(* ------------------------------------------------------------ Exhaustive *)

let test_exhaustive_counts_q3 () =
  (* 3 relations in a chain a-b-c: bushy cartesian-free shapes up to
     commutativity: ((a b) c), ((b c) a) — joining (a c) first is cartesian. *)
  Alcotest.(check int) "2 shapes for a chain of 3" 2
    (List.length (Exhaustive.all_shapes schema Tpch.q3))

let test_exhaustive_optimize_not_above_selinger () =
  let coster = fixed_coster () in
  match (Exhaustive.optimize coster schema Tpch.q2, Selinger.optimize coster schema Tpch.q2) with
  | Some (_, eo), Some (_, so) ->
      Alcotest.(check bool) "oracle <= left-deep DP" true (eo <= so +. 1e-9)
  | _ -> Alcotest.fail "plans expected"

let test_exhaustive_rejects_oversize () =
  let rng = Rng.create 6 in
  let big = Raqo_catalog.Random_schema.generate rng ~tables:9 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Exhaustive.all_shapes: too many relations") (fun () ->
      ignore (Exhaustive.all_shapes big (Schema.relation_names big)))

(* ----------------------------------------------------------------- DPsub *)

let test_dpsub_matches_exhaustive () =
  (* The bushy DP must equal the exhaustive bushy oracle. *)
  let coster = fixed_coster () in
  List.iter
    (fun (name, rels) ->
      match
        (Raqo_planner.Dpsub.optimize coster schema rels, Exhaustive.optimize coster schema rels)
      with
      | Some (_, dp), Some (_, oracle) ->
          Alcotest.(check (float 1e-6)) (name ^ ": DPsub = oracle") oracle dp
      | _ -> Alcotest.failf "%s: both should find plans" name)
    [ ("Q12", Tpch.q12); ("Q3", Tpch.q3); ("Q2", Tpch.q2); ("All", Tpch.all) ]

let test_dpsub_not_worse_than_selinger () =
  (* Bushy space contains the left-deep space. *)
  let coster = fixed_coster () in
  match
    (Raqo_planner.Dpsub.optimize coster schema Tpch.all, Selinger.optimize coster schema Tpch.all)
  with
  | Some (_, bushy), Some (_, left_deep) ->
      Alcotest.(check bool) "bushy <= left-deep" true (bushy <= left_deep +. 1e-9)
  | _ -> Alcotest.fail "plans expected"

let test_dpsub_valid_plans () =
  let coster = raqo_coster () in
  match Raqo_planner.Dpsub.optimize coster schema Tpch.all with
  | Some (plan, _) ->
      Alcotest.(check bool) "valid" true (Join_tree.valid plan);
      Alcotest.(check int) "all 8 relations" 8 (List.length (Join_tree.relations plan));
      let cartesian_free =
        Join_tree.fold_joins
          (fun acc _ left right ->
            acc && Raqo_catalog.Join_graph.edges_between (Schema.graph schema) left right <> [])
          true plan
      in
      Alcotest.(check bool) "cartesian-free" true cartesian_free
  | None -> Alcotest.fail "plan expected"

let test_dpsub_single_relation () =
  match Raqo_planner.Dpsub.optimize (fixed_coster ()) schema [ "orders" ] with
  | Some (Join_tree.Scan "orders", cost) -> Alcotest.(check (float 1e-9)) "free" 0.0 cost
  | _ -> Alcotest.fail "bare scan expected"

let test_dpsub_disconnected_is_none () =
  (* customer and part share no join edge in TPC-H: the full mask is never
     connected, so neither the string API nor the mask core finds a plan. *)
  let rels = [ "customer"; "part" ] in
  let ctx = Raqo_catalog.Interned.make schema rels in
  Alcotest.(check bool) "query is disconnected" false
    (Raqo_catalog.Interned.connected ctx (Raqo_catalog.Interned.full_mask ctx));
  Alcotest.(check bool) "mask core finds no plan" true
    (Raqo_planner.Dpsub.optimize_masked (Coster.fixed_masked model ctx fixed_res) ctx = None);
  Alcotest.(check bool) "string API finds no plan" true
    (Raqo_planner.Dpsub.optimize (fixed_coster ()) schema rels = None)

let test_dpsub_rejects_oversize () =
  let rng = Rng.create 77 in
  let big = Raqo_catalog.Random_schema.generate rng ~tables:(Raqo_planner.Dpsub.max_relations + 1) in
  Alcotest.check_raises "too many"
    (Invalid_argument "Dpsub.optimize: too many relations for bushy DP") (fun () ->
      ignore
        (Raqo_planner.Dpsub.optimize (fixed_coster ()) big (Schema.relation_names big)))

(* DPsub's mask core as it was before it enumerated connected pairs: every
   submask of each connected mask that holds the mask's lowest bit, in
   descending order, kept when both halves are connected and an edge
   crosses them. *)
let submask_dpsub (m : Coster.masked) ctx =
  let module I = Raqo_catalog.Interned in
  let n = I.n ctx and adj = I.adj ctx in
  let size = 1 lsl n in
  let connected = Array.init size (I.connected ctx) in
  let crossing a b =
    let rec any i = i < n && ((a land (1 lsl i) <> 0 && adj.(i) land b <> 0) || any (i + 1)) in
    any 0
  in
  let best = Array.make size None in
  for i = 0 to n - 1 do
    best.(1 lsl i) <- Some (Join_tree.Scan (I.name ctx i), 0.0)
  done;
  for mask = 1 to size - 1 do
    if connected.(mask) && Option.is_none best.(mask) then begin
      let low = mask land -mask in
      let sub = ref ((mask - 1) land mask) in
      while !sub <> 0 do
        let rest = mask lxor !sub in
        (if !sub land low <> 0 && connected.(!sub) && connected.(rest) && crossing !sub rest
         then
           match (best.(!sub), best.(rest)) with
           | Some (lt, lc), Some (rt, rc) -> (
               match m.Coster.best_join_masked ~left:!sub ~right:rest with
               | Some { impl; resources; cost } ->
                   let total = lc +. rc +. cost in
                   if match best.(mask) with Some (_, c) -> total < c | None -> true then
                     best.(mask) <- Some (Join_tree.Join ((impl, resources), lt, rt), total)
               | None -> ())
           | _ -> ());
        sub := (!sub - 1) land mask
      done
    end
  done;
  best.(size - 1)

(* A relation per name and the given edges, sizes and selectivities varied
   so that costs differ between splits. *)
let graph_schema names edges =
  let rels =
    List.mapi
      (fun i name ->
        Raqo_catalog.Relation.make ~name ~rows:(1e5 *. float_of_int (1 + (i * 7 mod 11)))
          ~row_bytes:(50.0 +. float_of_int (i * 13 mod 17)))
      names
  in
  let edge i (a, b) =
    { Raqo_catalog.Join_graph.left = a; right = b; selectivity = 1e-5 *. float_of_int (1 + (i mod 4)) }
  in
  Schema.make rels (Raqo_catalog.Join_graph.make (List.mapi edge edges))

let test_dpsub_call_sequence () =
  (* One recording coster drives both cores; [refuse] makes some joins
     infeasible, so subsets without a plan are skipped alike. *)
  let check what schema rels =
    let ctx = Raqo_catalog.Interned.make schema rels in
    let base = Coster.fixed_masked model ctx fixed_res in
    List.iter
      (fun (variant, refuse) ->
        let calls = ref [] in
        let m =
          { base with
            Coster.best_join_masked =
              (fun ~left ~right ->
                calls := (left, right) :: !calls;
                if refuse left right then None else base.Coster.best_join_masked ~left ~right) }
        in
        let want = submask_dpsub m ctx in
        let want_calls = List.rev !calls in
        calls := [];
        let got = Raqo_planner.Dpsub.optimize_masked m ctx in
        let label = Printf.sprintf "%s (%d relations, %s)" what (List.length rels) variant in
        Alcotest.(check (list (pair int int))) (label ^ ": coster calls") want_calls
          (List.rev !calls);
        Alcotest.(check bool) (label ^ ": same plan and cost") true (got = want))
      [ ("every join feasible", fun _ _ -> false);
        ("some joins infeasible", fun l r -> ((l * 31) + r) mod 5 = 0) ]
  in
  let catalog = Lazy.force big_catalog in
  for n = 2 to 18 do
    check "walk" catalog
      (Raqo_catalog.Random_schema.query (Rng.create (400 + n)) catalog ~joins:(n - 1))
  done;
  let names k = List.init k (Printf.sprintf "r%d") in
  let chain = List.init 17 (fun i -> (Printf.sprintf "r%d" i, Printf.sprintf "r%d" (i + 1))) in
  check "chain" (graph_schema (names 18) chain) (names 18);
  let star = List.init 13 (fun i -> ("r0", Printf.sprintf "r%d" (i + 1))) in
  check "star" (graph_schema (names 14) star) (names 14);
  let clique =
    List.concat
      (List.init 10 (fun i ->
           List.init (9 - i) (fun j -> (Printf.sprintf "r%d" i, Printf.sprintf "r%d" (i + j + 1)))))
  in
  check "clique" (graph_schema (names 10) clique) (names 10);
  List.iter
    (fun (what, rels) -> check what schema rels)
    [ ("Q3", Tpch.q3); ("Q12", Tpch.q12); ("Q2", Tpch.q2); ("All", Tpch.all) ]

let prop_dpsub_below_randomized =
  (* Exact bushy DP lower-bounds the randomized bushy search. *)
  QCheck.Test.make ~name:"DPsub <= randomized on random schemas" ~count:15
    QCheck.(int_range 1 500)
    (fun seed ->
      let rng = Rng.create seed in
      let s = Raqo_catalog.Random_schema.generate rng ~tables:7 in
      let rels = Schema.relation_names s in
      let coster = Coster.fixed model s fixed_res in
      match
        (Raqo_planner.Dpsub.optimize coster s rels, Randomized.optimize rng coster s rels)
      with
      | Some (_, dp), Some (_, rand) -> dp <= rand +. 1e-6
      | Some _, None -> true
      | None, _ -> false)

(* ------------------------------------------------------------ Heuristics *)

let test_greedy_left_deep_valid () =
  let shape = Heuristics.greedy_left_deep schema Tpch.all in
  Alcotest.(check bool) "valid" true (Join_tree.valid shape);
  Alcotest.(check bool) "left deep" true (Join_tree.left_deep shape);
  Alcotest.(check int) "all 8" 8 (List.length (Join_tree.relations shape))

let test_greedy_starts_smallest () =
  match Heuristics.greedy_left_deep schema Tpch.q3 with
  | Join_tree.Join (_, Join_tree.Join (_, Join_tree.Scan first, _), _) ->
      (* customer (2.5 GB) < orders (16.5) < lineitem (77). *)
      Alcotest.(check string) "starts at customer" "customer" first
  | _ -> Alcotest.fail "expected two-join left-deep tree"

let test_default_plan_uses_stock_rule () =
  let plan = Heuristics.default_plan Raqo_execsim.Engine.hive schema Tpch.q12 in
  (* orders is far above 10 MB: the stock rule picks SMJ. *)
  match Join_tree.annotations plan with
  | [ impl ] -> Alcotest.(check bool) "SMJ" true (Join_impl.equal impl Join_impl.Smj)
  | _ -> Alcotest.fail "one join expected"

let prop_selinger_never_worse_than_greedy =
  (* The DP explores every left-deep order, so it can't lose to the greedy
     left-deep heuristic under the same coster. *)
  QCheck.Test.make ~name:"Selinger <= greedy left-deep" ~count:20
    QCheck.(int_range 1 500)
    (fun seed ->
      let rng = Rng.create seed in
      let s = Raqo_catalog.Random_schema.generate rng ~tables:6 in
      let rels = Schema.relation_names s in
      let coster = Coster.fixed model s fixed_res in
      match (Selinger.optimize coster s rels, Coster.cost_tree coster (Heuristics.greedy_left_deep s rels)) with
      | Some (_, dp), Some (_, greedy) -> dp <= greedy +. 1e-6
      | Some _, None -> true
      | None, _ -> false)

let prop_randomized_plans_valid =
  QCheck.Test.make ~name:"randomized plans are valid joint plans" ~count:20
    QCheck.(int_range 1 500)
    (fun seed ->
      let rng = Rng.create seed in
      let coster = fixed_coster () in
      match Randomized.optimize rng coster schema Tpch.q2 with
      | Some (plan, _) ->
          Join_tree.valid plan
          && List.sort compare (Join_tree.relations plan) = List.sort compare Tpch.q2
      | None -> false)

(* ------------------------------------------------------- mask-based core *)

module Interned = Raqo_catalog.Interned
module Dpsub = Raqo_planner.Dpsub

let test_interned_roundtrip () =
  let ctx = Interned.make schema Tpch.all in
  Alcotest.(check int) "n" 8 (Interned.n ctx);
  Alcotest.(check (list string)) "relations keep admission order" Tpch.all
    (Interned.relations ctx);
  Alcotest.(check (list string)) "full mask round-trips in id order" Tpch.all
    (Interned.names_of_mask ctx (Interned.full_mask ctx));
  List.iteri
    (fun i r ->
      Alcotest.(check int) (r ^ " mask is singleton") (1 lsl i) (Interned.mask_of_name ctx r);
      Alcotest.(check string) (r ^ " name") r (Interned.name ctx i);
      Alcotest.(check (list string))
        (r ^ " singleton round-trips") [ r ]
        (Interned.names_of_mask ctx (Interned.mask_of_name ctx r)))
    Tpch.all;
  Alcotest.(check int) "mask_of_names folds" (Interned.full_mask ctx)
    (Interned.mask_of_names ctx (List.rev Tpch.all))

let test_interned_adjacency_matches_graph () =
  let ctx = Interned.make schema Tpch.all in
  let rels = Array.of_list Tpch.all in
  let graph = Schema.graph schema in
  let adj = Interned.adj ctx in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          let bit = adj.(i) land (1 lsl j) <> 0 in
          let edge =
            i <> j
            && Option.is_some (Raqo_catalog.Join_graph.selectivity graph rels.(i) rels.(j))
          in
          Alcotest.(check bool)
            (Printf.sprintf "adj %s-%s" rels.(i) rels.(j))
            edge bit)
        rels)
    rels

let test_interned_connected_matches_graph () =
  let ctx = Interned.make schema Tpch.all in
  let graph = Schema.graph schema in
  for mask = 1 to Interned.full_mask ctx do
    let names = Interned.names_of_mask ctx mask in
    Alcotest.(check bool)
      (Printf.sprintf "connectivity of mask %d" mask)
      (Raqo_catalog.Join_graph.connected graph names)
      (Interned.connected ctx mask)
  done

let test_interned_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Interned.make: empty relation set")
    (fun () -> ignore (Interned.make schema []));
  Alcotest.check_raises "unknown" (Invalid_argument "Interned.make: unknown zz") (fun () ->
      ignore (Interned.make schema [ "zz" ]))

(* Interned.join_size_gb replays Schema.join_size_gb's fold order over the
   mask's members, so the two must agree to the bit. *)
let join_size_agrees ctx mask =
  let schema = Interned.schema ctx in
  let expected = Schema.join_size_gb schema (Interned.names_of_mask ctx mask) in
  let actual = Interned.join_size_gb ctx mask in
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "join size of mask %#x: schema %h, interned %h" mask expected actual

(* A random non-empty submask of [full], each member kept with
   probability 1/2. *)
let random_submask rng full =
  let rec draw () =
    let m = ref 0 in
    for i = 0 to 61 do
      if full land (1 lsl i) <> 0 && Raqo_util.Rng.int rng 2 = 0 then m := !m lor (1 lsl i)
    done;
    if !m = 0 then draw () else !m
  in
  draw ()

let test_interned_join_size_edge_cases () =
  (* The largest query masks can hold. *)
  let rng = Raqo_util.Rng.create 62 in
  let big = Raqo_catalog.Random_schema.generate rng ~tables:80 in
  let rels = Raqo_catalog.Random_schema.query rng big ~joins:61 in
  Alcotest.(check int) "62 relations" 62 (List.length rels);
  let ctx = Interned.make big rels in
  join_size_agrees ctx (Interned.full_mask ctx);
  for _ = 1 to 200 do
    join_size_agrees ctx (random_submask rng (Interned.full_mask ctx))
  done;
  (* A duplicated name keeps its own id: both occurrences count. *)
  let dup = Interned.make schema [ "orders"; "customer"; "orders"; "lineitem" ] in
  for mask = 1 to Interned.full_mask dup do
    join_size_agrees dup mask
  done;
  (* Disconnected members: no edge between region and orders. *)
  let ctx = Interned.make schema Tpch.all in
  let disconnected = Interned.mask_of_names ctx [ "region"; "orders" ] in
  Alcotest.(check bool) "mask is disconnected" false (Interned.connected ctx disconnected);
  join_size_agrees ctx disconnected;
  for mask = 1 to Interned.full_mask ctx do
    join_size_agrees ctx mask
  done;
  Alcotest.check_raises "empty mask" (Invalid_argument "Interned.join_size_gb: empty mask")
    (fun () -> ignore (Interned.join_size_gb ctx 0))

let prop_interned_join_size_bitwise =
  QCheck.Test.make ~name:"interned join sizes equal schema join sizes bitwise" ~count:100
    QCheck.(pair (int_range 1 100_000) (int_range 2 80))
    (fun (seed, tables) ->
      let rng = Raqo_util.Rng.create seed in
      let s = Raqo_catalog.Random_schema.generate rng ~tables in
      let joins = Raqo_util.Rng.int rng (min tables Interned.max_relations) in
      let rels = Raqo_catalog.Random_schema.query rng s ~joins in
      let ctx = Interned.make s rels in
      for _ = 1 to 20 do
        join_size_agrees ctx (random_submask rng (Interned.full_mask ctx))
      done;
      join_size_agrees ctx (Interned.full_mask ctx);
      true)

(* The extracted split enumeration against its brute-force reference: both
   the set of splits and the visiting order are part of the contract. *)
let test_interned_fold_splits () =
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go m 0
  in
  (* The historical inline loop the planners used, kept as the oracle. *)
  let reference mask =
    let low = mask land (-mask) in
    let acc = ref [] in
    let sub = ref ((mask - 1) land mask) in
    while !sub <> 0 do
      if !sub land low <> 0 then acc := (!sub, mask lxor !sub) :: !acc;
      sub := (!sub - 1) land mask
    done;
    List.rev !acc
  in
  let masks =
    [ 1; 3; 5; 6 lor 1; 0b10110; 0b1111111; 0b1010101010; (1 lsl 12) - 1 ]
  in
  List.iter
    (fun mask ->
      let got =
        List.rev
          (Interned.fold_splits mask ~init:[] ~f:(fun acc ~sub ~rest ->
               (sub, rest) :: acc))
      in
      let want = reference mask in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "splits of %#x in reference order" mask)
        want got;
      let k = popcount mask in
      Alcotest.(check int)
        (Printf.sprintf "split count of %#x" mask)
        ((1 lsl (k - 1)) - 1)
        (List.length got);
      List.iter
        (fun (sub, rest) ->
          Alcotest.(check bool) "partitions the mask" true
            (sub lor rest = mask && sub land rest = 0 && sub <> 0 && rest <> 0);
          Alcotest.(check bool) "sub holds the lowest bit" true
            (sub land (mask land -mask) <> 0))
        got)
    masks;
  Alcotest.check_raises "empty mask" (Invalid_argument "Interned.fold_splits: empty mask")
    (fun () -> Interned.fold_splits 0 ~init:() ~f:(fun () ~sub:_ ~rest:_ -> ()))

(* Both arms share one underlying coster, so these tests check the interning
   machinery itself: identical plans, costs, and invocation counts. *)
let masked_and_reference_arms rels base =
  let ctx = Interned.make schema rels in
  let m, m_count = Coster.counting_masked (Coster.of_strings ctx base) in
  let s, s_count = Coster.counting base in
  (ctx, m, m_count, s, s_count)

let test_masked_selinger_bit_identical () =
  List.iter
    (fun (name, rels) ->
      let ctx, m, mc, s, sc = masked_and_reference_arms rels (fixed_coster ()) in
      let masked = Selinger.optimize_masked m ctx in
      let reference = Selinger.optimize_reference s schema rels in
      Alcotest.(check bool) (name ^ ": same plan and cost") true (masked = reference);
      Alcotest.(check int) (name ^ ": same invocations") (sc ()) (mc ()))
    Tpch.evaluation_queries

let test_masked_dpsub_bit_identical () =
  List.iter
    (fun (name, rels) ->
      let ctx, m, mc, s, sc = masked_and_reference_arms rels (fixed_coster ()) in
      let masked = Dpsub.optimize_masked m ctx in
      let reference = Dpsub.optimize_reference s schema rels in
      Alcotest.(check bool) (name ^ ": same plan and cost") true (masked = reference);
      Alcotest.(check int) (name ^ ": same invocations") (sc ()) (mc ()))
    Tpch.evaluation_queries

let test_masked_randomized_bit_identical () =
  let ctx, m, mc, s, sc = masked_and_reference_arms Tpch.q2 (fixed_coster ()) in
  let masked = Randomized.optimize_masked (Rng.create 11) m ctx in
  let reference = Randomized.optimize (Rng.create 11) s schema Tpch.q2 in
  Alcotest.(check bool) "same plan and cost for one seed" true (masked = reference);
  Alcotest.(check int) "same invocations" (sc ()) (mc ())

let test_masked_raqo_coster_bit_identical () =
  (* Joint arms: each side gets its own (deterministic) resource planner. *)
  let ctx = Interned.make schema Tpch.q2 in
  let rp_masked = Raqo_resource.Resource_planner.create Conditions.default in
  let rp_string = Raqo_resource.Resource_planner.create Conditions.default in
  let masked =
    Selinger.optimize_masked (Coster.raqo_masked model ctx rp_masked) ctx
  in
  let reference = Selinger.optimize_reference (Coster.raqo model schema rp_string) schema Tpch.q2 in
  Alcotest.(check bool) "same joint plan and cost" true (masked = reference)

(* The memoized [Coster.raqo_masked] against the string coster on the mask
   seam, each on a fresh planner from [make]: plan and cost bits,
   evaluations, misses and invocations equal. Hits may only fall, and only
   under an exact-lookup cache; with the memo off they are equal too. *)
let check_memo_vs_string ~label ~model ~make ~memo schema rels =
  let ctx = Interned.make schema rels in
  let module K = Raqo_resource.Counters in
  List.iter
    (fun (planner, run) ->
      let arm coster_of =
        let rp = make () in
        let result = run (coster_of rp) ctx in
        let k = Raqo_resource.Resource_planner.counters rp in
        ( Option.map (fun (plan, cost) -> (plan, Int64.bits_of_float cost)) result,
          [ K.cost_evaluations k; K.cache_misses k; K.planner_invocations k ],
          K.cache_hits k )
      in
      let m_result, m_counts, m_hits = arm (Coster.raqo_masked model ctx) in
      let s_result, s_counts, s_hits = arm (fun rp -> Coster.of_strings ctx (Coster.raqo model schema rp)) in
      let what = Printf.sprintf "%s, %s, %d relations" label planner (List.length rels) in
      Alcotest.(check bool) (what ^ ": plan and cost bits") true (m_result = s_result);
      Alcotest.(check (list int)) (what ^ ": evaluations, misses, invocations") s_counts m_counts;
      if memo then
        Alcotest.(check bool) (Printf.sprintf "%s: hits %d <= %d" what m_hits s_hits) true
          (m_hits <= s_hits)
      else Alcotest.(check int) (what ^ ": hits") s_hits m_hits)
    [
      ("selinger", Selinger.optimize_masked);
      ("dpsub", Dpsub.optimize_masked);
      ("randomized", fun m ctx -> Randomized.optimize_masked (Rng.create 11) m ctx);
    ]

let test_raqo_memo_matches_string_coster () =
  let module Rp = Raqo_resource.Resource_planner in
  let catalog = Lazy.force big_catalog in
  let walks =
    List.map
      (fun (n, seed) ->
        Raqo_catalog.Random_schema.query (Rng.create seed) catalog ~joins:(n - 1))
      [ (12, 4); (17, 5) ]
  in
  List.iter
    (fun (label, make, memo) ->
      List.iter
        (fun (_, rels) -> check_memo_vs_string ~label ~model ~make ~memo schema rels)
        Tpch.evaluation_queries;
      List.iter
        (check_memo_vs_string ~label ~model:(Raqo.Models.hive ()) ~make ~memo catalog)
        walks)
    [
      ("default", (fun () -> Rp.create Conditions.default), true);
      ("cache off", (fun () -> Rp.create ~cache:false Conditions.default), false);
      ( "nearest neighbour",
        (fun () -> Rp.create ~lookup:(Raqo_resource.Plan_cache.Nearest_neighbor 0.5) Conditions.default),
        false );
    ]

(* Two relations of one size: [Float.min] returns the right side's size on
   a tie, and the memo answers at that size in either argument order. *)
let test_raqo_memo_equal_sizes () =
  let region = Schema.find schema "region" in
  let equal = Schema.with_relation schema { region with Raqo_catalog.Relation.name = "nation" } in
  let ctx = Interned.make equal [ "region"; "nation" ] in
  let a = Interned.mask_of_name ctx "region" and b = Interned.mask_of_name ctx "nation" in
  Alcotest.(check bool) "equal sizes" true
    (Interned.join_size_gb ctx a = Interned.join_size_gb ctx b);
  let fresh () = Raqo_resource.Resource_planner.create Conditions.default in
  let memo = Coster.raqo_masked model ctx (fresh ()) in
  let reference = Coster.of_strings ctx (Coster.raqo model equal (fresh ())) in
  List.iter
    (fun (left, right) ->
      let got = memo.Coster.best_join_masked ~left ~right in
      Alcotest.(check bool) "answer equals the string coster's" true
        (got = reference.Coster.best_join_masked ~left ~right);
      Alcotest.(check bool) "answer is the choice at the smaller size" true
        (got
        = Coster.best_choice model (fresh ())
            ~small_gb:(Float.min (Interned.join_size_gb ctx left) (Interned.join_size_gb ctx right))))
    [ (a, b); (b, a); (a, b); (b, a) ]

(* A repeated build side is two table probes: no cache key, no answer. *)
let test_raqo_memo_hit_allocates_nothing () =
  let ctx = Interned.make schema Tpch.q3 in
  let m = Coster.raqo_masked model ctx (Raqo_resource.Resource_planner.create Conditions.default) in
  let left = Interned.mask_of_name ctx "customer" and right = Interned.mask_of_name ctx "orders" in
  ignore (Sys.opaque_identity (m.Coster.best_join_masked ~left ~right));
  let w0 = Gc.minor_words () in
  let r = m.Coster.best_join_masked ~left ~right in
  let w = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity r);
  Alcotest.(check (float 0.0)) "minor words of a memo hit" 0.0 w

let test_masked_public_entry_points_agree () =
  (* The public string API now runs on the mask core; spot-check it against
     the kept reference implementations. *)
  List.iter
    (fun (name, rels) ->
      let coster = fixed_coster () in
      Alcotest.(check bool)
        (name ^ ": Selinger public = reference")
        true
        (Selinger.optimize coster schema rels = Selinger.optimize_reference coster schema rels);
      Alcotest.(check bool)
        (name ^ ": Dpsub public = reference")
        true
        (Dpsub.optimize coster schema rels = Dpsub.optimize_reference coster schema rels))
    Tpch.evaluation_queries

let test_masked_caps_preserved () =
  let rng = Rng.create 123 in
  let big = Raqo_catalog.Random_schema.generate rng ~tables:21 in
  let ctx = Interned.make big (Schema.relation_names big) in
  let m = Coster.of_strings ctx (Coster.fixed model big fixed_res) in
  Alcotest.check_raises "selinger cap"
    (Invalid_argument "Selinger.optimize: too many relations for exhaustive DP") (fun () ->
      ignore (Selinger.optimize_masked m ctx));
  Alcotest.check_raises "dpsub cap"
    (Invalid_argument "Dpsub.optimize: too many relations for bushy DP") (fun () ->
      ignore (Dpsub.optimize_masked m ctx))

let prop_masked_selinger_matches_reference =
  QCheck.Test.make ~name:"masked Selinger = string reference on random schemas" ~count:25
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let s = Raqo_catalog.Random_schema.generate rng ~tables:6 in
      let rels = Schema.relation_names s in
      let ctx = Interned.make s rels in
      let base = Coster.fixed model s fixed_res in
      let m, mc = Coster.counting_masked (Coster.of_strings ctx base) in
      let str, sc = Coster.counting base in
      Selinger.optimize_masked m ctx = Selinger.optimize_reference str s rels
      && mc () = sc ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "raqo_planner"
    [
      ( "coster",
        [
          Alcotest.test_case "fixed picks cheaper impl" `Quick test_fixed_coster_picks_cheaper_impl;
          Alcotest.test_case "fixed keeps resources fixed" `Quick
            test_fixed_coster_resources_are_fixed;
          Alcotest.test_case "raqo coster feasible" `Quick test_raqo_coster_never_worse_than_fixed;
          Alcotest.test_case "cost_tree sums joins" `Quick test_cost_tree_sums_joins;
          Alcotest.test_case "cost_tree None on infeasible" `Quick test_cost_tree_infeasible_none;
          Alcotest.test_case "shape_of strips annotations" `Quick test_shape_of_strips;
        ] );
      ( "selinger",
        [
          Alcotest.test_case "single relation" `Quick test_selinger_single_relation;
          Alcotest.test_case "valid left-deep plans on TPC-H" `Quick
            test_selinger_produces_valid_left_deep;
          Alcotest.test_case "matches the left-deep oracle" `Quick
            test_selinger_matches_exhaustive_left_deep_oracle;
          Alcotest.test_case "avoids cartesian products" `Quick test_selinger_avoids_cartesian;
          Alcotest.test_case "input validation" `Quick test_selinger_rejects_empty_and_unknown;
          Alcotest.test_case "None when coster rejects all" `Quick
            test_selinger_none_when_all_infeasible;
          Alcotest.test_case "simulator-coster consistency" `Quick
            test_selinger_with_simulator_coster;
        ]
        @ qsuite [ prop_selinger_never_worse_than_greedy ] );
      ( "randomized",
        [
          Alcotest.test_case "random shapes valid" `Quick test_random_shape_valid;
          Alcotest.test_case "random shapes cartesian-free" `Quick test_random_shape_no_cartesian;
          Alcotest.test_case "mutations preserve validity" `Quick test_mutate_preserves_validity;
          Alcotest.test_case "close to Selinger on Q3" `Quick test_randomized_close_to_selinger;
          Alcotest.test_case "deterministic per seed" `Quick test_randomized_deterministic_for_seed;
          Alcotest.test_case "one local optimum per restart" `Quick test_local_optima_count;
          Alcotest.test_case "rejects empty input" `Quick test_randomized_rejects_empty;
          Alcotest.test_case "graph check = reference, random 2-100 relations" `Quick
            test_validity_matches_reference_random;
          Alcotest.test_case "graph check = reference, TPC-H" `Quick
            test_validity_matches_reference_tpch;
          Alcotest.test_case "graph check rejects" `Quick test_validity_rejects;
          Alcotest.test_case "join-large plans pinned" `Quick test_randomized_join_large_pinned;
        ]
        @ qsuite [ prop_randomized_plans_valid ] );
      ( "dpsub",
        [
          Alcotest.test_case "DPsub call sequence = the submask loop" `Quick
            test_dpsub_call_sequence;
          Alcotest.test_case "equals the exhaustive oracle" `Quick test_dpsub_matches_exhaustive;
          Alcotest.test_case "never worse than Selinger" `Quick test_dpsub_not_worse_than_selinger;
          Alcotest.test_case "valid joint plans" `Quick test_dpsub_valid_plans;
          Alcotest.test_case "join-large DP plans pinned" `Quick test_dp_join_large_pinned;
          Alcotest.test_case "single relation" `Quick test_dpsub_single_relation;
          Alcotest.test_case "disconnected query" `Quick test_dpsub_disconnected_is_none;
          Alcotest.test_case "rejects oversize inputs" `Quick test_dpsub_rejects_oversize;
        ]
        @ qsuite [ prop_dpsub_below_randomized ] );
      ( "exhaustive",
        [
          Alcotest.test_case "shape count on a 3-chain" `Quick test_exhaustive_counts_q3;
          Alcotest.test_case "oracle <= Selinger" `Quick test_exhaustive_optimize_not_above_selinger;
          Alcotest.test_case "rejects oversize inputs" `Quick test_exhaustive_rejects_oversize;
        ] );
      ( "interned",
        [
          Alcotest.test_case "ids and masks round-trip" `Quick test_interned_roundtrip;
          Alcotest.test_case "adjacency matches the join graph" `Quick
            test_interned_adjacency_matches_graph;
          Alcotest.test_case "connectivity matches the join graph" `Quick
            test_interned_connected_matches_graph;
          Alcotest.test_case "input validation" `Quick test_interned_validation;
          Alcotest.test_case "join sizes: 62 relations, duplicates, disconnected" `Quick
            test_interned_join_size_edge_cases;
          Alcotest.test_case "fold_splits matches the inline loop" `Quick
            test_interned_fold_splits;
          Alcotest.test_case "masked Selinger bit-identical" `Quick
            test_masked_selinger_bit_identical;
          Alcotest.test_case "masked DPsub bit-identical" `Quick test_masked_dpsub_bit_identical;
          Alcotest.test_case "masked randomized bit-identical" `Quick
            test_masked_randomized_bit_identical;
          Alcotest.test_case "masked RAQO coster bit-identical" `Quick
            test_masked_raqo_coster_bit_identical;
          Alcotest.test_case "RAQO memo = string coster" `Quick
            test_raqo_memo_matches_string_coster;
          Alcotest.test_case "RAQO memo on equal sizes" `Quick test_raqo_memo_equal_sizes;
          Alcotest.test_case "RAQO memo hit allocates nothing" `Quick
            test_raqo_memo_hit_allocates_nothing;
          Alcotest.test_case "public entry points = references" `Quick
            test_masked_public_entry_points_agree;
          Alcotest.test_case "relation caps preserved" `Quick test_masked_caps_preserved;
        ]
        @ qsuite [ prop_masked_selinger_matches_reference; prop_interned_join_size_bitwise ] );
      ( "heuristics",
        [
          Alcotest.test_case "greedy left-deep is valid" `Quick test_greedy_left_deep_valid;
          Alcotest.test_case "greedy starts at the smallest table" `Quick
            test_greedy_starts_smallest;
          Alcotest.test_case "default plan uses the stock rule" `Quick
            test_default_plan_uses_stock_rule;
        ] );
    ]
