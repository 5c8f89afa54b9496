(* The multicore planning layer: pool semantics (ordering, exceptions,
   nesting), atomic counters under contention, and the oracle tests pinning
   every parallel path to its sequential result. *)

module Pool = Raqo_par.Pool
module Counters = Raqo_resource.Counters
module Conditions = Raqo_cluster.Conditions
module Resources = Raqo_cluster.Resources
module Schema = Raqo_catalog.Schema
module Tpch = Raqo_catalog.Tpch
module Rng = Raqo_util.Rng

let pool_sizes = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ pool *)

let test_map_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let xs = List.init 100 (fun i -> i) in
          Alcotest.(check (list int))
            (Printf.sprintf "squares in order at %d jobs" jobs)
            (List.map (fun x -> x * x) xs)
            (Pool.parallel_map pool (fun x -> x * x) xs)))
    pool_sizes

let test_empty_and_single () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list int)) "empty batch" [] (Pool.parallel_map pool succ []);
      Alcotest.(check (list int)) "one task" [ 8 ] (Pool.parallel_map pool succ [ 7 ]))

exception Boom of int

let test_exception_propagation () =
  (* Every task runs to completion; the lowest-indexed failure is re-raised,
     independent of which domain hit its exception first. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let ran = Atomic.make 0 in
      let work i =
        Atomic.incr ran;
        if i = 2 || i = 5 then raise (Boom i) else i
      in
      (match Pool.parallel_map pool work (List.init 8 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest-indexed failure wins" 2 i);
      Alcotest.(check int) "the whole batch still ran" 8 (Atomic.get ran))

let test_pool_usable_after_exception () =
  (* A failed batch must not poison the pool: the same pool keeps serving
     full, ordered batches afterwards. A long-lived server pool relies on
     this when one request's planning raises. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      (match
         Pool.parallel_map pool
           (fun i -> if i = 4 then raise (Boom i) else i)
           (List.init 9 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "failure index" 4 i);
      let xs = List.init 20 Fun.id in
      Alcotest.(check (list int)) "pool still serves batches" (List.map succ xs)
        (Pool.parallel_map pool succ xs))

let test_nested_use () =
  (* A task submitting its own batch to the same pool must not deadlock: the
     submitter helps drain the queue while it waits. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let outer =
            Pool.parallel_map pool
              (fun i ->
                List.fold_left ( + ) 0
                  (Pool.parallel_map pool (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
              [ 1; 2; 3; 4 ]
          in
          Alcotest.(check (list int))
            (Printf.sprintf "nested batches at %d jobs" jobs)
            [ 36; 66; 96; 126 ] outer))
    pool_sizes

let test_use_after_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.run_list: pool is shut down") (fun () ->
      ignore (Pool.parallel_map pool succ [ 1; 2 ]))

(* -------------------------------------------------------------- counters *)

let test_counters_concurrent () =
  (* Many domains hammering one shared Counters.t must lose no increments. *)
  let k = Counters.create () in
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Pool.parallel_map pool
           (fun _ ->
             for _ = 1 to 100 do
               Counters.record_evaluation k
             done;
             Counters.record_hit k;
             Counters.record_miss k;
             Counters.record_invocation k)
           (List.init 64 (fun i -> i))));
  Alcotest.(check int) "no lost evaluation increments" 6400 (Counters.cost_evaluations k);
  Alcotest.(check int) "hits" 64 (Counters.cache_hits k);
  Alcotest.(check int) "misses" 64 (Counters.cache_misses k);
  Alcotest.(check int) "invocations" 64 (Counters.planner_invocations k)

(* --------------------------------------------------- oracle: randomized *)

let model = Raqo.Models.hive ()
let tpch = Tpch.schema ()

let joint_opt =
  Alcotest.testable
    (fun fmt -> function
      | Some (plan, cost) ->
          Format.fprintf fmt "%a @ %g" Raqo_plan.Join_tree.pp_joint plan cost
      | None -> Format.fprintf fmt "none")
    (fun a b ->
      match (a, b) with
      | Some (p1, c1), Some (p2, c2) ->
          c1 = c2
          && Raqo_plan.Join_tree.equal_shape (fun _ _ -> true) (Raqo_planner.Coster.shape_of p1)
               (Raqo_planner.Coster.shape_of p2)
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let test_randomized_par_matches_seq () =
  (* Same seed, any pool size: bit-identical result. The coster factory hands
     each restart a fresh (pure) instance. *)
  let resources = Resources.make ~containers:10 ~container_gb:5.0 in
  let coster () = Raqo_planner.Coster.fixed model tpch resources in
  let seq = Raqo_planner.Randomized.optimize (Rng.create 42) (coster ()) tpch Tpch.all in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let par =
            Raqo_planner.Randomized.optimize_par pool (Rng.create 42) ~coster tpch Tpch.all
          in
          Alcotest.check joint_opt
            (Printf.sprintf "optimize_par == optimize at %d jobs" jobs)
            seq par))
    pool_sizes

let test_cost_based_par_matches_seq () =
  (* The full cost-based stack: parallel restarts plan resources against
     private exact-lookup caches, which return exactly what a fresh search
     would — so equal-seed optimizers agree at any --jobs. *)
  let mk () =
    Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized ~seed:7 ~model
      ~conditions:Conditions.default tpch
  in
  let seq = Raqo.Cost_based.optimize (mk ()) Tpch.q3 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check joint_opt
            (Printf.sprintf "Cost_based.optimize_par at %d jobs" jobs)
            seq
            (Raqo.Cost_based.optimize_par (mk ()) pool Tpch.q3)))
    pool_sizes

let test_randomized_vs_exhaustive () =
  (* On a query small enough for the exact bushy DP, no randomized variant —
     sequential or pooled — may beat the exhaustive optimum, and all
     must agree with each other. *)
  let resources = Resources.make ~containers:10 ~container_gb:5.0 in
  let coster () = Raqo_planner.Coster.fixed model tpch resources in
  let rels = Tpch.all in
  Alcotest.(check bool) "query small enough for DPsub" true (List.length rels <= 8);
  let exact =
    match Raqo_planner.Dpsub.optimize (coster ()) tpch rels with
    | Some (_, c) -> c
    | None -> Alcotest.fail "exhaustive DP found no plan"
  in
  let seq = Raqo_planner.Randomized.optimize (Rng.create 3) (coster ()) tpch rels in
  (match seq with
  | Some (_, c) ->
      Alcotest.(check bool) "randomized >= exhaustive optimum" true (c >= exact -. 1e-9)
  | None -> Alcotest.fail "randomized found no plan");
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check joint_opt "pooled matches sequential" seq
        (Raqo_planner.Randomized.optimize_par pool (Rng.create 3) ~coster tpch rels))

let () =
  Alcotest.run "raqo_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "empty and single batches" `Quick test_empty_and_single;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "usable after a failed batch" `Quick
            test_pool_usable_after_exception;
          Alcotest.test_case "nested use" `Quick test_nested_use;
          Alcotest.test_case "use after shutdown" `Quick test_use_after_shutdown;
        ] );
      ( "counters",
        [ Alcotest.test_case "atomic under contention" `Quick test_counters_concurrent ] );
      ( "oracles",
        [
          Alcotest.test_case "randomized par == seq" `Quick test_randomized_par_matches_seq;
          Alcotest.test_case "cost-based par == seq" `Quick test_cost_based_par_matches_seq;
          Alcotest.test_case "randomized vs exhaustive" `Quick test_randomized_vs_exhaustive;
        ] );
    ]
