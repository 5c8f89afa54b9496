(* Tests for Raqo_alloc: response surfaces must be monotone and agree with
   the scalar cost model, the exact Pareto DP must produce a sound frontier
   that covers both the equal-split baseline and the randomized search, and
   the whole pipeline must be deterministic under a fixed seed. *)

module Oracle = Raqo_verify.Oracle
module Coster = Raqo_planner.Coster
module Selinger = Raqo_planner.Selinger
module Surface = Raqo_alloc.Surface
module Allocator = Raqo_alloc.Allocator
module Workload = Raqo_alloc.Workload
module Pricing = Raqo_cluster.Pricing
module Rng = Raqo_util.Rng

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* Surfaces from independent deterministic instances: the allocator is
   planner-agnostic, so queries drawn from different schemas mix freely. *)
let surface_of ?use_kernel seed =
  let inst = Oracle.instance seed in
  let coster = Coster.fixed Oracle.model inst.Oracle.schema Oracle.fixed_resources in
  match Selinger.optimize coster inst.Oracle.schema inst.Oracle.relations with
  | Some (plan, _cost) ->
      Surface.build ?use_kernel ~model:Oracle.model ~conditions:Oracle.conditions
        ~schema:inst.Oracle.schema
        ~name:(Printf.sprintf "q%d" seed)
        plan
  | None -> Alcotest.fail (Printf.sprintf "no joint plan for instance %d" seed)

let workload () =
  [|
    Allocator.query ~name:"a" (surface_of 5);
    Allocator.query ~tenant:"gold" ~weight:2.0 ~arrival:5.0 ~name:"b" (surface_of 6);
    Allocator.query ~tenant:"bronze" ~slo:0.05 ~name:"c" (surface_of 7);
  |]

let budget_for qs =
  Array.fold_left (fun acc (q : Allocator.query) -> acc + Surface.max_cap q.surface) 0 qs

let min_budget_for qs =
  Array.fold_left (fun acc (q : Allocator.query) -> acc + Surface.min_cap q.surface) 0 qs

(* -------------------------------------------------------------- surfaces *)

let test_surface_monotone () =
  let s = surface_of 5 in
  let caps = Surface.caps s in
  let lats = Surface.latencies s in
  Alcotest.(check int) "curves aligned" (Array.length caps) (Array.length lats);
  Alcotest.(check bool) "grid nonempty" true (Array.length caps > 0);
  for i = 1 to Array.length caps - 1 do
    Alcotest.(check bool) "caps ascending" true (caps.(i - 1) < caps.(i));
    Alcotest.(check bool) "latency nonincreasing" true (lats.(i) <= lats.(i - 1))
  done;
  Array.iter
    (fun gbs -> Alcotest.(check bool) "usage positive" true (gbs > 0.0))
    (Surface.gb_seconds_curve s)

let test_surface_lookup () =
  let s = surface_of 5 in
  let caps = Surface.caps s in
  let lats = Surface.latencies s in
  check_float "max cap hits last grid point"
    lats.(Array.length lats - 1)
    (Surface.latency_at s (Surface.max_cap s));
  check_float "above the grid clamps to max"
    lats.(Array.length lats - 1)
    (Surface.latency_at s (Surface.max_cap s + 1000));
  Alcotest.(check bool) "below the grid is infeasible" true
    (Surface.latency_at s (Surface.min_cap s - 1) = infinity);
  Alcotest.(check int) "cap_floor rounds down onto the grid" caps.(0)
    (Surface.cap_floor s (caps.(0) + Surface.cap_step s - 1))

let test_surface_preferred_cap () =
  let s = surface_of 5 in
  let best = Array.fold_left min infinity (Surface.latencies s) in
  let p = Surface.preferred_cap s in
  check_float "preferred cap achieves the best latency" best (Surface.latency_at s p);
  if p > Surface.min_cap s then
    Alcotest.(check bool) "no smaller cap does" true
      (Surface.latency_at s (p - Surface.cap_step s) > best)

let test_surface_kernel_matches_scalar () =
  (* The compiled kernel sweep and the scalar sweep must choose identical
     curves — same differential guarantee the oracle enforces. *)
  let k = surface_of ~use_kernel:true 5 and s = surface_of ~use_kernel:false 5 in
  let lk = Surface.latencies k and ls = Surface.latencies s in
  Alcotest.(check int) "same grid" (Array.length lk) (Array.length ls);
  Array.iteri (fun i l -> check_float ~eps:1e-6 "latency agrees" l lk.(i)) ls;
  Array.iteri
    (fun i g -> check_float ~eps:1e-6 "usage agrees" g (Surface.gb_seconds_curve k).(i))
    (Surface.gb_seconds_curve s)

(* ------------------------------------------------------ query validation *)

let test_query_validation () =
  let s = surface_of 5 in
  Alcotest.check_raises "nonpositive weight"
    (Invalid_argument "Allocator.query: weight must be positive") (fun () ->
      ignore (Allocator.query ~weight:0.0 ~name:"w" s));
  Alcotest.check_raises "negative arrival"
    (Invalid_argument "Allocator.query: arrival must be >= 0") (fun () ->
      ignore (Allocator.query ~arrival:(-1.0) ~name:"a" s));
  Alcotest.check_raises "nonpositive slo"
    (Invalid_argument "Allocator.query: slo must be positive") (fun () ->
      ignore (Allocator.query ~slo:0.0 ~name:"s" s));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Allocator.evaluate: allocation arity mismatch") (fun () ->
      ignore (Allocator.evaluate (workload ()) [| 1 |]))

(* -------------------------------------------------------------- frontier *)

let sound_frontier budget (points : Allocator.point list) =
  let rec sorted = function
    | (a : Allocator.point) :: (b :: _ as rest) ->
        a.makespan <= b.makespan && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "frontier sorted by makespan" true (sorted points);
  List.iter
    (fun (p : Allocator.point) ->
      Alcotest.(check bool) "allocation within budget" true
        (Array.fold_left ( + ) 0 p.alloc <= budget))
    points;
  List.iter
    (fun p ->
      Alcotest.(check bool) "mutually non-dominated" true
        (not (List.exists (fun q -> q != p && Allocator.dominates q p) points)))
    points

let test_exact_frontier_sound () =
  let qs = workload () in
  let budget = budget_for qs in
  match Allocator.exact ~budget ~fairness:0.0 qs with
  | None -> Alcotest.fail "exact DP overflowed on a 3-query workload"
  | Some o ->
      Alcotest.(check bool) "ran exact" true (o.mode = Allocator.Exact);
      Alcotest.(check bool) "frontier nonempty" true (o.frontier <> []);
      sound_frontier budget o.frontier;
      Alcotest.(check bool) "frontier covers the equal split" true
        (List.exists (fun p -> Allocator.covers p o.equal_split) o.frontier)

let test_randomized_never_worse_than_equal_split () =
  let qs = workload () in
  let budget = budget_for qs in
  let o = Allocator.randomized ~seed:11 ~budget ~fairness:0.5 qs in
  sound_frontier budget o.frontier;
  match o.frontier with
  | best :: _ ->
      Alcotest.(check bool) "best makespan <= equal split" true
        (best.makespan <= o.equal_split.makespan)
  | [] -> Alcotest.fail "randomized frontier empty"

let test_exact_covers_randomized () =
  (* The differential property check_alloc fuzzes: every point the local
     search reaches is dominated-or-equalled by the exact frontier. *)
  let qs = workload () in
  let budget = budget_for qs in
  let r = Allocator.randomized ~seed:23 ~budget ~fairness:0.0 qs in
  match Allocator.exact ~budget ~fairness:0.0 qs with
  | None -> Alcotest.fail "exact DP overflowed"
  | Some e ->
      List.iter
        (fun rp ->
          Alcotest.(check bool) "exact covers randomized point" true
            (List.exists (fun ep -> Allocator.covers ep rp) e.frontier))
        r.frontier

let test_search_deterministic () =
  let qs = workload () in
  let budget = budget_for qs in
  let run () = Allocator.search ~seed:19 ~budget ~fairness:0.25 qs in
  Alcotest.(check bool) "same seed, same outcome" true (run () = run ());
  let forced = Allocator.search ~want:Allocator.Want_randomized ~seed:19 ~budget ~fairness:0.25 qs in
  Alcotest.(check bool) "forced randomized runs randomized" true
    (forced.mode = Allocator.Randomized)

(* ----------------------------------------------------- fairness + pricing *)

let test_fairness_floors () =
  let qs = workload () in
  let budget = budget_for qs in
  let zero = Allocator.floors ~budget ~fairness:0.0 qs in
  Array.iteri
    (fun i f ->
      Alcotest.(check int) "fairness 0 floors at the grid minimum"
        (Surface.min_cap qs.(i).Allocator.surface) f)
    zero;
  let full = Allocator.floors ~budget ~fairness:1.0 qs in
  Alcotest.(check bool) "full fairness still fits the budget" true
    (Array.fold_left ( + ) 0 full <= budget);
  Alcotest.(check bool) "heavier tenants get higher floors" true
    (full.(1) >= full.(0));
  Alcotest.check_raises "infeasible floors rejected"
    (Invalid_argument "Allocator: budget below the minimum per-query allocations")
    (fun () ->
      ignore (Allocator.floors ~budget:(min_budget_for qs - 1) ~fairness:0.0 qs))

let test_spot_pricing_scales_dollars () =
  let qs = workload () in
  let alloc = Array.map (fun (q : Allocator.query) -> Surface.min_cap q.surface) qs in
  let flat = Allocator.evaluate qs alloc in
  let doubled =
    Allocator.evaluate ~pricing:(Pricing.spot ~swings:[ (0.0, 2.0) ] Pricing.default) qs alloc
  in
  check_float ~eps:1e-9 "doubling the spot rate doubles dollars" (2.0 *. flat.dollars)
    doubled.dollars;
  check_float "makespan is pricing-independent" flat.makespan doubled.makespan;
  Alcotest.(check int) "violations are pricing-independent" flat.violations
    doubled.violations

let test_hypervolume () =
  let pt makespan dollars = { Allocator.alloc = [||]; makespan; dollars; violations = 0 } in
  check_float "single-point rectangle" 6.0
    (Allocator.hypervolume ~ref_makespan:4.0 ~ref_dollars:5.0 [ pt 2.0 2.0 ]);
  check_float "point at the reference corner contributes nothing" 0.0
    (Allocator.hypervolume ~ref_makespan:4.0 ~ref_dollars:5.0 [ pt 4.0 5.0 ]);
  let lone = Allocator.hypervolume ~ref_makespan:4.0 ~ref_dollars:5.0 [ pt 2.0 2.0 ] in
  let both = Allocator.hypervolume ~ref_makespan:4.0 ~ref_dollars:5.0 [ pt 2.0 2.0; pt 3.0 1.0 ] in
  Alcotest.(check bool) "adding a non-dominated point grows the volume" true (both > lone)

(* ------------------------------------------------------------- workloads *)

let test_tpch_workload_beats_independent () =
  (* Eight TPC-H members, two weighted tenants, heavy-tailed arrivals, a
     budget of 3 containers per member on a compact 16 x 6 GB grid. Both
     searches must beat independent per-query planning on dollars or
     makespan. *)
  let n = 8 and budget = 24 and fairness = 0.5 in
  let model = Raqo.Models.hive () in
  let conditions = Raqo_cluster.Conditions.make ~max_containers:16 ~max_gb:6.0 () in
  let schema = Raqo_catalog.Tpch.schema () in
  let evaluation = Array.of_list Raqo_catalog.Tpch.evaluation_queries in
  let arrivals = Workload.arrivals (Rng.create (41 + n)) ~n ~rate:0.02 ~capacity:budget in
  let specs =
    List.init n (fun i ->
        let qname, relations = evaluation.(i mod Array.length evaluation) in
        {
          Workload.name = Printf.sprintf "q%d:%s" (i + 1) qname;
          relations;
          tenant = Printf.sprintf "t%d" (i mod 2);
          weight = float_of_int (1 + (i mod 2));
          arrival = arrivals.(i);
          slo = None;
        })
  in
  let plan rels =
    let opt = Raqo.Cost_based.create ~model ~conditions schema in
    Option.map fst (Raqo.Cost_based.optimize opt rels)
  in
  let queries = Workload.queries ~model ~conditions ~schema ~plan specs in
  Alcotest.(check int) "every member planned" n (Array.length queries);
  let independent = Allocator.independent ~budget queries in
  List.iter
    (fun (want, mode, label) ->
      let outcome = Allocator.search ~want ~seed:23 ~budget ~fairness queries in
      Alcotest.(check string) (label ^ " ran") (Allocator.mode_name mode)
        (Allocator.mode_name outcome.mode);
      let best f = List.fold_left (fun acc p -> Float.min acc (f p)) infinity outcome.frontier in
      let dollars = best (fun (p : Allocator.point) -> p.dollars)
      and makespan = best (fun (p : Allocator.point) -> p.makespan) in
      if not (dollars < independent.dollars || makespan < independent.makespan) then
        Alcotest.failf "%s frontier (best $%g, %g s) does not beat independent ($%g, %g s)"
          label dollars makespan independent.dollars independent.makespan)
    [
      (Allocator.Want_exact, Allocator.Exact, "exact");
      (Allocator.Want_randomized, Allocator.Randomized, "randomized");
    ]

let test_workload_arrivals () =
  let draw seed = Workload.arrivals (Rng.create seed) ~n:6 ~rate:0.01 ~capacity:12 in
  let a = draw 3 in
  Alcotest.(check int) "count" 6 (Array.length a);
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) "nonnegative" true (t >= 0.0);
      if i > 0 then Alcotest.(check bool) "ascending" true (a.(i - 1) <= t))
    a;
  Alcotest.(check bool) "deterministic" true (draw 3 = draw 3)

let test_oracle_alloc_arm_clean () =
  let inst = Oracle.instance 13 in
  Alcotest.(check string) "check_alloc reports no violations" ""
    (Raqo_verify.Diagnostic.render (Oracle.check_alloc inst))

let () =
  Alcotest.run "raqo_alloc"
    [
      ( "surface",
        [
          Alcotest.test_case "monotone curves" `Quick test_surface_monotone;
          Alcotest.test_case "grid lookup" `Quick test_surface_lookup;
          Alcotest.test_case "preferred cap" `Quick test_surface_preferred_cap;
          Alcotest.test_case "kernel sweep matches scalar" `Quick
            test_surface_kernel_matches_scalar;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "rejects bad queries" `Quick test_query_validation;
          Alcotest.test_case "exact frontier is sound" `Quick test_exact_frontier_sound;
          Alcotest.test_case "randomized never worse than equal split" `Quick
            test_randomized_never_worse_than_equal_split;
          Alcotest.test_case "exact covers randomized" `Quick test_exact_covers_randomized;
          Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
          Alcotest.test_case "fairness floors" `Quick test_fairness_floors;
          Alcotest.test_case "spot pricing scales dollars" `Quick
            test_spot_pricing_scales_dollars;
          Alcotest.test_case "hypervolume" `Quick test_hypervolume;
        ] );
      ( "workload",
        [
          Alcotest.test_case "heavy-tailed arrivals" `Quick test_workload_arrivals;
          Alcotest.test_case "TPC-H members beat independent" `Quick
            test_tpch_workload_beats_independent;
          Alcotest.test_case "differential oracle arm clean" `Quick
            test_oracle_alloc_arm_clean;
        ] );
    ]
