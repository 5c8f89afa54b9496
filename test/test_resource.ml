(* Tests for Raqo_resource: brute force, hill climbing (Algorithm 1), the
   resource-plan cache, and the orchestrating resource planner. *)

module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions
module Counters = Raqo_resource.Counters
module Brute_force = Raqo_resource.Brute_force
module Hill_climb = Raqo_resource.Hill_climb
module Plan_cache = Raqo_resource.Plan_cache
module Resource_planner = Raqo_resource.Resource_planner

let res nc gb = Resources.make ~containers:nc ~container_gb:gb

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Same configuration, same cost bits. *)
let same_answer (ra, ca) (rb, cb) =
  Resources.equal ra rb && Int64.equal (Int64.bits_of_float ca) (Int64.bits_of_float cb)

(* A smooth convex bowl with minimum at (nc_opt, gb_opt): hill climbing must
   find the exact brute-force optimum on it. *)
let bowl ~nc_opt ~gb_opt (r : Resources.t) =
  let dn = float_of_int (r.containers - nc_opt) in
  let dg = r.container_gb -. gb_opt in
  (dn *. dn) +. (10.0 *. dg *. dg)

(* ----------------------------------------------------------- Brute force *)

let test_brute_force_finds_minimum () =
  let c = Conditions.default in
  let best, cost = Brute_force.search c (bowl ~nc_opt:37 ~gb_opt:6.0) in
  Alcotest.(check int) "containers" 37 best.Resources.containers;
  check_float "memory" 6.0 best.Resources.container_gb;
  check_float "cost" 0.0 cost

let test_brute_force_counts_every_config () =
  let c = Conditions.default in
  let k = Counters.create () in
  let _ = Brute_force.search ~counters:k c (bowl ~nc_opt:1 ~gb_opt:1.0) in
  Alcotest.(check int) "explored all 1000" 1000 (Counters.cost_evaluations k);
  Alcotest.(check int) "one invocation" 1 (Counters.planner_invocations k)

let test_brute_force_tie_break_stable () =
  (* Constant surface: returns the first enumerated config. *)
  let c = Conditions.default in
  let best, _ = Brute_force.search c (fun _ -> 1.0) in
  Alcotest.(check int) "min containers" 1 best.Resources.containers;
  check_float "min memory" 1.0 best.Resources.container_gb

(* ------------------------------------------------ operator cost surfaces *)

module Op_cost = Raqo_cost.Op_cost
module Join_impl = Raqo_plan.Join_impl

let model = Op_cost.with_floor 0.01 Op_cost.paper
let op_cost impl ~small_gb r = Op_cost.predict_exn model impl ~small_gb ~resources:r

let test_hill_climb_convex_exact () =
  let c = Conditions.default in
  let best, cost = Hill_climb.plan c (bowl ~nc_opt:37 ~gb_opt:6.0) in
  Alcotest.(check int) "containers" 37 best.Resources.containers;
  check_float "memory" 6.0 best.Resources.container_gb;
  check_float "cost" 0.0 cost

let test_hill_climb_explores_fewer_than_brute_force () =
  let c = Conditions.default in
  let kb = Counters.create () and kh = Counters.create () in
  let _ = Brute_force.search ~counters:kb c (bowl ~nc_opt:80 ~gb_opt:9.0) in
  let _ = Hill_climb.plan ~counters:kh c (bowl ~nc_opt:80 ~gb_opt:9.0) in
  Alcotest.(check bool)
    (Printf.sprintf "HC %d < BF %d" (Counters.cost_evaluations kh)
       (Counters.cost_evaluations kb))
    true
    (Counters.cost_evaluations kh < Counters.cost_evaluations kb)

let test_hill_climb_starts_at_minimum_config () =
  (* A monotone increasing surface keeps the climb at the start point. *)
  let c = Conditions.default in
  let best, _ = Hill_climb.plan c (fun r -> Resources.total_gb r) in
  Alcotest.(check int) "stays at min containers" 1 best.Resources.containers;
  check_float "stays at min memory" 1.0 best.Resources.container_gb

let test_hill_climb_custom_start () =
  let c = Conditions.default in
  let best, _ =
    Hill_climb.plan ~start:(res 50 5.0) c (fun r -> Resources.total_gb r)
  in
  (* Decreasing from (50,5): walks all the way down. *)
  Alcotest.(check int) "walks down containers" 1 best.Resources.containers;
  check_float "walks down memory" 1.0 best.Resources.container_gb

let test_hill_climb_start_clamped () =
  let c = Conditions.make ~max_containers:10 ~max_gb:4.0 () in
  let best, _ = Hill_climb.plan ~start:(res 5000 50.0) c (fun r -> Resources.total_gb r) in
  Alcotest.(check bool) "within bounds" true (Conditions.contains c best)

let test_hill_climb_respects_bounds () =
  (* Minimum outside the box: the climb saturates at the boundary. *)
  let c = Conditions.make ~max_containers:10 ~max_gb:4.0 () in
  let best, _ = Hill_climb.plan c (bowl ~nc_opt:50 ~gb_opt:9.0) in
  Alcotest.(check int) "saturates containers" 10 best.Resources.containers;
  check_float "saturates memory" 4.0 best.Resources.container_gb

let test_hill_climb_local_optimum_on_infinite_plateau () =
  (* Infeasible (infinite) surface everywhere: terminates at the start. *)
  let c = Conditions.default in
  let best, cost = Hill_climb.plan c (fun _ -> Float.infinity) in
  Alcotest.(check int) "start point" 1 best.Resources.containers;
  Alcotest.(check bool) "infinite cost reported" true (cost = Float.infinity)

let prop_hill_climb_result_within_conditions =
  QCheck.Test.make ~name:"hill climb stays within cluster conditions" ~count:100
    QCheck.(triple (int_range 1 80) (int_range 1 10) (int_range 0 1000))
    (fun (nc_opt, gb_opt, seed) ->
      ignore seed;
      let c = Conditions.default in
      let best, _ = Hill_climb.plan c (bowl ~nc_opt ~gb_opt:(float_of_int gb_opt)) in
      Conditions.contains c best)

let prop_hill_climb_is_local_optimum =
  QCheck.Test.make ~name:"hill climb result is a 1-step local optimum" ~count:100
    QCheck.(pair (int_range 1 100) (int_range 1 10))
    (fun (nc_opt, gb_opt) ->
      let c = Conditions.default in
      let f = bowl ~nc_opt ~gb_opt:(float_of_int gb_opt) in
      let best, cost = Hill_climb.plan c f in
      let neighbors =
        List.filter_map
          (fun (dn, dg) ->
            let nc = best.Resources.containers + dn in
            let gb = best.Resources.container_gb +. dg in
            if nc >= 1 && nc <= 100 && gb >= 1.0 && gb <= 10.0 then
              Some (res nc gb)
            else None)
          [ (1, 0.0); (-1, 0.0); (0, 1.0); (0, -1.0) ]
      in
      List.for_all (fun n -> f n >= cost -. 1e-9) neighbors)

let prop_hill_climb_never_beats_brute_force =
  QCheck.Test.make ~name:"brute force <= hill climb on arbitrary surfaces" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      (* A deterministic pseudo-random (non-convex) surface. *)
      let f (r : Resources.t) =
        let h =
          (r.containers * 2654435761) + (int_of_float r.container_gb * 40503) + seed
        in
        float_of_int (h land 0xFFFF)
      in
      let c = Conditions.make ~max_containers:20 ~max_gb:5.0 () in
      let _, bf = Brute_force.search c f in
      let _, hc = Hill_climb.plan c f in
      bf <= hc +. 1e-9)

(* ------------------------------------------------------------ Plan cache *)

(* Cache keys compare their model and conditions with [==]: a second
   conditions value, even an equal one, makes another key. *)
let key_of ?(conditions = Conditions.default) impl = { Plan_cache.model; conditions; impl }
let smj = key_of Join_impl.Smj
let bhj = key_of Join_impl.Bhj

let test_cache_exact_hit_miss () =
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:3.0 (res 10 2.0);
  (match Plan_cache.find cache ~key:smj ~data_gb:3.0 Plan_cache.Exact with
  | Some r -> Alcotest.(check int) "hit" 10 r.Resources.containers
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "miss on other size" true
    (Plan_cache.find cache ~key:smj ~data_gb:3.1 Plan_cache.Exact = None);
  Alcotest.(check bool) "miss on other key" true
    (Plan_cache.find cache ~key:bhj ~data_gb:3.0 Plan_cache.Exact = None)

let test_cache_overwrite () =
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 9 9.0);
  (match Plan_cache.find cache ~key:smj ~data_gb:1.0 Plan_cache.Exact with
  | Some r -> Alcotest.(check int) "overwritten" 9 r.Resources.containers
  | None -> Alcotest.fail "hit expected");
  Alcotest.(check int) "still one entry" 1 (Plan_cache.size cache)

let test_cache_nearest_neighbor () =
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 10 1.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:2.0 (res 20 2.0);
  (match Plan_cache.find cache ~key:smj ~data_gb:1.9 (Plan_cache.Nearest_neighbor 0.5) with
  | Some r -> Alcotest.(check int) "closest is 2.0" 20 r.Resources.containers
  | None -> Alcotest.fail "hit expected");
  Alcotest.(check bool) "outside threshold misses" true
    (Plan_cache.find cache ~key:smj ~data_gb:3.0 (Plan_cache.Nearest_neighbor 0.5) = None)

let test_cache_weighted_average () =
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 10 2.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:3.0 (res 30 4.0);
  match Plan_cache.find cache ~key:smj ~data_gb:2.0 (Plan_cache.Weighted_average 1.5) with
  | Some r ->
      (* Equidistant: plain average. *)
      Alcotest.(check int) "containers averaged" 20 r.Resources.containers;
      check_float "memory averaged" 3.0 r.Resources.container_gb
  | None -> Alcotest.fail "hit expected"

let test_cache_weighted_average_prefers_exact () =
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:2.0 (res 7 7.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:2.5 (res 9 9.0);
  match Plan_cache.find cache ~key:smj ~data_gb:2.0 (Plan_cache.Weighted_average 1.0) with
  | Some r -> Alcotest.(check int) "exact wins" 7 r.Resources.containers
  | None -> Alcotest.fail "hit expected"

let test_cache_weighted_average_epsilon_exact_guard () =
  (* Regression: a key within radius but only float-[=]-unequal to [data_gb]
     used to get inverse-distance weight 1/d with d a few ulps, swamping all
     other entries through a lossy blend. The epsilon guard must treat it as
     an exact hit and return it verbatim. *)
  let cache = Plan_cache.create () in
  let near_exact = Float.succ 2.0 in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:near_exact (res 8 4.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:2.5 (res 2 1.0);
  match Plan_cache.find cache ~key:smj ~data_gb:2.0 (Plan_cache.Weighted_average 1.0) with
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "near-exact entry returned verbatim (got %s)" (Resources.to_string r))
        true
        (Resources.equal r (res 8 4.0))
  | None -> Alcotest.fail "hit expected"

let test_cache_weighted_average_denormal_distance () =
  (* Regression: with an unguarded 1/d, a denormal distance overflows the
     weight to infinity and the average to nan, which [Resources.make]
     rejects — the lookup used to raise instead of answering. *)
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1e-310 (res 8 4.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:0.3 (res 2 1.0);
  match Plan_cache.find cache ~key:smj ~data_gb:0.0 (Plan_cache.Weighted_average 0.5) with
  | Some r -> Alcotest.(check bool) "near-exact entry wins" true (Resources.equal r (res 8 4.0))
  | None -> Alcotest.fail "hit expected"

let test_cache_resizes_past_initial_capacity () =
  let cache = Plan_cache.create () in
  for i = 1 to 100 do
    Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:(float_of_int i) (res i 1.0)
  done;
  Alcotest.(check int) "100 entries" 100 (Plan_cache.size cache);
  (* Every entry still findable after the resizes and shifting. *)
  for i = 1 to 100 do
    match Plan_cache.find cache ~key:smj ~data_gb:(float_of_int i) Plan_cache.Exact with
    | Some r -> Alcotest.(check int) "right plan" i r.Resources.containers
    | None -> Alcotest.failf "entry %d lost" i
  done

let test_cache_insert_random_order_stays_sorted () =
  let cache = Plan_cache.create () in
  let rng = Raqo_util.Rng.create 5 in
  let sizes = Array.init 50 (fun i -> float_of_int (i + 1)) in
  Raqo_util.Rng.shuffle rng sizes;
  Array.iter (fun s -> Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:s (res 1 1.0)) sizes;
  (* Nearest-neighbor across the whole range works iff ordering is intact. *)
  match Plan_cache.find cache ~key:smj ~data_gb:25.4 (Plan_cache.Nearest_neighbor 1.0) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected neighbor"

let test_cache_clear () =
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  Plan_cache.clear cache;
  Alcotest.(check int) "empty" 0 (Plan_cache.size cache)

let test_cache_counters () =
  let cache = Plan_cache.create () in
  let k = Counters.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  ignore (Plan_cache.find ~counters:k cache ~key:smj ~data_gb:1.0 Plan_cache.Exact);
  ignore (Plan_cache.find ~counters:k cache ~key:smj ~data_gb:9.0 Plan_cache.Exact);
  Alcotest.(check int) "one hit" 1 (Counters.cache_hits k);
  Alcotest.(check int) "one miss" 1 (Counters.cache_misses k)

let test_cache_key_identity () =
  (* Keys hold the model and the conditions by identity: a structurally
     equal copy of either only misses, and so does the other operator. *)
  let cache = Plan_cache.create () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 4 2.0);
  let miss key = Plan_cache.find cache ~key ~data_gb:1.0 Plan_cache.Exact = None in
  Alcotest.(check bool) "same key hits" false (miss smj);
  Alcotest.(check bool) "equal conditions copy misses" true
    (miss (key_of ~conditions:(Conditions.make ()) Join_impl.Smj));
  Alcotest.(check bool) "equal model copy misses" true
    (miss { smj with Plan_cache.model = { model with Op_cost.floor = model.Op_cost.floor } });
  Alcotest.(check bool) "other operator misses" true (miss bhj)

let prop_cache_wa_within_neighbor_hull =
  (* Weighted averages stay inside the bounding box of the neighbors they
     average. *)
  QCheck.Test.make ~name:"WA results lie within the neighbor hull" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 2 20) (int_range 1 100)) (int_range 1 100))
    (fun (entries, probe) ->
      let cache = Plan_cache.create () in
      List.iter
        (fun c ->
          Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:(float_of_int c)
            (res c (float_of_int (1 + (c mod 10)))))
        entries;
      let threshold = 10.0 in
      match
        Plan_cache.find cache ~key:smj ~data_gb:(float_of_int probe)
          (Plan_cache.Weighted_average threshold)
      with
      | None -> true
      | Some r ->
          let close =
            List.filter (fun c -> Float.abs (float_of_int (c - probe)) <= threshold) entries
          in
          let lo = List.fold_left min max_int close and hi = List.fold_left max 0 close in
          r.Resources.containers >= lo - 1 && r.Resources.containers <= hi + 1)

let prop_cache_nn_within_threshold =
  QCheck.Test.make ~name:"NN hits are within the threshold" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range 0.0 50.0)) (float_range 0.0 50.0))
    (fun (inserts, probe) ->
      let cache = Plan_cache.create () in
      List.iteri
        (fun i s -> Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:s (res (i + 1) 1.0))
        inserts;
      let threshold = 2.0 in
      match Plan_cache.find cache ~key:smj ~data_gb:probe (Plan_cache.Nearest_neighbor threshold) with
      | Some _ -> List.exists (fun s -> Float.abs (s -. probe) <= threshold) inserts
      | None -> not (List.exists (fun s -> Float.abs (s -. probe) <= threshold) inserts))

(* --------------------------------------------------------- Ordered_index *)

module Ordered_index = Raqo_resource.Ordered_index

let with_index f = f (Ordered_index.create ())

let test_index_stamps () =
  (* Stamps ride with their slot through shifting inserts and removals; an
     unstamped index reads every stamp as 0. *)
  let idx = Ordered_index.create ~stamped:true () in
  Alcotest.(check bool) "empty has no oldest" true (Ordered_index.oldest idx = None);
  Ordered_index.insert ~cost:0.0 ~stamp:5 idx 2.0 "b";
  Ordered_index.insert ~cost:0.0 ~stamp:7 idx 3.0 "c";
  Ordered_index.insert ~cost:0.0 ~stamp:6 idx 1.0 "a";
  Alcotest.(check bool) "oldest by stamp" true (Ordered_index.oldest idx = Some (2.0, 5));
  Ordered_index.touch idx 2.0 9;
  Alcotest.(check bool) "touch moves it" true (Ordered_index.oldest idx = Some (1.0, 6));
  ignore (Ordered_index.remove idx 1.0);
  Alcotest.(check bool) "removal shifts stamps" true (Ordered_index.oldest idx = Some (3.0, 7));
  let plain = Ordered_index.create () in
  Ordered_index.insert ~cost:0.0 ~stamp:5 plain 2.0 "b";
  Ordered_index.insert ~cost:0.0 ~stamp:3 plain 4.0 "d";
  Alcotest.(check bool) "unstamped: lowest key, stamp 0" true
    (Ordered_index.oldest plain = Some (2.0, 0))

let test_index_insert_find () =
  with_index (fun idx ->
      Ordered_index.insert ~cost:0.0 idx 3.0 "c";
      Ordered_index.insert ~cost:0.0 idx 1.0 "a";
      Ordered_index.insert ~cost:0.0 idx 2.0 "b";
      Alcotest.(check (option string)) "find 2" (Some "b") (Ordered_index.find_exact idx 2.0);
      Alcotest.(check (option string)) "miss" None (Ordered_index.find_exact idx 2.5);
      Alcotest.(check int) "size" 3 (Ordered_index.size idx))

let test_index_overwrite () =
  with_index (fun idx ->
      Ordered_index.insert ~cost:0.0 idx 1.0 "old";
      Ordered_index.insert ~cost:0.0 idx 1.0 "new";
      Alcotest.(check (option string)) "overwritten" (Some "new")
        (Ordered_index.find_exact idx 1.0);
      Alcotest.(check int) "size 1" 1 (Ordered_index.size idx))

let test_index_within () =
  with_index (fun idx ->
      List.iter (fun k -> Ordered_index.insert ~cost:0.0 idx k (string_of_float k)) [ 1.;2.;3.;4.;5. ];
      let hits = Ordered_index.within idx ~center:3.0 ~radius:1.0 in
      Alcotest.(check (list (float 1e-9))) "keys 2..4" [ 2.0; 3.0; 4.0 ] (List.map fst hits))

let test_index_ordered_iteration () =
  with_index (fun idx ->
      let rng = Raqo_util.Rng.create 3 in
      let keys = Array.init 500 (fun i -> float_of_int i) in
      Raqo_util.Rng.shuffle rng keys;
      Array.iter (fun k -> Ordered_index.insert ~cost:0.0 idx k ()) keys;
      Alcotest.(check int) "all present" 500 (Ordered_index.size idx);
      let listed = List.map fst (Ordered_index.to_list idx) in
      Alcotest.(check (list (float 1e-9))) "sorted"
        (List.init 500 float_of_int) listed)

let test_index_nearest_basic () =
  with_index (fun idx ->
      Alcotest.(check (option (pair (float 1e-9) string))) "empty" None
        (Ordered_index.nearest idx ~center:1.0 ~radius:10.0);
      Ordered_index.insert ~cost:0.0 idx 5.0 "five";
      Alcotest.(check (option (pair (float 1e-9) string))) "single within radius"
        (Some (5.0, "five"))
        (Ordered_index.nearest idx ~center:4.6 ~radius:0.5);
      Alcotest.(check (option (pair (float 1e-9) string))) "single outside radius" None
        (Ordered_index.nearest idx ~center:3.0 ~radius:0.5))

let test_index_nearest_tie_goes_to_lower_key () =
  with_index (fun idx ->
      Ordered_index.insert ~cost:0.0 idx 2.0 "lo";
      Ordered_index.insert ~cost:0.0 idx 4.0 "hi";
      match Ordered_index.nearest idx ~center:3.0 ~radius:5.0 with
      | Some (k, v) ->
          check_float "lower key wins the tie" 2.0 k;
          Alcotest.(check string) "its value" "lo" v
      | None -> Alcotest.fail "hit expected")

let prop_nearest_matches_linear_scan =
  QCheck.Test.make ~name:"nearest equals a linear scan with lower-key ties" ~count:100
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 60) (int_range 0 100))
        (int_range 0 100) (int_range 0 20))
    (fun (keys, probe, radius) ->
      let center = float_of_int probe and radius = float_of_int radius in
      let idx = Ordered_index.create () in
      List.iter (fun k -> Ordered_index.insert ~cost:0.0 idx (float_of_int k) k) keys;
      let expected =
        (* to_list is ascending, so keeping the first minimum reproduces the
           tie-to-lower-key contract. *)
        List.fold_left
          (fun acc (k, v) ->
            let d = Float.abs (k -. center) in
            match acc with
            | None -> if d <= radius then Some (k, v) else None
            | Some (bk, _) ->
                if d <= radius && d < Float.abs (bk -. center) then Some (k, v) else acc)
          None (Ordered_index.to_list idx)
      in
      Ordered_index.nearest idx ~center ~radius = expected)

(* A sorted association list of (key, (value, stamp)) is the model: random
   sequences of every operation must leave the index and the model agreeing
   on each answer and on the full contents. Keys are half-steps in [0, 20]
   (so inserts overwrite, removals hit and nearest probes tie) and stamps
   are drawn from a small range (so oldest ties too). *)
let prop_index_matches_model =
  QCheck.Test.make ~name:"index equals a sorted association-list model" ~count:300
    QCheck.(
      pair bool
        (list_of_size Gen.(int_range 0 200)
           (quad (int_range 0 7) (int_range 0 40) (int_range 0 20) (int_range 0 6))))
    (fun (stamped, ops) ->
      let idx = Ordered_index.create ~stamped () in
      let model = ref [] in
      let stamp_of s = if stamped then s else 0 in
      let rec put k v s = function
        | [] -> [ (k, (v, s)) ]
        | ((k', _) as e) :: rest ->
            if k' < k then e :: put k v s rest
            else if k' = k then (k, (v, s)) :: rest
            else (k, (v, s)) :: e :: rest
      in
      let entries () = List.map (fun (k, (v, _)) -> (k, v)) !model in
      let nearest center radius =
        List.fold_left
          (fun acc (k, v) ->
            let d = Float.abs (k -. center) in
            match acc with
            | Some (bk, _) when d >= Float.abs (bk -. center) -> acc
            | _ -> if d <= radius then Some (k, v) else acc)
          None (entries ())
      in
      let oldest () =
        List.fold_left
          (fun acc (k, (_, s)) ->
            match acc with Some (_, bs) when s >= bs -> acc | _ -> Some (k, s))
          None !model
      in
      List.for_all
        (fun (op, key, stamp, radius) ->
          let k = float_of_int key /. 2.0 and r = float_of_int radius /. 2.0 in
          let answer_ok =
            match op with
            | 0 | 1 ->
                Ordered_index.insert ~cost:0.0 ~stamp idx k (key, stamp);
                model := put k (key, stamp) (stamp_of stamp) !model;
                true
            | 2 ->
                let present = List.mem_assoc k !model in
                model := List.remove_assoc k !model;
                Ordered_index.remove idx k = present
            | 3 -> Ordered_index.find_exact idx k = Option.map fst (List.assoc_opt k !model)
            | 4 -> Ordered_index.nearest idx ~center:k ~radius:r = nearest k r
            | 5 ->
                Ordered_index.within idx ~center:k ~radius:r
                = List.filter (fun (k', _) -> Float.abs (k' -. k) <= r) (entries ())
            | 6 ->
                Ordered_index.touch idx k stamp;
                model :=
                  List.map
                    (fun ((k', (v, _)) as e) -> if k' = k then (k', (v, stamp_of stamp)) else e)
                    !model;
                true
            | _ -> Ordered_index.oldest idx = oldest ()
          in
          answer_ok
          && Ordered_index.size idx = List.length !model
          && Ordered_index.to_list idx = entries ())
        ops)

let test_index_churn_reuses_pool () =
  (* The shared cache's LRU path: insert a fresh key, evict the oldest, 10k
     times over. Removed entries' pool slots must be reused, so the pool
     never outgrows the live size, and the survivors keep their values. *)
  let live = 64 in
  let idx = Ordered_index.create ~stamped:true () in
  let rng = Raqo_util.Rng.create 22 in
  for i = 1 to 10_000 do
    let key = Raqo_util.Rng.float rng 1000.0 in
    Ordered_index.insert ~cost:0.0 ~stamp:i idx key i;
    if i mod 7 = 0 then Ordered_index.touch idx key (i + 1);
    while Ordered_index.size idx > live do
      match Ordered_index.oldest idx with
      | Some (k, _) -> ignore (Ordered_index.remove idx k)
      | None -> Alcotest.fail "oldest of a non-empty index"
    done;
    if Ordered_index.pool_size idx > live + 1 then
      Alcotest.failf "cycle %d: pool %d above live size %d" i (Ordered_index.pool_size idx)
        (live + 1)
  done;
  Alcotest.(check int) "live size" live (Ordered_index.size idx);
  List.iter
    (fun (k, v) ->
      if Ordered_index.find_exact idx k <> Some v then Alcotest.failf "value at %h moved" k)
    (Ordered_index.to_list idx);
  let stamps_ok =
    List.for_all (fun (_, v) -> v > 10_000 - (2 * live)) (Ordered_index.to_list idx)
  in
  Alcotest.(check bool) "survivors are the most recent" true stamps_ok

(* ------------------------------------------------------ Resource_planner *)

(* [plan] on the real operator model at one build-side size. *)
let plan_smj ?(small_gb = 3.0) planner =
  Option.get (Resource_planner.plan planner ~model ~impl:Join_impl.Smj ~small_gb)

let test_planner_cache_flow () =
  let planner = Resource_planner.create Conditions.default in
  let r1, c1 = plan_smj planner in
  let evals_after_first = Counters.cost_evaluations (Resource_planner.counters planner) in
  let r2, c2 = plan_smj planner in
  let evals_after_second = Counters.cost_evaluations (Resource_planner.counters planner) in
  Alcotest.(check bool) "same result" true (Resources.equal r1 r2);
  check_float "same cost" c1 c2;
  Alcotest.(check int) "an exact hit costs no evaluation" evals_after_first evals_after_second;
  Alcotest.(check int) "one hit" 1 (Counters.cache_hits (Resource_planner.counters planner))

let test_planner_no_cache_recomputes () =
  let planner = Resource_planner.create ~cache:false Conditions.default in
  let _ = plan_smj planner in
  let e1 = Counters.cost_evaluations (Resource_planner.counters planner) in
  let _ = plan_smj planner in
  let e2 = Counters.cost_evaluations (Resource_planner.counters planner) in
  Alcotest.(check bool) "full recompute" true (e2 - e1 > 1)

let test_planner_nn_lookup_reuses_neighbor () =
  let planner =
    Resource_planner.create ~lookup:(Plan_cache.Nearest_neighbor 0.5) Conditions.default
  in
  let _ = plan_smj ~small_gb:3.0 planner in
  let _ = plan_smj ~small_gb:3.2 planner in
  Alcotest.(check int) "neighbor hit" 1 (Counters.cache_hits (Resource_planner.counters planner))

let test_planner_brute_force_strategy () =
  (* The scalar path is the paper's exhaustive search; the kernel path
     answers the same in closed form from a small fraction of the grid. *)
  let planner kernel =
    Resource_planner.create ~strategy:Resource_planner.Brute_force ~cache:false ~kernel
      Conditions.default
  in
  let scalar = planner false and closed = planner true in
  let a = plan_smj ~small_gb:1.0 scalar and b = plan_smj ~small_gb:1.0 closed in
  Alcotest.(check int) "explored all" 1000
    (Counters.cost_evaluations (Resource_planner.counters scalar));
  Alcotest.(check bool) "same answer in closed form" true (a = b);
  let e = Counters.cost_evaluations (Resource_planner.counters closed) in
  Alcotest.(check bool) (Printf.sprintf "closed form: %d evaluations" e) true (e <= 100)

let test_planner_infeasible_searches_nothing () =
  (* A BHJ build side beyond the largest container has no feasible start:
     no search, no cache probe, nothing counted. *)
  let planner = Resource_planner.create Conditions.default in
  Alcotest.(check bool) "no configuration" true
    (Resource_planner.plan planner ~model ~impl:Join_impl.Bhj ~small_gb:1e6 = None);
  let k = Resource_planner.counters planner in
  Alcotest.(check int) "no invocation" 0 (Counters.planner_invocations k);
  Alcotest.(check int) "no probe" 0 (Counters.cache_hits k + Counters.cache_misses k)

let test_planner_off_grid_max_gb_is_infeasible () =
  (* With a 4 GB step the memory rows are 1, 5 and 9 GB: max_gb = 10 is not
     on the grid. A BHJ build needing 9.5 GB fits no row, so neither
     strategy may answer (the climb used to return 22 x 10 GB, off the grid,
     and brute force 1 x 1 GB at an infinite cost). *)
  let c = Conditions.make ~gb_step:4.0 () in
  let small_gb = 9.5 *. 1.15 in
  List.iter
    (fun (name, strategy) ->
      List.iter
        (fun kernel ->
          let planner = Resource_planner.create ~strategy ~kernel c in
          Alcotest.(check bool)
            (Printf.sprintf "%s (kernel %b): no configuration" name kernel)
            true
            (Resource_planner.plan planner ~model ~impl:Join_impl.Bhj ~small_gb = None);
          (* Just inside the last row, both answer on the grid. *)
          match
            Resource_planner.plan planner ~model ~impl:Join_impl.Bhj ~small_gb:(8.5 *. 1.15)
          with
          | Some (r, cost) ->
              Alcotest.(check bool) (name ^ ": on the grid") true (Conditions.contains c r);
              Alcotest.(check bool) (name ^ ": finite") true (Float.is_finite cost)
          | None -> Alcotest.failf "%s: the 9 GB row holds an 8.5 GB build" name)
        [ true; false ])
    [ ("brute force", Resource_planner.Brute_force); ("hill climb", Resource_planner.Hill_climb) ];
  (* At the last row's boundary feasibility is the cost model's own
     comparison, small_gb <= headroom * cs. Dividing by the headroom
     instead disagrees by one rounding: it admitted succ (1.15 * 45) on a
     last row of 45 GB (brute force then answered 1 x 1 GB at an infinite
     cost) and refused 1.15 * 15 on a last row of 15 GB, which that row
     holds. *)
  let headroom = model.Op_cost.oom_headroom in
  List.iter
    (fun (gb_step, max_gb, last) ->
      let c = Conditions.make ~gb_step ~max_gb () in
      let edge = headroom *. last in
      List.iter
        (fun small_gb ->
          let fits = small_gb <= headroom *. last in
          List.iter
            (fun strategy ->
              List.iter
                (fun kernel ->
                  let planner = Resource_planner.create ~strategy ~kernel c in
                  let label = Printf.sprintf "last row %g GB, build %h, kernel %b" last small_gb kernel in
                  match Resource_planner.plan planner ~model ~impl:Join_impl.Bhj ~small_gb with
                  | None -> Alcotest.(check bool) (label ^ ": refused only if no row fits") false fits
                  | Some (r, cost) ->
                      Alcotest.(check bool) (label ^ ": answered only if a row fits") true fits;
                      Alcotest.(check bool) (label ^ ": on the grid") true (Conditions.contains c r);
                      Alcotest.(check bool) (label ^ ": finite") true (Float.is_finite cost))
                [ true; false ])
            [ Resource_planner.Brute_force; Resource_planner.Hill_climb ])
        [ Float.pred edge; edge; Float.succ edge ])
    [ (4.0, 46.0, 45.0); (2.0, 16.0, 15.0) ]

let test_planner_exact_hits_return_stored_cost () =
  (* An exact hit answers with the cost stored at insert, bit-equal to the
     scalar model's re-cost, through the private and the shared cache, for
     both strategies and models; the hit records no evaluation. *)
  let check_hit label planner m impl small_gb =
    match Resource_planner.plan planner ~model:m ~impl ~small_gb with
    | None -> ()
    | Some miss ->
        let k = Resource_planner.counters planner in
        let evals = Counters.cost_evaluations k and hits = Counters.cache_hits k in
        let hit = Option.get (Resource_planner.plan planner ~model:m ~impl ~small_gb) in
        let recost = Op_cost.predict_exn m impl ~small_gb ~resources:(fst hit) in
        let label = Printf.sprintf "%s %s @ %g" label (Join_impl.to_string impl) small_gb in
        Alcotest.(check bool) (label ^ ": hit = miss") true (same_answer hit miss);
        Alcotest.(check bool) (label ^ ": cost bits = re-cost") true
          (Int64.equal (Int64.bits_of_float (snd hit)) (Int64.bits_of_float recost));
        Alcotest.(check int) (label ^ ": one hit") (hits + 1) (Counters.cache_hits k);
        Alcotest.(check int) (label ^ ": no evaluation") evals (Counters.cost_evaluations k)
  in
  let shared = Raqo_resource.Shared_plan_cache.create () in
  List.iter
    (fun (mname, m) ->
      List.iter
        (fun strategy ->
          List.iter
            (fun (cname, planner) ->
              List.iter
                (fun impl ->
                  List.iter
                    (check_hit (mname ^ " " ^ cname) planner m impl)
                    [ 0.02; 0.7; 3.0; 8.0 ])
                Join_impl.all)
            [
              ("private", Resource_planner.create ~strategy Conditions.default);
              ("shared", Resource_planner.create ~strategy ~shared_cache:shared Conditions.default);
            ])
        [ Resource_planner.Brute_force; Resource_planner.Hill_climb ])
    [ ("paper", model); ("hive", Raqo.Models.hive ()) ]

let test_planner_with_conditions_never_reuses () =
  (* The cache key holds the conditions: a planner re-targeted at new
     conditions shares the cache but never answers from an entry planned
     under the old ones — it plans exactly as a fresh planner would. *)
  let planner = Resource_planner.create Conditions.default in
  let wide = plan_smj planner in
  let small = Conditions.make ~max_containers:10 ~max_gb:3.0 () in
  let planner2 = Resource_planner.with_conditions planner small in
  let hits = Counters.cache_hits (Resource_planner.counters planner) in
  let narrow = plan_smj planner2 in
  Alcotest.(check int) "a miss, not a hit" hits
    (Counters.cache_hits (Resource_planner.counters planner));
  Alcotest.(check bool) "equals a fresh planner's answer" true
    (narrow = plan_smj (Resource_planner.create small));
  Alcotest.(check bool) "within the new bounds" true (Conditions.contains small (fst narrow));
  Alcotest.(check bool) "the old entry still answers the old conditions" true
    (plan_smj planner = wide);
  Alcotest.(check int) "one entry per conditions" 2 (Resource_planner.cache_size planner)

let test_planner_reset () =
  let planner = Resource_planner.create Conditions.default in
  let _ = plan_smj planner in
  Resource_planner.reset_counters planner;
  Resource_planner.clear_cache planner;
  Alcotest.(check int) "counters zeroed" 0
    (Counters.cost_evaluations (Resource_planner.counters planner));
  Alcotest.(check int) "cache emptied" 0 (Resource_planner.cache_size planner)

let test_counters_add () =
  let a = Counters.create () and b = Counters.create () in
  Counters.record_evaluations a 3;
  Counters.record_evaluations b 4;
  Counters.record_hit b;
  Counters.add ~into:a b;
  Alcotest.(check int) "evals" 7 (Counters.cost_evaluations a);
  Alcotest.(check int) "hits" 1 (Counters.cache_hits a)

(* ------------------------------------------------------ compiled kernels *)

module Kernel = Raqo_cost.Kernel

let kernel_of ?(model = model) impl ~small_gb = Kernel.make model impl ~small_gb

let test_search_kernel_matches_scalar () =
  let c = Conditions.default in
  List.iter
    (fun impl ->
      List.iter
        (fun small_gb ->
          let ks = Counters.create () and ss = Counters.create () in
          let kernel = kernel_of impl ~small_gb in
          let closed = Brute_force.search_kernel ~counters:ks c ~kernel in
          let scanned = Brute_force.search ~counters:ss c (op_cost impl ~small_gb) in
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %.1f GB identical" (Join_impl.to_string impl) small_gb)
            true (closed = scanned);
          Alcotest.(check bool) "no more evaluations than the scan" true
            (Counters.cost_evaluations ks <= Counters.cost_evaluations ss);
          Alcotest.(check int) "one invocation" 1 (Counters.planner_invocations ks))
        [ 0.1; 2.0; 7.5; 1e6 ])
    Join_impl.all

let test_search_kernel_tie_break_on_plateau () =
  (* A huge floor flattens the whole grid to one constant: the sweep's argmin
     scan must keep search's first-enumerated winner. *)
  let plateau = Op_cost.with_floor 1e12 Op_cost.paper in
  let c = Conditions.default in
  let kernel = kernel_of ~model:plateau Join_impl.Smj ~small_gb:1.0 in
  let swept = Brute_force.search_kernel c ~kernel in
  let scanned =
    Brute_force.search c (fun r ->
        Op_cost.predict_exn plateau Join_impl.Smj ~small_gb:1.0 ~resources:r)
  in
  Alcotest.(check bool) "same winner on the plateau" true (swept = scanned);
  Alcotest.(check int) "first config" 1 (fst swept).Resources.containers

let prop_kernel_searches_match_scalar_random_grids =
  QCheck.Test.make ~name:"kernel searches equal scalar searches on random grids" ~count:50
    QCheck.(triple (int_range 1 60) (int_range 1 12) (float_range 0.05 20.0))
    (fun (ncs, ngbs, small_gb) ->
      let c = Conditions.make ~max_containers:ncs ~max_gb:(float_of_int ngbs) () in
      List.for_all
        (fun impl ->
          let kernel = kernel_of impl ~small_gb in
          let cost = op_cost impl ~small_gb in
          Brute_force.search_kernel c ~kernel = Brute_force.search c cost)
        Join_impl.all)

(* ---------------------------------------- closed-form grid minimum *)

let model_of ?(floor = 0.0) space ~intercept coefs =
  let lin = Raqo_cost.Linreg.of_coefficients ~intercept coefs in
  let m = { Op_cost.paper with Op_cost.space; smj = lin; bhj = lin; scan = lin } in
  if floor > 0.0 then Op_cost.with_floor floor m else m

(* A signed magnitude spread over [lo, hi] decades, zero one time in five. *)
let gen_coef ~lo ~hi =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.0);
        ( 4,
          map2
            (fun e neg -> if neg then -.Float.pow 10.0 e else Float.pow 10.0 e)
            (float_range lo hi) bool );
      ])

(* Rows flatter than their rounding: a large term inside the chain (b_cs)
   and several tiny nc terms added, and rounded, at its magnitude, so cells
   tie or differ by a few ulps in no monotone order. *)
let noisy_model ~floor (big, eb, ec, ed, sb, sc) =
  let sign s v = if s then v else -.v in
  model_of ~floor Raqo_cost.Feature.Extended ~intercept:0.0
    (Array.append
       [| 0.0; 0.0; sign big 1e8; 0.0; sign sb (Float.pow 10.0 eb); sign sc (Float.pow 10.0 ec);
          sign sc 3e-9 |]
       [| Float.pow 10.0 ed; sign sb 2e-7; sign sc 1e-8; 0.0 |])

let gen_noise =
  QCheck.Gen.(
    map
      (fun ((big, eb, ec), (ed, sb, sc)) -> (big, eb, ec, ed, sb, sc))
      (pair
         (triple bool (float_range (-9.0) (-6.0)) (float_range (-12.0) (-9.0)))
         (triple (float_range (-8.0) (-5.0)) bool bool)))

(* Models: the paper's (bare and floored), Hive, Spark, random coefficient
   vectors in either space, and adversarial rows: nc-independent (all cells
   equal), everything at the floor, a plateau that starts mid-row, d <= 0
   with no interior root, a double root of the slope cubic, and rows
   flatter than their rounding. *)
let gen_model =
  let open QCheck.Gen in
  let extended coefs = Array.append coefs (Array.make 4 0.0) in
  frequency
    [
      (1, return ("paper", Op_cost.paper));
      (1, return ("paper+floor", model));
      (1, return ("hive", Raqo.Models.hive ()));
      (1, return ("spark", Raqo.Models.spark ()));
      ( 4,
        bool >>= fun ext ->
        let space = if ext then Raqo_cost.Feature.Extended else Raqo_cost.Feature.Paper in
        array_size (return (Raqo_cost.Feature.dims space)) (gen_coef ~lo:(-4.0) ~hi:3.0)
        >>= fun coefs ->
        gen_coef ~lo:(-2.0) ~hi:4.0 >>= fun intercept ->
        oneofl [ 0.0; 0.0; 0.01; 1.0; 50.0 ] >|= fun floor ->
        ("random", model_of ~floor space ~intercept coefs) );
      ( 1,
        (* all cells of a row equal *)
        gen_coef ~lo:(-2.0) ~hi:2.0 >>= fun b_cs ->
        gen_coef ~lo:(-2.0) ~hi:3.0 >|= fun intercept ->
        ( "flat",
          model_of Raqo_cost.Feature.Paper ~intercept [| 1.0; 0.1; b_cs; 0.5; 0.0; 0.0; 0.0 |] ) );
      (1, return ("all floor", Op_cost.with_floor 1e12 Op_cost.paper));
      ( 1,
        (* h falls through the floor in mid-row: 100 - s*nc against floor 50 *)
        float_range 0.3 4.0 >|= fun slope ->
        ( "mid-row plateau",
          model_of ~floor:50.0 Raqo_cost.Feature.Paper ~intercept:100.0
            [| 0.0; 0.0; 0.0; 0.0; -.slope; 0.0; 0.0 |] ) );
      ( 1,
        (* d <= 0, b >= 0, c >= 0: h rises along the whole row *)
        float_range 0.0 2.0 >>= fun b ->
        float_range 0.0 0.1 >>= fun c ->
        float_range (-50.0) 0.0 >|= fun d ->
        ( "no interior root",
          model_of Raqo_cost.Feature.Extended ~intercept:10.0
            (Array.append [| 0.0; 0.0; 0.0; 0.0; b; c; 0.0 |] [| d; 0.0; 0.0; 0.0 |]) ) );
      ( 1,
        (* p(x) = 2c x^3 + b x^2 - d = 2c (x - r)^2 (x + r/2): b = -3cr, d = -cr^3 *)
        float_range 0.001 1.0 >>= fun c ->
        oneof [ float_range 1.0 60.0; map float_of_int (int_range 1 60) ] >|= fun r ->
        ( "double root",
          model_of Raqo_cost.Feature.Extended ~intercept:1000.0
            (Array.append
               [| 0.0; 0.0; 0.0; 0.0; -3.0 *. c *. r; c; 0.0 |]
               [| -.c *. r *. r *. r; 0.0; 0.0; 0.0 |]) ) );
      (2, map (fun noise -> ("below rounding", noisy_model ~floor:0.0 noise)) gen_noise);
      ( 1,
        return
          ( "extended zeros",
            model_of Raqo_cost.Feature.Extended ~intercept:5.0
              (extended [| 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |]) ) );
    ]

let gen_conditions =
  let open QCheck.Gen in
  oneofl [ 0.25; 0.5; 1.0; 4.0 ] >>= fun gb_step ->
  oneofl [ 0.5; 1.0; 2.0 ] >>= fun min_gb ->
  float_range 0.0 12.0 >>= fun span ->
  int_range 1 5 >>= fun min_containers ->
  int_range 0 120 >>= fun extra ->
  int_range 1 7 >|= fun container_step ->
  Conditions.make ~min_containers ~max_containers:(min_containers + extra) ~container_step
    ~min_gb ~max_gb:(min_gb +. span) ~gb_step ()

let prop_closed_form_equals_exhaustive =
  QCheck.Test.make ~name:"closed-form minimum = exhaustive scan, bitwise" ~count:1000
    (QCheck.make
       ~print:(fun ((name, _), c, impl, small_gb) ->
         Format.asprintf "%s model, %s at %h GB, %a" name (Join_impl.to_string impl) small_gb
           Conditions.pp c)
       QCheck.Gen.(
         quad gen_model gen_conditions (oneofl Join_impl.all)
           (map (fun e -> Float.pow 10.0 e) (float_range (-3.0) 2.0))))
    (fun ((_, m), c, impl, small_gb) ->
      let kernel = Kernel.make m impl ~small_gb in
      let closed = Brute_force.search_kernel c ~kernel in
      let scanned =
        Brute_force.search c (fun r -> Op_cost.predict_exn m impl ~small_gb ~resources:r)
      in
      same_answer closed scanned
      || QCheck.Test.fail_reportf "closed form %s at %h, scan %s at %h"
           (Resources.to_string (fst closed)) (snd closed)
           (Resources.to_string (fst scanned)) (snd scanned))

let prop_closed_form_first_floor_cell =
  (* The floor a few ulps above the noisy rows' minimum: cells at the floor
     are scattered by rounding, and the answer is the first of them. *)
  QCheck.Test.make ~name:"closed form finds the first floor cell in noisy rows" ~count:3000
    (QCheck.make
       QCheck.Gen.(quad gen_noise gen_conditions (int_range 0 12) (oneofl Join_impl.all)))
    (fun (noise, c, ulps, impl) ->
      let small_gb = 1.0 in
      let cost m r = Op_cost.predict_exn m impl ~small_gb ~resources:r in
      let _, lowest = Brute_force.search c (cost (noisy_model ~floor:0.0 noise)) in
      let floor = ref lowest in
      for _ = 1 to ulps do
        floor := Float.succ !floor
      done;
      let m = noisy_model ~floor:!floor noise in
      let closed = Brute_force.search_kernel c ~kernel:(Kernel.make m impl ~small_gb) in
      let scanned = Brute_force.search c (cost m) in
      same_answer closed scanned
      || QCheck.Test.fail_reportf "closed form %s at %h, scan %s at %h"
           (Resources.to_string (fst closed)) (snd closed)
           (Resources.to_string (fst scanned)) (snd scanned))

let test_closed_form_floor_cell_before_edge () =
  (* One row of eight noisy cells, floor at its minimum: the floor cells are
     the third, sixth and last. The last is the first floor candidate; a
     walk from the row start finds the third before the plateau-edge search
     finds the sixth, which must not replace it. *)
  let noise =
    (true, -0x1.ec4e62a354c7p+2, -0x1.4c078100753fp+3, -0x1.ad9fb35a43c16p+2, true, false)
  in
  let c =
    Conditions.make ~min_containers:4 ~max_containers:18 ~container_step:2 ~min_gb:2.0
      ~max_gb:2.3 ~gb_step:4.0 ()
  in
  let cost m r = Op_cost.predict_exn m Join_impl.Smj ~small_gb:1.0 ~resources:r in
  let _, lowest = Brute_force.search c (cost (noisy_model ~floor:0.0 noise)) in
  let m = noisy_model ~floor:lowest noise in
  let scanned = Brute_force.search c (cost m) in
  Alcotest.(check int) "the scan's first floor cell" 8 (fst scanned).Resources.containers;
  Alcotest.(check bool) "closed form = scan" true
    (same_answer
       (Brute_force.search_kernel c ~kernel:(Kernel.make m Join_impl.Smj ~small_gb:1.0))
       scanned)

let test_closed_form_evaluations () =
  (* A handful of evaluations per memory row on the default grid, and the
     floor plateau ends the search: no row past the first floor row is
     costed. *)
  List.iter
    (fun (name, m) ->
      List.iter
        (fun impl ->
          List.iter
            (fun small_gb ->
              let r = Kernel.minimum (Kernel.make m impl ~small_gb) Conditions.default in
              if r.Kernel.evaluations > 80 then
                Alcotest.failf "%s %s @ %g GB: %d evaluations" name (Join_impl.to_string impl)
                  small_gb r.Kernel.evaluations;
              Alcotest.(check bool) "nothing swept" false r.Kernel.swept)
            [ 0.01; 0.3; 2.0; 9.0 ])
        Join_impl.all)
    [ ("paper", Op_cost.paper); ("hive", Raqo.Models.hive ()); ("spark", Raqo.Models.spark ()) ];
  let all_floor = Kernel.make (Op_cost.with_floor 1e12 Op_cost.paper) Join_impl.Smj ~small_gb:1.0 in
  Alcotest.(check int) "a floor plateau costs one cell" 1
    (Kernel.minimum all_floor Conditions.default).Kernel.evaluations

let test_closed_form_sweeps_overflowing_kernels () =
  (* Terms that overflow make NaN and infinite cells: the closed form does
     not solve such a kernel, it scans every cell with the sweep's argmin,
     NaN included, and says so. *)
  let c = Conditions.make ~max_containers:6 ~max_gb:3.0 () in
  List.iter
    (fun coefs ->
      let m = model_of Raqo_cost.Feature.Paper ~intercept:0.0 coefs in
      let kernel = Kernel.make m Join_impl.Smj ~small_gb:1.0 in
      let r = Kernel.minimum kernel c in
      let scanned =
        Brute_force.search c (fun res ->
            Op_cost.predict_exn m Join_impl.Smj ~small_gb:1.0 ~resources:res)
      in
      Alcotest.(check bool) "same answer as the scan" true
        (same_answer (r.Kernel.best, r.Kernel.cost) scanned);
      Alcotest.(check bool) "swept" true r.Kernel.swept;
      Alcotest.(check int) "every cell costed" (Conditions.n_configs c) r.Kernel.evaluations)
    [
      [| 0.0; 0.0; 0.0; 0.0; 1e308; -1e308; 0.0 |];
      [| 0.0; 0.0; Float.nan; 0.0; 0.0; 0.0; 0.0 |];
      [| 0.0; 0.0; 0.0; 0.0; Float.infinity; 0.0; 0.0 |];
    ]

let test_hill_climb_kernel_matches_scalar () =
  (* Both feature spaces (the trained Hive model is extended-space), and a
     quarter-GB memory step where the climb's in-place restore
     [(x +. 0.25) -. 0.25] does not return x: 0.85, 3.85 and 7.8 each lose
     their last bit to the forward probe, so an exact restore would end the
     climb on a different double. *)
  let quarter =
    Conditions.make ~min_containers:1 ~max_containers:40 ~min_gb:0.85 ~max_gb:9.6
      ~gb_step:0.25 ()
  in
  List.iter
    (fun (name, model) ->
      List.iter
        (fun (c, starts) ->
          List.iter
            (fun impl ->
              List.iter
                (fun small_gb ->
                  List.iter
                    (fun start ->
                      let kc = Counters.create () and sc = Counters.create () in
                      let kernel = kernel_of ~model impl ~small_gb in
                      let k = Hill_climb.plan_kernel ~counters:kc ?start c kernel in
                      let s =
                        Hill_climb.plan ~counters:sc ?start c (fun r ->
                            Op_cost.predict_exn model impl ~small_gb ~resources:r)
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf "%s %s @ %.1f GB same climb" name
                           (Join_impl.to_string impl) small_gb)
                        true (k = s);
                      Alcotest.(check int) "same evaluations" (Counters.cost_evaluations sc)
                        (Counters.cost_evaluations kc);
                      Alcotest.(check int) "one invocation each"
                        (Counters.planner_invocations sc) (Counters.planner_invocations kc))
                    starts)
                [ 0.1; 2.0; 7.5 ])
            Join_impl.all)
        [
          (Conditions.default, [ None; Some (res 50 5.0); Some (res 100 10.0) ]);
          (quarter, [ None; Some (res 20 3.85); Some (res 40 7.8) ]);
        ])
    [ ("paper", model); ("extended", Raqo.Models.hive ()) ]

(* --------------------------------------------------- LRU-bounded cache *)

let test_cache_capacity_validates () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Plan_cache.create: capacity must be >= 1") (fun () ->
      ignore (Plan_cache.create ~capacity:0 ()))

let test_cache_unbounded_by_default () =
  let cache = Plan_cache.create () in
  for i = 1 to 100 do
    Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:(float_of_int i) (res i 1.0)
  done;
  Alcotest.(check int) "everything retained" 100 (Plan_cache.size cache)

let test_cache_capacity_evicts_lru () =
  let cache = Plan_cache.create ~capacity:2 () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:2.0 (res 2 2.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:3.0 (res 3 3.0);
  Alcotest.(check int) "bounded" 2 (Plan_cache.size cache);
  Alcotest.(check (list (float 0.0)))
    "oldest evicted" [ 2.0; 3.0 ]
    (List.map fst (Plan_cache.entries cache ~key:smj))

let test_cache_lookup_refreshes_recency () =
  let cache = Plan_cache.create ~capacity:2 () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:2.0 (res 2 2.0);
  (* Touch 1.0: now 2.0 is the cold entry. *)
  Alcotest.(check bool) "hit" true
    (Plan_cache.find cache ~key:smj ~data_gb:1.0 Plan_cache.Exact <> None);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:3.0 (res 3 3.0);
  Alcotest.(check (list (float 0.0)))
    "2.0 evicted, touched 1.0 kept" [ 1.0; 3.0 ]
    (List.map fst (Plan_cache.entries cache ~key:smj))

let test_cache_nearest_lookup_refreshes_recency () =
  let cache = Plan_cache.create ~capacity:2 () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:2.0 (res 2 2.0);
  (* A nearest-neighbor probe that matches 1.0 must warm that entry. *)
  Alcotest.(check bool) "nn hit" true
    (Plan_cache.find cache ~key:smj ~data_gb:1.1 (Plan_cache.Nearest_neighbor 0.5) <> None);
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:3.0 (res 3 3.0);
  Alcotest.(check (list (float 0.0)))
    "nn-matched entry survives" [ 1.0; 3.0 ]
    (List.map fst (Plan_cache.entries cache ~key:smj))

let test_cache_capacity_spans_keys () =
  (* The bound is global across cache keys, and an emptied key disappears. *)
  let cache = Plan_cache.create ~capacity:2 () in
  Plan_cache.insert ~cost:0.0 cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  Plan_cache.insert ~cost:0.0 cache ~key:bhj ~data_gb:1.0 (res 2 2.0);
  Plan_cache.insert ~cost:0.0 cache ~key:bhj ~data_gb:2.0 (res 3 3.0);
  Alcotest.(check int) "bounded across keys" 2 (Plan_cache.size cache);
  Alcotest.(check (list string)) "key a emptied and dropped" [ "BHJ" ]
    (List.map (fun k -> Join_impl.to_string k.Plan_cache.impl) (Plan_cache.keys cache))

let test_cache_overwrite_does_not_evict () =
  let k = Counters.create () in
  let cache = Plan_cache.create ~capacity:2 () in
  Plan_cache.insert ~cost:0.0 ~counters:k cache ~key:smj ~data_gb:1.0 (res 1 1.0);
  Plan_cache.insert ~cost:0.0 ~counters:k cache ~key:smj ~data_gb:2.0 (res 2 2.0);
  Plan_cache.insert ~cost:0.0 ~counters:k cache ~key:smj ~data_gb:2.0 (res 9 9.0);
  Alcotest.(check int) "still two entries" 2 (Plan_cache.size cache);
  Alcotest.(check int) "no evictions" 0 (Counters.cache_evictions k);
  Alcotest.(check bool) "overwrite took" true
    (Plan_cache.find cache ~key:smj ~data_gb:2.0 Plan_cache.Exact = Some (res 9 9.0))

let test_cache_eviction_counters () =
  let k = Counters.create () in
  let cache = Plan_cache.create ~capacity:3 () in
  for i = 1 to 10 do
    Plan_cache.insert ~cost:0.0 ~counters:k cache ~key:smj ~data_gb:(float_of_int i) (res i 1.0)
  done;
  Alcotest.(check int) "bounded" 3 (Plan_cache.size cache);
  Alcotest.(check int) "seven evictions recorded" 7 (Counters.cache_evictions k);
  Alcotest.(check int) "clear resets" 0 (Plan_cache.size (Plan_cache.clear cache; cache))

let prop_cache_capacity_never_exceeded =
  QCheck.Test.make ~name:"bounded cache never exceeds capacity" ~count:100
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 1 60) (pair (int_range 0 2) (int_range 1 20))))
    (fun (cap, ops) ->
      let cache = Plan_cache.create ~capacity:cap () in
      let other = key_of ~conditions:(Conditions.make ()) Join_impl.Smj in
      let key = function 0 -> smj | 1 -> bhj | _ -> other in
      List.for_all
        (fun (k, v) ->
          Plan_cache.insert ~cost:0.0 cache ~key:(key k) ~data_gb:(float_of_int v) (res v 1.0);
          Plan_cache.size cache <= cap)
        ops)

(* ------------------------------------------------- ordered-index removal *)

let test_index_remove_basic () =
  with_index (fun idx ->
      List.iter (fun k -> Ordered_index.insert ~cost:0.0 idx k (int_of_float k)) [ 5.0; 1.0; 3.0 ];
      Alcotest.(check bool) "removes present key" true (Ordered_index.remove idx 3.0);
      Alcotest.(check int) "size drops" 2 (Ordered_index.size idx);
      Alcotest.(check bool) "gone" true (Ordered_index.find_exact idx 3.0 = None);
      Alcotest.(check bool) "missing key is a no-op" false (Ordered_index.remove idx 3.0);
      Alcotest.(check int) "size unchanged" 2 (Ordered_index.size idx);
      Alcotest.(check (list (float 0.0)))
        "order preserved" [ 1.0; 5.0 ]
        (List.map fst (Ordered_index.to_list idx)))

(* -------------------------------------------- nearest: edge-case corpus *)

let test_index_nearest_single_element () =
  with_index (fun idx ->
      Ordered_index.insert ~cost:0.0 idx 5.0 50;
      Alcotest.(check bool) "query below" true
        (Ordered_index.nearest idx ~center:1.0 ~radius:10.0 = Some (5.0, 50));
      Alcotest.(check bool) "query above" true
        (Ordered_index.nearest idx ~center:9.0 ~radius:10.0 = Some (5.0, 50));
      Alcotest.(check bool) "query exact" true
        (Ordered_index.nearest idx ~center:5.0 ~radius:0.0 = Some (5.0, 50));
      Alcotest.(check bool) "radius excludes" true
        (Ordered_index.nearest idx ~center:1.0 ~radius:1.0 = None))

let test_index_nearest_duplicate_inserts () =
  (* Keys are unique: re-inserting overwrites, and nearest sees the latest
     value, never a stale duplicate. *)
  with_index (fun idx ->
      Ordered_index.insert ~cost:0.0 idx 2.0 1;
      Ordered_index.insert ~cost:0.0 idx 2.0 2;
      Ordered_index.insert ~cost:0.0 idx 2.0 3;
      Alcotest.(check int) "one entry" 1 (Ordered_index.size idx);
      Alcotest.(check bool) "latest value" true
        (Ordered_index.nearest idx ~center:2.4 ~radius:1.0 = Some (2.0, 3)))

let test_index_nearest_outside_key_range () =
  with_index (fun idx ->
      List.iter (fun k -> Ordered_index.insert ~cost:0.0 idx k (int_of_float k)) [ 10.0; 20.0; 30.0 ];
      Alcotest.(check bool) "below all keys snaps to the lowest" true
        (Ordered_index.nearest idx ~center:(-5.0) ~radius:100.0 = Some (10.0, 10));
      Alcotest.(check bool) "above all keys snaps to the highest" true
        (Ordered_index.nearest idx ~center:99.0 ~radius:100.0 = Some (30.0, 30));
      Alcotest.(check bool) "below all keys, out of radius" true
        (Ordered_index.nearest idx ~center:(-5.0) ~radius:1.0 = None);
      Alcotest.(check bool) "above all keys, out of radius" true
        (Ordered_index.nearest idx ~center:99.0 ~radius:1.0 = None))

(* ------------------------------------------ planner kernel integration *)

let test_planner_warm_paths_allocate_only_answers () =
  (* A warm closed-form search allocates its result only (the configuration,
     the boxed cost and the record around them), however many cells it
     costs; a warm exact hit, private or shared, allocates only its answer
     (the option, the pair and the boxed cost) and builds no cache key. *)
  let c =
    Conditions.make ~min_containers:1 ~max_containers:200 ~container_step:1 ~min_gb:1.0
      ~max_gb:60.0 ~gb_step:0.5 ()
  in
  let words f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    let r = f () in
    let w = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity r);
    w
  in
  (* Resources record 3 + its boxed memory 2 + boxed cost 2 + record 5. *)
  let result_words = 12.0 in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun impl ->
          List.iter
            (fun small_gb ->
              let kernel = Kernel.make m impl ~small_gb in
              let w = words (fun () -> Kernel.minimum kernel c) in
              if w > result_words then
                Alcotest.failf "%s %s @ %g GB: warm closed-form search allocated %.0f words" name
                  (Join_impl.to_string impl) small_gb w)
            [ 0.05; 2.0; 30.0 ])
        Join_impl.all)
    [ ("paper", model); ("floored", Op_cost.with_floor 0.01 model); ("hive", Raqo.Models.hive ()) ];
  (* option 2 + pair 3 + boxed cost 2 *)
  let answer_words = 7.0 in
  let shared = Raqo_resource.Shared_plan_cache.create () in
  List.iter
    (fun (name, planner) ->
      ignore (plan_smj planner);
      let w = words (fun () -> Resource_planner.plan planner ~model ~impl:Join_impl.Smj ~small_gb:3.0) in
      if w > answer_words then Alcotest.failf "%s exact hit allocated %.0f words" name w)
    [
      ("private", Resource_planner.create Conditions.default);
      ("shared", Resource_planner.create ~shared_cache:shared Conditions.default);
    ]

let test_planner_kernel_disabled_ignores_kernel () =
  let planner =
    Resource_planner.create ~strategy:Resource_planner.Brute_force ~cache:false
      ~kernel:false Conditions.default
  in
  Alcotest.(check bool) "scalar result" true
    (plan_smj ~small_gb:2.0 planner
    = Brute_force.search Conditions.default (op_cost Join_impl.Smj ~small_gb:2.0))

let test_planner_kernel_cache_hit_recosting () =
  (* A miss searches through the kernel; an exact hit answers with the cost
     stored beside the cached configuration, which is the float the kernel
     and the scalar model both give it. *)
  let counters = Counters.create () in
  let planner =
    Resource_planner.create ~strategy:Resource_planner.Hill_climb ~cache:true ~counters
      Conditions.default
  in
  let small_gb = 2.0 in
  let first = plan_smj ~small_gb planner in
  let hit = plan_smj ~small_gb planner in
  Alcotest.(check bool) "hit returns the cached plan at the same cost" true (first = hit);
  Alcotest.(check int) "one hit" 1 (Counters.cache_hits counters);
  Alcotest.(check bool) "hit cost equals the kernel's" true
    (snd hit = Kernel.predict_resources (kernel_of Join_impl.Smj ~small_gb) (fst hit))

(* ---------------------------------------------------- Shared plan cache *)

module Shared_plan_cache = Raqo_resource.Shared_plan_cache

let test_shared_cache_basics () =
  let c = Shared_plan_cache.create ~capacity:10 () in
  Shared_plan_cache.insert ~cost:0.0 c ~key:smj ~data_gb:1.0 (res 4 2.0);
  Shared_plan_cache.insert ~cost:0.0 c ~key:smj ~data_gb:2.0 (res 8 2.0);
  Alcotest.(check (option (module Resources))) "exact hit" (Some (res 4 2.0))
    (Shared_plan_cache.find c ~key:smj ~data_gb:1.0 Plan_cache.Exact);
  Alcotest.(check (option (module Resources))) "range lookups see the whole key"
    (Some (res 8 2.0))
    (Shared_plan_cache.find c ~key:smj ~data_gb:2.2
       (Plan_cache.Nearest_neighbor 1.0));
  Alcotest.(check (option (module Resources))) "miss" None
    (Shared_plan_cache.find c ~key:bhj ~data_gb:1.0 Plan_cache.Exact);
  Alcotest.(check int) "hits" 2 (Shared_plan_cache.hits c);
  Alcotest.(check int) "misses" 1 (Shared_plan_cache.misses c);
  Alcotest.(check int) "inserts" 2 (Shared_plan_cache.inserts c);
  Alcotest.(check int) "size" 2 (Shared_plan_cache.size c);
  Shared_plan_cache.clear c;
  Alcotest.(check int) "clear empties" 0 (Shared_plan_cache.size c);
  Alcotest.(check int) "counters survive clear" 2 (Shared_plan_cache.inserts c)

let test_shared_cache_holds_capacity () =
  (* The capacity is the total bound: more distinct inserts than it, spread
     over both implementations, leave exactly [capacity] entries. *)
  let cap = 24 in
  let c = Shared_plan_cache.create ~capacity:cap () in
  for i = 1 to 3 * cap do
    let key = if i mod 2 = 0 then smj else bhj in
    Shared_plan_cache.insert ~cost:0.0 c ~key ~data_gb:(float_of_int i) (res 1 1.0)
  done;
  Alcotest.(check int) "exactly the capacity" cap (Shared_plan_cache.size c);
  Alcotest.(check int) "evictions make up the rest" (2 * cap) (Shared_plan_cache.evictions c);
  Alcotest.(check int) "both implementations kept" 2 (List.length (Shared_plan_cache.keys c))

(* Seven keys per domain, each a distinct conditions value. *)
let domain_keys =
  Array.init 4 (fun _ ->
      Array.init 7 (fun j ->
          key_of ~conditions:(Conditions.make ())
            (if j mod 2 = 0 then Join_impl.Smj else Join_impl.Bhj)))

(* One domain's deterministic workload over its own key space: find-then-
   insert-on-miss, re-probing a sliding window so hits and misses both
   occur. Returns (finds, hits) so the caller can check counter sums. *)
let shared_cache_workload cache d ops =
  let finds = ref 0 and hits = ref 0 in
  for i = 0 to ops - 1 do
    let key = domain_keys.(d).(i mod 7) in
    let data_gb = float_of_int (i mod 23) in
    incr finds;
    (match Shared_plan_cache.find cache ~key ~data_gb Plan_cache.Exact with
    | Some _ -> incr hits
    | None -> Shared_plan_cache.insert ~cost:0.0 cache ~key ~data_gb (res (1 + (i mod 8)) 2.0))
  done;
  (!finds, !hits)

let run_shared_cache_domains cache ~domains ~ops =
  let spawned =
    List.init (domains - 1) (fun d ->
        Domain.spawn (fun () -> shared_cache_workload cache (d + 1) ops))
  in
  let first = shared_cache_workload cache 0 ops in
  first :: List.map Domain.join spawned

let test_shared_cache_concurrent_no_lost_entries () =
  (* Unbounded cache, disjoint key spaces: every domain's entries must all
     survive, and hit/miss totals must equal a sequential replay's (the
     domains cannot interact without evictions). *)
  let domains = 4 and ops = 400 in
  let cache = Shared_plan_cache.create () in
  let results = run_shared_cache_domains cache ~domains ~ops in
  let total_finds = List.fold_left (fun a (f, _) -> a + f) 0 results in
  let total_hits = List.fold_left (fun a (_, h) -> a + h) 0 results in
  Alcotest.(check int) "hits + misses = finds" total_finds
    (Shared_plan_cache.hits cache + Shared_plan_cache.misses cache);
  Alcotest.(check int) "hits counter agrees" total_hits (Shared_plan_cache.hits cache);
  Alcotest.(check int) "no entry lost" (Shared_plan_cache.inserts cache)
    (Shared_plan_cache.size cache);
  Alcotest.(check int) "no evictions unbounded" 0 (Shared_plan_cache.evictions cache);
  (* Sequential replay on a fresh cache: identical totals. *)
  let seq = Shared_plan_cache.create () in
  let seq_results = List.init domains (fun d -> shared_cache_workload seq d ops) in
  Alcotest.(check bool) "per-domain (finds,hits) match sequential" true
    (List.sort compare results = List.sort compare seq_results);
  Alcotest.(check int) "hits match sequential" (Shared_plan_cache.hits seq)
    (Shared_plan_cache.hits cache);
  Alcotest.(check int) "misses match sequential" (Shared_plan_cache.misses seq)
    (Shared_plan_cache.misses cache);
  Alcotest.(check int) "inserts match sequential" (Shared_plan_cache.inserts seq)
    (Shared_plan_cache.inserts cache);
  let keys = Shared_plan_cache.keys cache in
  Alcotest.(check bool) "same keys as sequential" true
    (List.length keys = List.length (Shared_plan_cache.keys seq)
    && List.for_all (fun k -> List.memq k keys) (Shared_plan_cache.keys seq))

let test_shared_cache_concurrent_lru_bound () =
  (* Bounded cache under cross-domain contention: the total LRU bound must
     hold at every moment (checked after the storm and from a concurrent
     observer), and the entry count must reconcile with the insert and
     eviction counters exactly. *)
  let domains = 4 and ops = 600 and bound = 16 in
  let cache = Shared_plan_cache.create ~capacity:bound () in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let observer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if Shared_plan_cache.size cache > bound then Atomic.incr violations
        done)
  in
  ignore (run_shared_cache_domains cache ~domains ~ops);
  Atomic.set stop true;
  Domain.join observer;
  Alcotest.(check int) "bound never observed exceeded" 0 (Atomic.get violations);
  Alcotest.(check bool) "final size within bound" true (Shared_plan_cache.size cache <= bound);
  (* Disjoint (key, data_gb) spaces mean no overwrites, so every insert
     grew the cache by one and every eviction shrank it: exact accounting. *)
  Alcotest.(check int) "size = inserts - evictions"
    (Shared_plan_cache.inserts cache - Shared_plan_cache.evictions cache)
    (Shared_plan_cache.size cache);
  Alcotest.(check bool) "evictions actually happened" true
    (Shared_plan_cache.evictions cache > 0);
  Alcotest.(check int) "find totals still exact" (domains * ops)
    (Shared_plan_cache.hits cache + Shared_plan_cache.misses cache)

let test_shared_cache_registry_mirrors () =
  (* With observability on, the cache's registry carries equal totals under
     the raqo_shared_plan_cache_* names. *)
  let registry = Raqo_obs.Metrics.create_registry () in
  let cache = Shared_plan_cache.create ~capacity:4 ~registry () in
  Raqo_obs.Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Raqo_obs.Obs.set_enabled false)
    (fun () ->
      ignore (shared_cache_workload cache 0 100);
      let counter name =
        Raqo_obs.Metrics.Counter.value (Raqo_obs.Metrics.counter_in registry name)
      in
      Alcotest.(check int) "hits mirrored" (Shared_plan_cache.hits cache)
        (counter "raqo_shared_plan_cache_hits_total");
      Alcotest.(check int) "misses mirrored" (Shared_plan_cache.misses cache)
        (counter "raqo_shared_plan_cache_misses_total");
      Alcotest.(check int) "inserts mirrored" (Shared_plan_cache.inserts cache)
        (counter "raqo_shared_plan_cache_inserts_total");
      Alcotest.(check int) "evictions mirrored" (Shared_plan_cache.evictions cache)
        (counter "raqo_shared_plan_cache_evictions_total"))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "raqo_resource"
    [
      ( "brute_force",
        [
          Alcotest.test_case "finds the minimum" `Quick test_brute_force_finds_minimum;
          Alcotest.test_case "counts every configuration" `Quick
            test_brute_force_counts_every_config;
          Alcotest.test_case "stable tie-break" `Quick test_brute_force_tie_break_stable;
        ] );
      ( "hill_climb",
        [
          Alcotest.test_case "exact on convex surfaces" `Quick test_hill_climb_convex_exact;
          Alcotest.test_case "cheaper than brute force" `Quick
            test_hill_climb_explores_fewer_than_brute_force;
          Alcotest.test_case "starts from the minimum config" `Quick
            test_hill_climb_starts_at_minimum_config;
          Alcotest.test_case "custom start point" `Quick test_hill_climb_custom_start;
          Alcotest.test_case "start is clamped" `Quick test_hill_climb_start_clamped;
          Alcotest.test_case "saturates at bounds" `Quick test_hill_climb_respects_bounds;
          Alcotest.test_case "terminates on infinite plateau" `Quick
            test_hill_climb_local_optimum_on_infinite_plateau;
        ]
        @ qsuite
            [
              prop_hill_climb_result_within_conditions;
              prop_hill_climb_is_local_optimum;
              prop_hill_climb_never_beats_brute_force;
            ] );
      ( "plan_cache",
        [
          Alcotest.test_case "exact hit/miss" `Quick test_cache_exact_hit_miss;
          Alcotest.test_case "overwrite on same key" `Quick test_cache_overwrite;
          Alcotest.test_case "nearest neighbor" `Quick test_cache_nearest_neighbor;
          Alcotest.test_case "weighted average" `Quick test_cache_weighted_average;
          Alcotest.test_case "weighted average prefers exact" `Quick
            test_cache_weighted_average_prefers_exact;
          Alcotest.test_case "weighted average epsilon exact guard" `Quick
            test_cache_weighted_average_epsilon_exact_guard;
          Alcotest.test_case "weighted average denormal distance" `Quick
            test_cache_weighted_average_denormal_distance;
          Alcotest.test_case "auto-resizing keeps entries" `Quick
            test_cache_resizes_past_initial_capacity;
          Alcotest.test_case "random insert order stays sorted" `Quick
            test_cache_insert_random_order_stays_sorted;
          Alcotest.test_case "clear" `Quick test_cache_clear;
          Alcotest.test_case "hit/miss counters" `Quick test_cache_counters;
          Alcotest.test_case "keys match by identity" `Quick test_cache_key_identity;
        ]
        @ qsuite [ prop_cache_nn_within_threshold; prop_cache_wa_within_neighbor_hull ] );
      ( "ordered_index",
        [
          Alcotest.test_case "insert/find on both backends" `Quick test_index_insert_find;
          Alcotest.test_case "overwrite on both backends" `Quick test_index_overwrite;
          Alcotest.test_case "range queries" `Quick test_index_within;
          Alcotest.test_case "ordered iteration after shuffled inserts" `Quick
            test_index_ordered_iteration;
          Alcotest.test_case "nearest: empty/single/radius" `Quick test_index_nearest_basic;
          Alcotest.test_case "nearest: ties go to the lower key" `Quick
            test_index_nearest_tie_goes_to_lower_key;
          Alcotest.test_case "stamps follow their slots" `Quick test_index_stamps;
          Alcotest.test_case "10k insert/evict cycles reuse the pool" `Quick
            test_index_churn_reuses_pool;
        ]
        @ qsuite [ prop_nearest_matches_linear_scan; prop_index_matches_model ] );
      ( "resource_planner",
        [
          Alcotest.test_case "cache hit short-circuits search" `Quick test_planner_cache_flow;
          Alcotest.test_case "off-grid max_gb: no BHJ configuration" `Quick
            test_planner_off_grid_max_gb_is_infeasible;
          Alcotest.test_case "exact hits return the stored cost" `Quick
            test_planner_exact_hits_return_stored_cost;
          Alcotest.test_case "no cache recomputes" `Quick test_planner_no_cache_recomputes;
          Alcotest.test_case "NN lookup reuses neighbors" `Quick
            test_planner_nn_lookup_reuses_neighbor;
          Alcotest.test_case "brute-force strategy" `Quick test_planner_brute_force_strategy;
          Alcotest.test_case "condition change never reuses plans" `Quick
            test_planner_with_conditions_never_reuses;
          Alcotest.test_case "infeasible BHJ searches nothing" `Quick
            test_planner_infeasible_searches_nothing;
          Alcotest.test_case "reset" `Quick test_planner_reset;
          Alcotest.test_case "counter accumulation" `Quick test_counters_add;
        ] );
      ( "kernel_search",
        [
          Alcotest.test_case "sweep search equals scalar search" `Quick
            test_search_kernel_matches_scalar;
          Alcotest.test_case "tie-break on a floored plateau" `Quick
            test_search_kernel_tie_break_on_plateau;
          Alcotest.test_case "kernel hill climb equals scalar climb" `Quick
            test_hill_climb_kernel_matches_scalar;
        ]
        @ [
            Alcotest.test_case "closed form: few evaluations, floor stops" `Quick
              test_closed_form_evaluations;
            Alcotest.test_case "closed form: overflowing kernels are swept" `Quick
              test_closed_form_sweeps_overflowing_kernels;
            Alcotest.test_case "closed form: first floor cell before the plateau edge" `Quick
              test_closed_form_floor_cell_before_edge;
          ]
        @ qsuite
            [
              prop_kernel_searches_match_scalar_random_grids;
              prop_closed_form_equals_exhaustive;
              prop_closed_form_first_floor_cell;
            ] );
      ( "plan_cache_lru",
        [
          Alcotest.test_case "capacity must be positive" `Quick test_cache_capacity_validates;
          Alcotest.test_case "unbounded by default" `Quick test_cache_unbounded_by_default;
          Alcotest.test_case "evicts least-recently-used" `Quick
            test_cache_capacity_evicts_lru;
          Alcotest.test_case "exact lookup refreshes recency" `Quick
            test_cache_lookup_refreshes_recency;
          Alcotest.test_case "nearest lookup refreshes recency" `Quick
            test_cache_nearest_lookup_refreshes_recency;
          Alcotest.test_case "bound spans cache keys" `Quick test_cache_capacity_spans_keys;
          Alcotest.test_case "overwrite does not evict" `Quick
            test_cache_overwrite_does_not_evict;
          Alcotest.test_case "eviction counters" `Quick test_cache_eviction_counters;
        ]
        @ qsuite [ prop_cache_capacity_never_exceeded ] );
      ( "shared_plan_cache",
        [
          Alcotest.test_case "lookups and counters (sequential)" `Quick
            test_shared_cache_basics;
          Alcotest.test_case "4 domains, no lost entries, sequential totals" `Quick
            test_shared_cache_concurrent_no_lost_entries;
          Alcotest.test_case "4 domains, total LRU bound holds" `Quick
            test_shared_cache_concurrent_lru_bound;
          Alcotest.test_case "registry mirrors" `Quick test_shared_cache_registry_mirrors;
          Alcotest.test_case "holds exactly its capacity" `Quick
            test_shared_cache_holds_capacity;
        ] );
      ( "ordered_index_remove",
        [
          Alcotest.test_case "remove on both backends" `Quick test_index_remove_basic;
        ] );
      ( "ordered_index_nearest_edges",
        [
          Alcotest.test_case "single element" `Quick test_index_nearest_single_element;
          Alcotest.test_case "duplicate inserts overwrite" `Quick
            test_index_nearest_duplicate_inserts;
          Alcotest.test_case "queries outside the key range" `Quick
            test_index_nearest_outside_key_range;
        ] );
      ( "resource_planner_kernel",
        [
          Alcotest.test_case "warm search and exact hit allocate only answers" `Quick
            test_planner_warm_paths_allocate_only_answers;
          Alcotest.test_case "kernel:false ignores kernels, searches scalar" `Quick
            test_planner_kernel_disabled_ignores_kernel;
          Alcotest.test_case "cache hits re-cost to the kernel's float" `Quick
            test_planner_kernel_cache_hit_recosting;
        ] );
    ]
