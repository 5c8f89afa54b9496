(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the per-experiment index and EXPERIMENTS.md
   for paper-vs-measured numbers).

   Run all figures:      dune exec bench/main.exe
   Run a selection:      dune exec bench/main.exe -- fig3 fig13
   Include micro-benches: dune exec bench/main.exe -- all micro
   Full-resolution 15b:  dune exec bench/main.exe -- fig15b-full *)

module Engine = Raqo_execsim.Engine
module Operators = Raqo_execsim.Operators
module Simulate = Raqo_execsim.Simulate
module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions
module Queue_sim = Raqo_cluster.Queue_sim
module Join_impl = Raqo_plan.Join_impl
module Join_tree = Raqo_plan.Join_tree
module Schema = Raqo_catalog.Schema
module Relation = Raqo_catalog.Relation
module Tpch = Raqo_catalog.Tpch
module Switch_points = Raqo_workload.Switch_points
module Counters = Raqo_resource.Counters
module Resource_planner = Raqo_resource.Resource_planner
module Rng = Raqo_util.Rng
module Stats = Raqo_util.Stats
module Table = Raqo_util.Table_fmt
module Timer = Raqo_util.Timer

let hive = Engine.hive
let spark = Engine.spark
let res nc gb = Resources.make ~containers:nc ~container_gb:gb
let f = Table.fseries

(* TPC-H with the orders table sampled down, as the paper does for its
   switch-point experiments ("we adjusted the smaller table size orders"). *)
let tpch = Tpch.schema ()

let tpch_orders_gb gb =
  let orders = Schema.find tpch "orders" in
  Schema.with_relation tpch (Relation.scale orders (gb /. Relation.size_gb orders))

let join_time engine impl ~s ~b r =
  Operators.join_time engine impl ~small_gb:s ~big_gb:b ~resources:r

let cell = function
  | Some t -> f t
  | None -> "OOM"

let note fmt = Printf.printf ("  note: " ^^ fmt ^^ "\n")

(* ------------------------------------------------------------------ Fig 1 *)

let fig1 () =
  let rng = Rng.create 1 in
  let capacity = 90 in
  let jobs = Queue_sim.generate rng Queue_sim.default_workload ~capacity in
  let ratios = Queue_sim.ratios (Queue_sim.run ~capacity jobs) in
  let thresholds = [ 0.01; 0.1; 0.5; 1.0; 2.0; 4.0; 10.0; 100.0 ] in
  let rows =
    List.map
      (fun t -> [ f t; f (Stats.fraction_at_least ratios t) ])
      thresholds
  in
  Table.print ~title:"Figure 1: CDF of queue-time / run-time on a contended cluster"
    ~headers:[ "ratio >="; "fraction of jobs" ]
    rows;
  note "paper: >80%% of jobs wait at least their run time; >20%% wait at least 4x";
  note "measured: %.0f%% wait >= 1x, %.0f%% wait >= 4x"
    (100.0 *. Stats.fraction_at_least ratios 1.0)
    (100.0 *. Stats.fraction_at_least ratios 4.0)

(* ------------------------------------------------------------------ Fig 2 *)

let fig2 () =
  List.iter
    (fun (engine : Engine.t) ->
      let schema = tpch_orders_gb 5.1 in
      let s, b = Simulate.join_inputs schema ~left:[ "orders" ] ~right:[ "lineitem" ] in
      let configs =
        List.concat_map
          (fun nc -> List.map (fun cs -> res nc cs) [ 3.0; 5.0; 7.0; 9.0 ])
          [ 10; 20; 30; 40 ]
      in
      let default_impl = Operators.default_impl engine ~small_gb:s in
      let rows =
        List.filter_map
          (fun r ->
            match
              ( join_time engine default_impl ~s ~b r,
                Operators.best_impl engine ~small_gb:s ~big_gb:b ~resources:r )
            with
            | Some dt, Some (impl, jt) ->
                Some
                  [
                    Resources.to_string r;
                    f dt;
                    f (Resources.tb_seconds r dt);
                    Join_impl.to_string impl;
                    f jt;
                    f (Resources.tb_seconds r jt);
                    f (dt /. jt);
                  ]
            | None, _ | _, None -> None)
          configs
      in
      Table.print
        ~title:
          (Printf.sprintf
             "Figure 2 (%s): default optimizer vs joint query & resource choice \
              (orders 5.1 GB ⋈ lineitem)"
             engine.Engine.name)
        ~headers:
          [ "config"; "default s"; "default TB·s"; "joint impl"; "joint s"; "joint TB·s"; "speedup" ]
        rows;
      let speedups =
        List.filter_map
          (fun row -> match List.nth_opt row 6 with Some x -> float_of_string_opt x | None -> None)
          rows
      in
      let arr = Array.of_list speedups in
      if Array.length arr > 0 then
        note "%s: default plan up to %.2fx slower (paper: up to 2x)" engine.Engine.name
          (snd (Stats.min_max arr)))
    [ hive; spark ]

(* ------------------------------------------------------------------ Fig 3 *)

let fig3 () =
  let b = 77.0 in
  let rows_a =
    List.map
      (fun cs ->
        let r = res 10 cs in
        [ f cs; cell (join_time hive Join_impl.Smj ~s:5.1 ~b r);
          cell (join_time hive Join_impl.Bhj ~s:5.1 ~b r) ])
      [ 2.;3.;4.;5.;6.;7.;8.;9.;10. ]
  in
  Table.print
    ~title:"Figure 3(a): SMJ vs BHJ over container size (5.1 GB orders, 10 containers)"
    ~headers:[ "container GB"; "SMJ s"; "BHJ s" ] rows_a;
  note "paper: BHJ OOM below 5 GB; switch at 7 GB; SMJ stable across sizes";
  let rows_b =
    List.map
      (fun nc ->
        let r = res nc 3.0 in
        [ string_of_int nc; cell (join_time hive Join_impl.Smj ~s:3.4 ~b r);
          cell (join_time hive Join_impl.Bhj ~s:3.4 ~b r) ])
      [ 5; 10; 15; 20; 25; 30; 35; 40; 45 ]
  in
  Table.print
    ~title:"Figure 3(b): SMJ vs BHJ over container count (3.4 GB orders, 3 GB containers)"
    ~headers:[ "containers"; "SMJ s"; "BHJ s" ] rows_b;
  note "paper: BHJ wins below ~20 containers; SMJ ~2x faster at 40"

(* ------------------------------------------------------------------ Fig 4 *)

let fig4 () =
  let b = 77.0 in
  let sizes = [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 10.0; 12.0 ] in
  let sweep title configs =
    let rows =
      List.map
        (fun s ->
          string_of_float s
          :: List.concat_map
               (fun r ->
                 [ cell (join_time hive Join_impl.Smj ~s ~b r);
                   cell (join_time hive Join_impl.Bhj ~s ~b r) ])
               configs)
        sizes
    in
    let headers =
      "orders GB"
      :: List.concat_map
           (fun r -> [ "SMJ " ^ Resources.to_string r; "BHJ " ^ Resources.to_string r ])
           configs
    in
    Table.print ~title ~headers rows
  in
  sweep "Figure 4(a): varying data size at 3 GB vs 9 GB containers (10 containers)"
    [ res 10 3.0; res 10 9.0 ];
  sweep "Figure 4(b): varying data size at 10 vs 40 containers (9 GB containers)"
    [ res 10 9.0; res 40 9.0 ];
  let sw r =
    match Switch_points.find hive ~big_gb:b ~resources:r ~lo:0.3 ~hi:12.0 () with
    | Some s -> Printf.sprintf "%.2f GB" s
    | None -> "none in range"
  in
  note "switch points: 10x3GB -> %s (paper 3.4, OOM-bound); 10x9GB -> %s (paper 6.4)"
    (sw (res 10 3.0)) (sw (res 10 9.0));
  note "switch points: 10x9GB -> %s vs 40x9GB -> %s (paper: moves with container count)"
    (sw (res 10 9.0)) (sw (res 40 9.0))

(* ------------------------------------------------------------------ Fig 5 *)

(* Plan 1: (lineitem BHJ orders) BHJ customer — both joins broadcast.
   Plan 2: (orders BHJ customer) SMJ lineitem — different join order. *)
let fig5_plans =
  let plan1 =
    Join_tree.Join
      ( Join_impl.Bhj,
        Join_tree.Join (Join_impl.Bhj, Join_tree.Scan "lineitem", Join_tree.Scan "orders"),
        Join_tree.Scan "customer" )
  in
  let plan2 =
    Join_tree.Join
      ( Join_impl.Smj,
        Join_tree.Join (Join_impl.Bhj, Join_tree.Scan "orders", Join_tree.Scan "customer"),
        Join_tree.Scan "lineitem" )
  in
  (plan1, plan2)

let fig5 () =
  let plan1, plan2 = fig5_plans in
  let run schema r plan =
    match Simulate.run_plain hive schema ~resources:r plan with
    | Ok run -> Some run.Simulate.seconds
    | Error _ -> None
  in
  let schema_a = tpch_orders_gb 0.85 in
  let rows_a =
    List.map
      (fun cs ->
        let r = res 10 cs in
        [ f cs; cell (run schema_a r plan1); cell (run schema_a r plan2) ])
      [ 2.;3.;4.;5.;6.;7.;8.;9.;10. ]
  in
  Table.print
    ~title:"Figure 5(a): join orders over container size (orders 850 MB, 10 containers)"
    ~headers:[ "container GB"; "plan1 (BHJ,BHJ) s"; "plan2 (BHJ,SMJ) s" ] rows_a;
  note "paper: plan 1 OOM below ~6 GB containers, then better across the board";
  let schema_b = tpch_orders_gb 0.425 in
  let rows_b =
    List.map
      (fun nc ->
        let r = res nc 4.0 in
        [ string_of_int nc; cell (run schema_b r plan1); cell (run schema_b r plan2) ])
      [ 5; 10; 15; 20; 25; 30; 35; 40; 45 ]
  in
  Table.print
    ~title:"Figure 5(b): join orders over container count (orders 425 MB, 4 GB containers)"
    ~headers:[ "containers"; "plan1 (BHJ,BHJ) s"; "plan2 (BHJ,SMJ) s" ] rows_b;
  note "paper: plan 2 overtakes plan 1 at ~32 containers"

(* ------------------------------------------------------------------ Fig 6 *)

let fig6 () =
  let b = 77.0 in
  let money r t = Resources.gb_seconds r t /. 1024.0 in
  let rows_a =
    List.map
      (fun cs ->
        let r = res 10 cs in
        let m impl s = Option.map (money r) (join_time hive impl ~s ~b r) in
        [ f cs; cell (m Join_impl.Smj 5.1); cell (m Join_impl.Bhj 5.1) ])
      [ 2.;3.;4.;5.;6.;7.;8.;9.;10. ]
  in
  Table.print
    ~title:"Figure 6(a): monetary cost (TB·s) over container size (5.1 GB orders, 10 cont.)"
    ~headers:[ "container GB"; "SMJ TB·s"; "BHJ TB·s" ] rows_a;
  let rows_b =
    List.map
      (fun nc ->
        let r = res nc 3.0 in
        let m impl s = Option.map (money r) (join_time hive impl ~s ~b r) in
        [ string_of_int nc; cell (m Join_impl.Smj 3.4); cell (m Join_impl.Bhj 3.4) ])
      [ 5; 10; 15; 20; 25; 30; 35; 40; 45 ]
  in
  Table.print
    ~title:"Figure 6(b): monetary cost (TB·s) over container count (3.4 GB orders, 3 GB)"
    ~headers:[ "containers"; "SMJ TB·s"; "BHJ TB·s" ] rows_b;
  note "paper: either impl can be the cost-effective one; absolute money scales with memory"

(* ------------------------------------------------------------------ Fig 7 *)

let fig7 () =
  let b = 77.0 in
  let configs = [ res 10 3.0; res 10 9.0; res 10 6.0; res 40 3.0; res 40 9.0 ] in
  let rows =
    List.map
      (fun r ->
        let sw metric =
          match Switch_points.find ~metric hive ~big_gb:b ~resources:r ~lo:0.3 ~hi:12.0 () with
          | Some s -> f s
          | None -> "none"
        in
        [ Resources.to_string r; sw Switch_points.Exec_time; sw Switch_points.Monetary ])
      configs
  in
  Table.print
    ~title:"Figure 7: monetary vs execution-time switch points over data size"
    ~headers:[ "config"; "time switch GB"; "money switch GB" ] rows;
  note
    "paper: 'the switching points remain the same, the absolute monetary values change' — \
     at fixed resources money = time x memory, so the columns coincide"

(* ------------------------------------------------------------------ Fig 9 *)

let fig9 () =
  List.iter
    (fun (engine : Engine.t) ->
      let combos =
        [
          (10, Operators.Fixed 200, "<10,200>");
          (10, Operators.Fixed 1000, "<10,1000>");
          (10, Operators.Auto, "<10,auto>");
          (40, Operators.Fixed 200, "<40,200>");
          (40, Operators.Auto, "<40,auto>");
        ]
      in
      let sizes = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
      let rows =
        List.map
          (fun cs ->
            f cs
            :: List.map
                 (fun (nc, reducers, _) ->
                   match
                     Switch_points.find ~reducers engine ~big_gb:77.0 ~resources:(res nc cs)
                       ~lo:0.05 ~hi:14.0 ()
                   with
                   | Some s -> f (s *. 1024.0) (* MB, as in the paper's figure *)
                   | None -> "-")
                 combos)
          sizes
      in
      Table.print
        ~title:
          (Printf.sprintf
             "Figure 9 (%s): BHJ/SMJ switch point (MB of smaller relation) across \
              <containers, reducers> and container size"
             engine.Engine.name)
        ~headers:("cont. GB" :: List.map (fun (_, _, l) -> l) combos @ [ "default rule" ])
        (List.map (fun row -> row @ [ f (engine.Engine.default_bhj_threshold_gb *. 1024.0) ]) rows);
      note "%s: default rule (10 MB) is far below every resource-aware switch point"
        engine.Engine.name)
    [ hive; spark ]

(* ----------------------------------------------------------- Fig 10 & 11 *)

let fig10 () =
  List.iter
    (fun (engine : Engine.t) ->
      Printf.printf "\n== Figure 10 (%s): default join-implementation decision tree ==\n"
        engine.Engine.name;
      print_string (Raqo.Join_dt.render (Raqo.Join_dt.default_tree engine)))
    [ hive; spark ]

let fig11 () =
  List.iter
    (fun (engine : Engine.t) ->
      let tree = Raqo.Join_dt.train ~prune:true engine ~big_gb:77.0 in
      Printf.printf
        "\n== Figure 11 (%s): RAQO decision tree (CART on the data-resource sweep) ==\n"
        engine.Engine.name;
      Printf.printf "nodes=%d leaves=%d depth=%d\n" (Raqo_dtree.Tree.n_nodes tree)
        (Raqo_dtree.Tree.n_leaves tree) (Raqo_dtree.Tree.depth tree);
      (* The full tree is large; print the top levels like the paper's figure. *)
      let rec truncate depth t =
        if depth = 0 then Raqo_dtree.Tree.Leaf { counts = Raqo_dtree.Tree.counts t }
        else begin
          match t with
          | Raqo_dtree.Tree.Leaf _ -> t
          | Raqo_dtree.Tree.Node n ->
              Raqo_dtree.Tree.Node
                { n with left = truncate (depth - 1) n.left; right = truncate (depth - 1) n.right }
        end
      in
      print_string (Raqo.Join_dt.render (truncate 3 tree));
      note "paper: RAQO trees branch on container size and counts, not just data size")
    [ hive; spark ]

(* ----------------------------------------------------------------- Fig 12 *)

let model = lazy (Raqo.Models.hive ())

(* The paper's figures plan resources by hill climbing unless a figure says
   otherwise; the optimizer's own default is the exact grid minimum. *)
let make_opt ?kind ?cache ?lookup ?(strategy = Resource_planner.Hill_climb) ?kernel () =
  Raqo.Cost_based.create ?kind
    ~resource_planner:(Resource_planner.create ~strategy ?cache ?lookup ?kernel)
    ~model:(Lazy.force model) ~conditions:Conditions.default tpch

let time_planner ?(runs = 3) opt query =
  let ms_total = ref 0.0 in
  let evals = ref 0 in
  for _ = 1 to runs do
    Raqo.Cost_based.reset opt;
    let _, ms = Timer.time_ms (fun () -> Raqo.Cost_based.optimize opt query) in
    ms_total := !ms_total +. ms;
    evals := Counters.cost_evaluations (Raqo.Cost_based.counters opt)
  done;
  (!ms_total /. float_of_int runs, !evals)

let fig12 () =
  let kinds = [ ("FastRandomized", Raqo.Cost_based.Fast_randomized); ("Selinger", Raqo.Cost_based.Selinger) ] in
  let rows =
    List.concat_map
      (fun (kname, kind) ->
        List.map
          (fun (qname, rels) ->
            let qo = make_opt ~kind () in
            let fixed = res 10 5.0 in
            let qo_ms =
              let total = ref 0.0 in
              for _ = 1 to 3 do
                let _, ms = Timer.time_ms (fun () -> Raqo.Cost_based.optimize_qo qo ~resources:fixed rels) in
                total := !total +. ms
              done;
              !total /. 3.0
            in
            let raqo_opt = make_opt ~kind ~cache:false () in
            let raqo_ms, evals = time_planner raqo_opt rels in
            [ kname; qname; f qo_ms; f raqo_ms; string_of_int evals ])
          Tpch.evaluation_queries)
      kinds
  in
  Table.print
    ~title:
      "Figure 12: planner runtime, QO vs RAQO (hill climbing, no cache), on TPC-H \
       (100 containers x 10 GB = 1000 resource configurations)"
    ~headers:[ "planner"; "query"; "QO ms"; "RAQO ms"; "resource configs explored" ]
    rows;
  note "paper: RAQO adds resource-planning overhead but stays within milliseconds"

(* ----------------------------------------------------------------- Fig 13 *)

let fig13 () =
  let rows =
    List.map
      (fun (qname, rels) ->
        (* Brute force is the paper's exhaustive scan (the scalar path costs
           every grid cell); the closed form returns the same minimum
           through the kernel from a few cells per memory row. *)
        let brute ~kernel =
          make_opt ~strategy:Resource_planner.Brute_force ~kernel ~cache:false ()
        in
        let bf = brute ~kernel:false and cf = brute ~kernel:true in
        let hc = make_opt ~cache:false () in
        let bf_ms, bf_evals = time_planner bf rels in
        let hc_ms, hc_evals = time_planner hc rels in
        let cf_ms, cf_evals = time_planner cf rels in
        (* Plan quality: does the local search pay anything in plan cost? *)
        let cost_of opt =
          Raqo.Cost_based.reset opt;
          match Raqo.Cost_based.optimize opt rels with
          | Some (_, c) -> c
          | None -> Float.nan
        in
        let bf_cost = cost_of bf and hc_cost = cost_of hc and cf_cost = cost_of cf in
        [
          qname;
          string_of_int bf_evals;
          string_of_int hc_evals;
          f (float_of_int bf_evals /. float_of_int (max 1 hc_evals));
          f bf_ms;
          f hc_ms;
          f (hc_cost /. bf_cost);
          string_of_int cf_evals;
          f cf_ms;
          f (cf_cost /. bf_cost);
        ])
      Tpch.evaluation_queries
  in
  Table.print
    ~title:"Figure 13: hill climbing vs brute-force resource planning (Selinger, TPC-H)"
    ~headers:
      [
        "query"; "BF configs"; "HC configs"; "BF/HC"; "BF ms"; "HC ms"; "HC/BF plan cost";
        "CF configs"; "CF ms"; "CF/BF plan cost";
      ]
    rows;
  note "paper: hill climbing explores ~4x fewer resource configurations";
  note "BF is the exhaustive scalar scan; CF is the same grid minimum in closed form (the default)";
  note "plan-quality columns: 1.00 means the search found the global optimum"

(* ----------------------------------------------------------------- Fig 14 *)

let fig14 () =
  (* The paper sweeps 1e-5..0.1 GB; our TPC-H intermediate sizes are spread
     GBs apart, so the graded regime sits at GB-scale thresholds. *)
  let thresholds = [ 0.0; 1e-4; 1e-2; 0.1; 1.0; 5.0 ] in
  let measure variant =
    let opt =
      match variant with
      | `Plain -> make_opt ~cache:false ()
      | `Nn t -> make_opt ~cache:true ~lookup:(Raqo_resource.Plan_cache.Nearest_neighbor t) ()
      | `Wa t -> make_opt ~cache:true ~lookup:(Raqo_resource.Plan_cache.Weighted_average t) ()
    in
    time_planner opt Tpch.all
  in
  let plain_ms, plain_evals = measure `Plain in
  let rows =
    List.map
      (fun t ->
        let nn_ms, nn_evals = measure (`Nn t) in
        let wa_ms, wa_evals = measure (`Wa t) in
        [
          f t;
          string_of_int plain_evals;
          string_of_int nn_evals;
          string_of_int wa_evals;
          f plain_ms;
          f nn_ms;
          f wa_ms;
        ])
      thresholds
  in
  Table.print
    ~title:"Figure 14: resource-plan caching on TPC-H All (hill climbing underneath)"
    ~headers:
      [ "delta GB"; "HC configs"; "HC+NN configs"; "HC+WA configs"; "HC ms"; "NN ms"; "WA ms" ]
    rows;
  note "paper: caching grows more effective with the threshold, up to ~10x fewer configs"

(* ----------------------------------------------------------------- Fig 15 *)

let fig15a () =
  let rng = Rng.create 2024 in
  let schema = Raqo_catalog.Random_schema.generate rng ~tables:100 in
  let params = { Raqo_planner.Randomized.iterations = 10; max_no_improve = 15 } in
  let mk ?cache ?lookup () =
    Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized ~randomized_params:params
      ~resource_planner:(Resource_planner.create ~strategy:Hill_climb ?cache ?lookup)
      ~model:(Lazy.force model) ~conditions:Conditions.default schema
  in
  let sizes = [ 2; 5; 10; 20; 40; 60; 80; 100 ] in
  let queries =
    List.map (fun n -> (n, Raqo_catalog.Random_schema.query rng schema ~joins:(n - 1))) sizes
  in
  let rows =
    List.map
      (fun (n, rels) ->
        let qo = mk () in
        let qo_ms =
          let _, ms =
            Timer.avg_ms ~runs:3 (fun () ->
                Raqo.Cost_based.optimize_qo qo ~resources:(res 10 5.0) rels)
          in
          ms
        in
        let raqo = mk ~cache:false () in
        let raqo_ms, _ = time_planner raqo rels in
        let cached = mk ~cache:true ~lookup:(Raqo_resource.Plan_cache.Nearest_neighbor 0.05) () in
        let cached_ms, _ = time_planner cached rels in
        [ string_of_int n; f qo_ms; f raqo_ms; f cached_ms ])
      queries
  in
  Table.print
    ~title:
      "Figure 15(a): scalability with schema size (100-table random schema, FastRandomized)"
    ~headers:[ "query size (#tables)"; "QO ms"; "RAQO ms"; "RAQO+cache ms" ]
    rows;
  let ratios col =
    List.filter_map
      (fun row ->
        match (float_of_string_opt (List.nth row col), float_of_string_opt (List.nth row 1)) with
        | Some v, Some q when q > 0.0 -> Some (v /. q)
        | _ -> None)
      rows
  in
  let avg xs = if xs = [] then 0.0 else Stats.mean (Array.of_list xs) in
  note "paper: cached RAQO ~6x faster than uncached, ~1.29x over plain QO";
  note "measured: RAQO/QO avg %.2fx, RAQO+cache/QO avg %.2fx" (avg (ratios 2)) (avg (ratios 3))

let fig15b ~full () =
  let rng = Rng.create 2024 in
  let schema = Raqo_catalog.Random_schema.generate rng ~tables:100 in
  let rels = Schema.relation_names schema in
  let params = { Raqo_planner.Randomized.iterations = 5; max_no_improve = 8 } in
  let container_scales = [ 100; 1_000; 10_000; 100_000 ] in
  let gb_scales = if full then [ 100.0 ] else [ 10.0; 40.0; 70.0; 100.0 ] in
  let rows =
    List.concat_map
      (fun max_containers ->
        List.map
          (fun max_gb ->
            (* The paper keeps allocation granularity at 1 container; that
               makes hill climbs across a 100K-container axis very long, so
               the default run scales the step with the cluster (pass
               fig15b-full for step 1). *)
            let container_step =
              if full then 1 else max 1 (max_containers / 100)
            in
            let conditions =
              Conditions.make ~max_containers ~container_step ~max_gb ~gb_step:10.0
                ~min_gb:10.0 ()
            in
            (* The paper's published cost model descends in container count
               without an interior optimum, so its hill climbs walk to the
               cluster boundary — that is what makes planner overhead grow
               with cluster size in Figure 15(b). Our retrained model has an
               interior optimum and stays flat; use the paper's coefficients
               here for fidelity. *)
            let mk () =
              Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized
                ~randomized_params:params
                ~resource_planner:
                  (Resource_planner.create ~strategy:Hill_climb
                     ~lookup:(Raqo_resource.Plan_cache.Nearest_neighbor 0.05))
                ~model:Raqo_cost.Op_cost.paper ~conditions schema
            in
            let runs = if full then 1 else 2 in
            (* Per-query caching: reset between runs. *)
            let per_query = mk () in
            let per_query_ms, evals = time_planner ~runs per_query rels in
            (* Across-query caching: successive queries keep the cache. *)
            let across = mk () in
            ignore (Raqo.Cost_based.optimize across rels);
            let across_ms =
              let _, ms = Timer.avg_ms ~runs (fun () -> Raqo.Cost_based.optimize across rels) in
              ms
            in
            [
              string_of_int max_containers;
              f max_gb;
              f per_query_ms;
              f across_ms;
              string_of_int evals;
            ])
          gb_scales)
      container_scales
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Figure 15(b): scalability with cluster size, 100-table join (FastRandomized, %s)"
         (if full then "1-container allocation steps" else "allocation step = capacity/100"))
    ~headers:
      [ "max containers"; "max GB"; "RAQO ms (per-query cache)"; "RAQO ms (across-query cache)"; "configs" ]
    rows;
  note "paper: overhead negligible to 1K containers, ~5x beyond 10K; across-query caching ~30%% faster there"

(* ------------------------------------------------- Ablations (extensions) *)

(* Left-deep (Selinger) vs bushy (DPsub) vs randomized, all with resource
   planning in the loop — the "explore the query/resource search space"
   agenda item. *)
let ablation_bushy () =
  let m = Lazy.force model in
  let row schema qname rels =
    let planner () = Raqo_resource.Resource_planner.create Conditions.default in
    let run optimize =
      let coster = Raqo_planner.Coster.raqo m schema (planner ()) in
      let result, ms = Timer.time_ms (fun () -> optimize coster) in
      match result with
      | Some (_, cost) -> (cost, ms)
      | None -> (Float.nan, ms)
    in
    let ld_cost, ld_ms = run (fun c -> Raqo_planner.Selinger.optimize c schema rels) in
    let bu_cost, bu_ms = run (fun c -> Raqo_planner.Dpsub.optimize c schema rels) in
    let rnd_cost, rnd_ms =
      run (fun c -> Raqo_planner.Randomized.optimize (Rng.create 42) c schema rels)
    in
    [
      qname; f ld_cost; f ld_ms; f bu_cost; f bu_ms; f rnd_cost; f rnd_ms;
      f (ld_cost /. bu_cost);
    ]
  in
  let tpch_rows = List.map (fun (q, rels) -> row tpch q rels) Tpch.evaluation_queries in
  (* Random schemas have richer join graphs where bushy trees can win. *)
  let random_rows =
    List.map
      (fun seed ->
        let rng = Rng.create seed in
        let schema = Raqo_catalog.Random_schema.generate rng ~tables:8 in
        (* Scale the generator's 100K-2M-row tables into the multi-GB regime
           where operator choice matters. *)
        let schema =
          List.fold_left
            (fun s r -> Schema.with_relation s (Relation.scale r 100.0))
            schema (Schema.relations schema)
        in
        row schema (Printf.sprintf "rand-%d" seed) (Schema.relation_names schema))
      [ 3; 7; 21; 42 ]
  in
  Table.print
    ~title:"Ablation: left-deep vs bushy vs randomized plan spaces (RAQO costing)"
    ~headers:
      [ "query"; "left-deep cost"; "ms"; "bushy cost"; "ms"; "randomized cost"; "ms"; "LD/bushy" ]
    (tpch_rows @ random_rows);
  note
    "bushy DP never loses; left-deep matches it here (per-join cost keys on the build side, \
     which a best left-deep order matches), while the randomized planner misses some optima \
     on random graphs"

(* Scheduler policies under a capacity dip — "should it delay the job, fail
   it, or pick alternatives at runtime?" *)
let ablation_sched () =
  let m = Lazy.force model in
  let schema = tpch_orders_gb 5.1 in
  let roomy = Conditions.make ~max_containers:100 ~max_gb:10.0 () in
  let reduced = Conditions.make ~max_containers:20 ~max_gb:3.0 () in
  let opt = Raqo.Cost_based.create ~model:m ~conditions:roomy schema in
  match Raqo.Cost_based.optimize opt Tpch.q3 with
  | None -> print_endline "ablation_sched: no plan"
  | Some (plan, _) ->
      let capacity =
        Raqo_scheduler.Capacity.dip ~normal:roomy ~reduced ~from_t:1.0 ~until_t:2000.0
      in
      let policies =
        [
          ("Wait", Raqo_scheduler.Executor.Wait None);
          ("Wait(500s timeout)", Raqo_scheduler.Executor.Wait (Some 500.0));
          ("Fail", Raqo_scheduler.Executor.Fail);
          ("Downscale", Raqo_scheduler.Executor.Downscale);
          ("Reoptimize", Raqo_scheduler.Executor.Reoptimize);
        ]
      in
      let rows =
        List.map
          (fun (name, policy) ->
            match
              Raqo_scheduler.Executor.run ~policy hive ~model:m schema ~capacity plan
            with
            | Raqo_scheduler.Executor.Completed { finish; total_wait; gb_seconds; stages } ->
                let adapted = List.exists (fun s -> s.Raqo_scheduler.Executor.adapted) stages in
                [
                  name; "completed"; f finish; f total_wait; f (gb_seconds /. 1024.0);
                  (if adapted then "yes" else "no");
                ]
            | Raqo_scheduler.Executor.Failed { at_time; reason; _ } ->
                [ name; "FAILED"; f at_time; "-"; "-"; reason ])
          policies
      in
      Table.print
        ~title:
          "Ablation: DAG-scheduler policies under a capacity dip (Q3 planned for the full \
           cluster; cluster drops to 20 x 3 GB during [1, 2000) s)"
        ~headers:[ "policy"; "outcome"; "finish s"; "waited s"; "TB·s"; "adapted" ]
        rows;
      note "adaptive policies complete during the dip; waiting pays the dip length"

(* Robust vs nominal plans under a condition shift. *)
let ablation_robust () =
  let m = Lazy.force model in
  let schema = tpch_orders_gb 5.1 in
  let roomy = Conditions.make ~max_containers:12 ~max_gb:10.0 () in
  let tight = Conditions.make ~max_containers:40 ~max_gb:4.0 () in
  let opt =
    Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized ~model:m ~conditions:roomy
      schema
  in
  let shape_cost conditions shape =
    let o = Raqo.Cost_based.with_conditions opt conditions in
    let coster =
      Raqo_planner.Coster.raqo (Raqo.Cost_based.model o) (Raqo.Cost_based.schema o)
        (Raqo.Cost_based.resource_planner o)
    in
    match Raqo_planner.Coster.cost_tree coster shape with
    | Some (_, c) -> c
    | None -> Float.infinity
  in
  match
    ( Raqo.Cost_based.optimize opt Tpch.all,
      Raqo.Robust.optimize opt ~scenarios:[ roomy; tight ] Tpch.all )
  with
  | Some (nominal, _), Some robust ->
      let nshape = Raqo_planner.Coster.shape_of nominal in
      let rows =
        [
          [
            "nominal (roomy-optimal)";
            f (shape_cost roomy nshape);
            f (shape_cost tight nshape);
            f (Float.max (shape_cost roomy nshape) (shape_cost tight nshape));
          ];
          [
            "robust (worst-case)";
            f (shape_cost roomy robust.Raqo.Robust.shape);
            f (shape_cost tight robust.Raqo.Robust.shape);
            f robust.Raqo.Robust.score;
          ];
        ]
      in
      Table.print
        ~title:
          "Ablation: robust RAQO — plan shapes evaluated under the promised (12 x 10 GB) \
           and spiked (40 x 4 GB) cluster (TPC-H All)"
        ~headers:[ "plan"; "cost @roomy"; "cost @tight"; "worst case" ]
        rows;
      let same =
        Raqo_plan.Join_tree.equal_shape (fun () () -> true) nshape robust.Raqo.Robust.shape
      in
      if same then note "the nominal shape is already worst-case optimal on this instance"
      else note "the robust shape trades optimum-cost for worst-case cost"
  | _ -> print_endline "ablation_robust: planning failed"

(* The time-money Pareto front for TPC-H All. *)
let ablation_pareto () =
  let m = Lazy.force model in
  let opt =
    Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized
      ~randomized_params:{ Raqo_planner.Randomized.iterations = 20; max_no_improve = 30 }
      ~model:m ~conditions:Conditions.default tpch
  in
  let front = Raqo.Pareto.front opt Tpch.all in
  let rows =
    List.map
      (fun (p : Raqo.Use_cases.priced_plan) ->
        let marker =
          match Raqo.Pareto.knee front with
          | Some k when k == p -> "<- knee"
          | Some _ | None -> ""
        in
        [ f p.Raqo.Use_cases.est_cost; Printf.sprintf "$%.4f" p.Raqo.Use_cases.est_money; marker ])
      front
  in
  Table.print
    ~title:"Ablation: time-money Pareto front of joint plans (TPC-H All, randomized planner)"
    ~headers:[ "est cost"; "est money"; "" ]
    rows;
  note "%d candidate plans collapse to a %d-point front" 20 (List.length front)

(* Task-level vs analytical stage model: how much do stragglers and wave
   quantization bend the closed-form operator costs the optimizer plans
   with? *)
let ablation_tasksim () =
  let rng = Rng.create 5 in
  let rows =
    List.concat_map
      (fun nc ->
        List.map
          (fun sigma ->
            (* Average over several draws for stable factors. *)
            let runs = 25 in
            let factors = ref [] and deltas = ref [] in
            for _ = 1 to runs do
              match
                Raqo_execsim.Task_sim.simulate ~noise_sigma:sigma rng hive Join_impl.Smj
                  ~small_gb:3.4 ~big_gb:77.0 ~resources:(res nc 3.0)
              with
              | Some r ->
                  factors := r.Raqo_execsim.Task_sim.straggler_factor :: !factors;
                  deltas :=
                    (r.Raqo_execsim.Task_sim.seconds
                    /. r.Raqo_execsim.Task_sim.analytical_seconds)
                    :: !deltas
              | None -> ()
            done;
            let avg xs = Stats.mean (Array.of_list xs) in
            [
              string_of_int nc;
              f sigma;
              f (avg !factors);
              f (avg !deltas);
            ])
          [ 0.0; 0.15; 0.3; 0.5 ])
      [ 5; 10; 20; 40 ]
  in
  Table.print
    ~title:
      "Ablation: task-level stage simulation vs the analytical model (SMJ, 3.4 GB ⋈ 77 GB, \
       3 GB containers; 25 draws per cell)"
    ~headers:[ "containers"; "task noise σ"; "straggler factor"; "task-level / analytical" ]
    rows;
  note
    "at realistic noise the analytical model the optimizer plans with stays within a few \
     percent of the task-level ground truth"

(* A 200-query workload on a shared FIFO cluster: the Figure 2 comparison
   lifted to workload scale, where faster plans also drain the queue. *)
let ablation_workload () =
  let m = Lazy.force model in
  let rng = Rng.create 11 in
  let submissions =
    Raqo_scheduler.Workload_runner.generate rng ~n:200 ~arrival_rate:0.002 tpch
  in
  let approaches =
    [
      ( "default two-step (10 x 3 GB guess)",
        Raqo_scheduler.Workload_runner.default_planner hive ~resources:(res 10 3.0) );
      ( "default two-step (40 x 9 GB guess)",
        Raqo_scheduler.Workload_runner.default_planner hive ~resources:(res 40 9.0) );
      ( "RAQO (per-query cache)",
        Raqo_scheduler.Workload_runner.raqo_planner ~cache_across_queries:false ~model:m
          ~conditions:Conditions.default () );
      ( "RAQO (across-query cache)",
        Raqo_scheduler.Workload_runner.raqo_planner ~cache_across_queries:true ~model:m
          ~conditions:Conditions.default () );
    ]
  in
  let rows =
    List.map
      (fun (name, planner) ->
        let s, _ = Raqo_scheduler.Workload_runner.run hive tpch submissions ~planner in
        [
          name;
          string_of_int s.Raqo_scheduler.Workload_runner.completed;
          f (s.Raqo_scheduler.Workload_runner.makespan /. 3600.0);
          f s.Raqo_scheduler.Workload_runner.mean_latency;
          f s.Raqo_scheduler.Workload_runner.p95_latency;
          f s.Raqo_scheduler.Workload_runner.total_tb_seconds;
          f s.Raqo_scheduler.Workload_runner.total_plan_ms;
        ])
      approaches
  in
  Table.print
    ~title:
      "Workload: 200 TPC-H queries with random filters, FIFO on a shared cluster \
       (100 x 10 GB conditions)"
    ~headers:
      [ "approach"; "done"; "makespan h"; "mean lat s"; "p95 lat s"; "TB·s"; "plan ms total" ]
    rows;
  note
    "joint optimization pays planner milliseconds to save cluster hours; queue effects \
     compound the per-query gains"

(* -------------------------------------------------------------------- par *)

(* Sequential vs 2-domain randomized restarts, timed in alternating pairs
   (sequential, then pooled, [pairs] times) so host drift hits both sides
   alike. "pairs won" counts the pairs where the pool was faster; a speedup
   is claimed only where it wins nearly every pair. The plan costs must be
   bit-identical: the restart fan-out is deterministic. The random-schema
   rows run 16 restarts with the resource-plan cache off, so every restart
   does its own resource searches; 40 and 70 relations are the sizes
   `trace --random` and the randomized planner exist for. The TPC-H row
   plans the largest query `raqo plan` takes with that command's settings
   (10 restarts, cache on), where a pooled restart's forked resource
   planner starts from a cold private cache. *)
let par_bench () =
  let m = Lazy.force model in
  let pairs = 10 in
  let randomized ?randomized_params ?cache schema () =
    Raqo.Cost_based.create ~kind:Raqo.Cost_based.Fast_randomized ?randomized_params
      ~resource_planner:(Resource_planner.create ?cache)
      ~model:m ~conditions:Conditions.default schema
  in
  let random ~seed ~tables ~relations =
    let rng = Rng.create seed in
    let schema = Raqo_catalog.Random_schema.generate rng ~tables in
    let rels = Raqo_catalog.Random_schema.query rng schema ~joins:(relations - 1) in
    let randomized_params = { Raqo_planner.Randomized.iterations = 16; max_no_improve = 30 } in
    ( Printf.sprintf "%d of %d, 16 restarts, no cache" relations tables,
      randomized ~randomized_params ~cache:false schema,
      rels )
  in
  let queries =
    [
      ( "TPC-H All (8), as raqo plan",
        randomized (Raqo_catalog.Tpch.schema ()),
        Raqo_catalog.Tpch.all );
      random ~seed:7 ~tables:24 ~relations:12;
      random ~seed:8 ~tables:100 ~relations:40;
      random ~seed:9 ~tables:100 ~relations:70;
    ]
  in
  let rows =
    Raqo_par.Pool.with_pool ~jobs:2 (fun pool ->
        List.map
          (fun (label, mk, rels) ->
            let samples =
              List.init pairs (fun _ ->
                  let seq, seq_ms =
                    Timer.time_ms (fun () -> Raqo.Cost_based.optimize (mk ()) rels)
                  in
                  let par, par_ms =
                    Timer.time_ms (fun () -> Raqo.Cost_based.optimize_par (mk ()) pool rels)
                  in
                  (seq_ms, par_ms, Option.map snd seq = Option.map snd par))
            in
            let median g = Stats.median (Array.of_list (List.map g samples)) in
            let seq_ms = median (fun (s, _, _) -> s) and par_ms = median (fun (_, p, _) -> p) in
            [
              label;
              f seq_ms;
              f par_ms;
              f (seq_ms /. par_ms);
              Printf.sprintf "%d/%d"
                (List.length (List.filter (fun (s, p, _) -> p < s) samples))
                pairs;
              (if List.for_all (fun (_, _, same) -> same) samples then "yes" else "NO");
            ])
          queries)
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Parallel planning: randomized restarts, sequential vs 2 domains in %d alternating \
          pairs (host has %d cores)"
         pairs (Domain.recommended_domain_count ()))
    ~headers:[ "query"; "seq ms"; "2 domains ms"; "speedup"; "pairs won"; "same cost" ]
    rows;
  note "medians over the pairs; the restart fan-out returns bit-identical plans"

(* ------------------------------------------------------------------ micro *)

(* Every feasible (implementation, size) pair of the Hive model over 400
   log-spaced build sizes from 1 MB to 100 GB on the default grid. *)
let grid_searches () =
  let m = Lazy.force model in
  let probe = Raqo_resource.Resource_planner.create ~cache:false Conditions.default in
  let sizes =
    List.init 400 (fun i -> Float.pow 10.0 (-3.0103 +. (5.0103 *. float_of_int i /. 399.0)))
  in
  List.concat_map
    (fun small_gb ->
      List.filter_map
        (fun impl ->
          Option.map
            (fun _ -> (impl, small_gb))
            (Raqo_resource.Resource_planner.plan probe ~model:m ~impl ~small_gb))
        Join_impl.all)
    sizes

let micro () =
  let open Bechamel in
  let cost_eval =
    let m = Lazy.force model in
    let r = res 40 5.0 in
    Test.make ~name:"cost-model eval"
      (Staged.stage (fun () ->
           Raqo_cost.Op_cost.predict_exn m Join_impl.Smj ~small_gb:3.3 ~resources:r))
  in
  let hill_climb =
    let bowlish (r : Resources.t) =
      let dn = float_of_int (r.containers - 42) and dg = r.container_gb -. 6.0 in
      (dn *. dn) +. (10.0 *. dg *. dg)
    in
    Test.make ~name:"hill climb (1000-config space)"
      (Staged.stage (fun () -> Raqo_resource.Hill_climb.plan Conditions.default bowlish))
  in
  let cache =
    let c = Raqo_resource.Plan_cache.create () in
    let key =
      { Raqo_resource.Plan_cache.model = Raqo_cost.Op_cost.paper;
        conditions = Conditions.default; impl = Join_impl.Smj }
    in
    for i = 1 to 256 do
      ignore (Raqo_resource.Plan_cache.insert ~cost:0.0 c ~key ~data_gb:(float_of_int i) (res i 1.0))
    done;
    Test.make ~name:"cache lookup (NN, 256 entries)"
      (Staged.stage (fun () ->
           Raqo_resource.Plan_cache.find c ~key ~data_gb:77.7
             (Raqo_resource.Plan_cache.Nearest_neighbor 1.0)))
  in
  let selinger =
    let coster = Raqo_planner.Coster.fixed (Lazy.force model) tpch (res 10 5.0) in
    Test.make ~name:"Selinger DP on TPC-H All"
      (Staged.stage (fun () -> Raqo_planner.Selinger.optimize coster tpch Tpch.all))
  in
  let dpsub name rels =
    let coster = Raqo_planner.Coster.fixed (Lazy.force model) tpch (res 10 5.0) in
    Test.make ~name:("DPsub on TPC-H " ^ name)
      (Staged.stage (fun () -> Raqo_planner.Dpsub.optimize coster tpch rels))
  in
  let simulate =
    Test.make ~name:"simulated join execution"
      (Staged.stage (fun () ->
           Operators.join_time hive Join_impl.Smj ~small_gb:5.1 ~big_gb:77.0
             ~resources:(res 10 5.0)))
  in
  (* One uncached resource-planner search per pair, kernel compiled per
     search as on a cache miss; the sweep row compiles and sweeps. *)
  let m = Lazy.force model in
  let searches = grid_searches () in
  let planner strategy =
    Raqo_resource.Resource_planner.create ~strategy ~cache:false Conditions.default
  in
  let closed = planner Raqo_resource.Resource_planner.Brute_force in
  let climbing = planner Raqo_resource.Resource_planner.Hill_climb in
  let search_all name search =
    Test.make ~name:(Printf.sprintf "%d grid searches: %s" (List.length searches) name)
      (Staged.stage (fun () ->
           List.iter (fun s -> ignore (Sys.opaque_identity (search s))) searches))
  in
  let plan p (impl, small_gb) = Raqo_resource.Resource_planner.plan p ~model:m ~impl ~small_gb in
  let closed_form = search_all "closed form" (plan closed) in
  let climb = search_all "hill climb" (plan climbing) in
  let buf = Array.make (Conditions.n_configs Conditions.default) 0.0 in
  let sweep =
    search_all "kernel sweep" (fun (impl, small_gb) ->
        Raqo_cost.Kernel.sweep (Raqo_cost.Kernel.make m impl ~small_gb) Conditions.default buf)
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [ cost_eval; hill_climb; cache; selinger; dpsub "Q3" Tpch.q3; dpsub "All" Tpch.all;
        simulate; closed_form; climb; sweep ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Table.fseries x
        | Some [] | None -> "?"
      in
      rows := [ name; ns ] :: !rows)
    results;
  Table.print ~title:"Micro-benchmarks (Bechamel OLS)" ~headers:[ "operation"; "ns/run" ]
    (List.sort compare !rows);
  let n = List.length searches in
  let per_search p =
    Counters.reset (Raqo_resource.Resource_planner.counters p);
    let costs = List.map (fun s -> Option.map snd (plan p s)) searches in
    let evals = Counters.cost_evaluations (Raqo_resource.Resource_planner.counters p) in
    (costs, float_of_int evals /. float_of_int n)
  in
  let closed_costs, closed_evals = per_search closed in
  let climb_costs, climb_evals = per_search climbing in
  let differ = List.length (List.filter Fun.id (List.map2 ( <> ) closed_costs climb_costs)) in
  note
    "grid searches: the %d feasible (impl, size) pairs of the Hive model over 400 log-spaced \
     sizes from 1 MB to 100 GB on the 100 x 10 grid, one uncached search each; divide ns/run \
     by %d for one search"
    n n;
  note
    "evaluations per search: closed form %.1f, climb %.1f, sweep %d; the climb's cost differs \
     from the grid minimum on %d of %d"
    closed_evals climb_evals (Conditions.n_configs Conditions.default) differ n

(* ------------------------------------------------------------------ main *)

let figures =
  [
    ("fig1", "queue-time/run-time CDF", fig1);
    ("fig2", "default vs joint optimization, Hive & Spark", fig2);
    ("fig3", "SMJ vs BHJ over resources", fig3);
    ("fig4", "switch points over data and resources", fig4);
    ("fig5", "join orders over resources", fig5);
    ("fig6", "monetary cost over resources", fig6);
    ("fig7", "monetary switch points", fig7);
    ("fig9", "switch-point frontier, Hive & Spark", fig9);
    ("fig10", "default decision trees", fig10);
    ("fig11", "RAQO decision trees", fig11);
    ("fig12", "planner runtimes QO vs RAQO", fig12);
    ("fig13", "hill climbing vs brute force", fig13);
    ("fig14", "resource-plan caching", fig14);
    ("fig15a", "scalability with schema size", fig15a);
    ("fig15b", "scalability with cluster size", fig15b ~full:false);
    ("bushy", "ablation: left-deep vs bushy vs randomized", ablation_bushy);
    ("sched", "ablation: DAG-scheduler policies under a capacity dip", ablation_sched);
    ("robust", "ablation: robust vs nominal plans", ablation_robust);
    ("pareto", "ablation: time-money Pareto front", ablation_pareto);
    ("workload", "workload-scale RAQO vs the two-step default", ablation_workload);
    ("tasksim", "ablation: task-level vs analytical stage model", ablation_tasksim);
    ("par", "parallel planning: randomized restarts across domain pools", par_bench);
  ]

(* The sections that exist only as argument names, not in [figures]. *)
let special_sections =
  [
    ("all", "every figure section above (the default with no arguments)");
    ("micro", "Bechamel micro-benchmarks");
    ("fig15b-full", "Figure 15(b) with 1-container allocation steps (slow)");
  ]

let list_sections oc =
  List.iter (fun (n, d, _) -> Printf.fprintf oc "  %-12s %s\n" n d) figures;
  List.iter (fun (n, d) -> Printf.fprintf oc "  %-12s %s\n" n d) special_sections

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Refuse unknown section names outright: a misspelt section would
     otherwise be skipped silently and the run still exit 0. *)
  let known name =
    List.exists (fun (n, _, _) -> n = name) figures
    || List.mem_assoc name special_sections
  in
  (match List.filter (fun a -> not (known a)) args with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown section%s: %s\navailable sections:\n"
        (if List.length unknown = 1 then "" else "s")
        (String.concat " " unknown);
      list_sections stderr;
      exit 2);
  let run_all = args = [] || List.mem "all" args in
  List.iter
    (fun (name, _desc, run) ->
      if run_all || List.mem name args then begin
        let _, s = Timer.time run in
        Printf.printf "  [%s completed in %.1f s]\n%!" name s
      end)
    figures;
  if List.mem "fig15b-full" args then fig15b ~full:true ();
  if List.mem "micro" args then micro ()
