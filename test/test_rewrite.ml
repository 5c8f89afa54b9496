(* Tests for Raqo_rewrite: the logical rewrite memo — rule firing, the exact
   gates, the zero-allocation no-op fast path, and the threading through
   Cost_based / Sql_frontend. *)

module Relation = Raqo_catalog.Relation
module Join_graph = Raqo_catalog.Join_graph
module Schema = Raqo_catalog.Schema
module Tpch = Raqo_catalog.Tpch
module Rewrite = Raqo_rewrite.Rewrite
module Cost_based = Raqo.Cost_based

let edge left right selectivity = { Join_graph.left; right; selectivity }

let rel name rows = Relation.make ~name ~rows ~row_bytes:100.0

(* A star with an exactly-absorbable FK dimension: power-of-two rows make
   [rows *. (1.0 /. rows)] exactly 1.0, so the exact [<= 1.0] gate fires
   without any rounding slack. *)
let fk_schema () =
  Schema.make
    [ rel "fact" 1_000_000.0; rel "dim" 65536.0; rel "other" 1000.0 ]
    (Join_graph.make
       [ edge "fact" "dim" (1.0 /. 65536.0); edge "fact" "other" 1e-3 ])

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if not (Int64.equal (bits expected) (bits actual)) then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let rows schema name = (Schema.find schema name).Relation.rows
let width schema name = (Schema.find schema name).Relation.row_bytes

(* ------------------------------------------------------------ no-op path *)

let test_noop_physically_unchanged () =
  let schema = Tpch.schema () in
  let rels = [ "customer"; "orders"; "lineitem" ] in
  let t = Rewrite.create schema in
  Alcotest.(check bool) "no rule fired" false (Rewrite.apply t ~hints:Rewrite.no_hints rels);
  Alcotest.(check bool) "schema is the argument" true (Rewrite.schema_out t == schema);
  Alcotest.(check bool) "relations are the argument" true (Rewrite.relations_out t == rels);
  Alcotest.(check bool) "report unchanged" false (Rewrite.last t).Rewrite.changed;
  (* All-referenced hints are equally a guaranteed no-op. *)
  let all = { Rewrite.filters = []; referenced = Some rels } in
  Alcotest.(check bool) "all-referenced no-op" false (Rewrite.apply t ~hints:all rels);
  Alcotest.(check bool) "still the argument" true (Rewrite.relations_out t == rels)

let test_degenerate_inputs_noop () =
  let schema = fk_schema () in
  let t = Rewrite.create schema in
  let hints = { Rewrite.filters = [ ("fact", 0.5) ]; referenced = Some [] } in
  (* Self-join (duplicate relation): the memo admits each relation once, so
     the query is handed back untouched for the planner to reject or handle. *)
  let dup = [ "fact"; "fact"; "dim" ] in
  Alcotest.(check bool) "duplicate list" false (Rewrite.apply t ~hints dup);
  Alcotest.(check bool) "duplicate untouched" true (Rewrite.relations_out t == dup);
  (* Unknown relation: same contract. *)
  let unknown = [ "fact"; "nope" ] in
  Alcotest.(check bool) "unknown relation" false (Rewrite.apply t ~hints unknown);
  Alcotest.(check bool) "unknown untouched" true (Rewrite.relations_out t == unknown);
  (* Empty query. *)
  Alcotest.(check bool) "empty list" false (Rewrite.apply t ~hints [])

let test_noop_fast_path_allocation_free () =
  let schema = Tpch.schema () in
  let rels = Schema.relation_names schema in
  let t = Rewrite.create schema in
  let all = { Rewrite.filters = []; referenced = Some rels } in
  (* Warm both no-op shapes once, then probe the minor heap across many
     applies: anything allocated per call would show up thousands of words
     over 1000 iterations; the slack only covers the Gc probe's own boxes. *)
  ignore (Rewrite.apply t ~hints:Rewrite.no_hints rels);
  ignore (Rewrite.apply t ~hints:all rels);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Rewrite.apply t ~hints:Rewrite.no_hints rels);
    ignore (Rewrite.apply t ~hints:all rels)
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw >= 64.0 then Alcotest.failf "no-op apply allocated (%.0f minor words / 2000 calls)" dw

(* -------------------------------------------------------------- pushdown *)

let test_pushdown_replays_resolver_formula () =
  let schema = Tpch.schema () in
  let rels = [ "customer"; "orders"; "lineitem" ] in
  let sel = 0.3087 in
  let t = Rewrite.create schema in
  let hints = { Rewrite.filters = [ ("orders", sel) ]; referenced = None } in
  Alcotest.(check bool) "pushdown fired" true (Rewrite.apply t ~hints rels);
  let out = Rewrite.schema_out t in
  let r = rows schema "orders" in
  check_bits "resolver scan-scaling formula, bitwise"
    (r *. Float.max (1.0 /. r) sel)
    (rows out "orders");
  check_bits "other scans untouched" (rows schema "lineitem") (rows out "lineitem");
  check_bits "widths untouched" (width schema "orders") (width out "orders");
  let report = Rewrite.last t in
  Alcotest.(check int) "one pushdown" 1 report.Rewrite.pushdown;
  Alcotest.(check int) "no removal" 0 report.Rewrite.removed;
  Alcotest.(check (list (pair string int))) "fired list" [ ("pushdown", 1) ]
    (Rewrite.fired report);
  (* Selectivities >= 1 and names outside the query are ignored. *)
  let silly =
    { Rewrite.filters = [ ("orders", 1.0); ("nation", 0.5) ]; referenced = None }
  in
  Alcotest.(check bool) "ignored filters are a no-op" false (Rewrite.apply t ~hints:silly rels)

(* ------------------------------------------------------ FK-leaf absorption *)

let test_fk_leaf_absorbed () =
  let schema = fk_schema () in
  let rels = [ "fact"; "dim"; "other" ] in
  let t = Rewrite.create schema in
  let hints = { Rewrite.filters = []; referenced = Some [ "fact"; "other" ] } in
  Alcotest.(check bool) "fired" true (Rewrite.apply t ~hints rels);
  Alcotest.(check (list string)) "dim absorbed, order preserved" [ "fact"; "other" ]
    (Rewrite.relations_out t);
  let out = Rewrite.schema_out t in
  (* rows(dim) * sel = 65536 * 2^-16 = 1.0 exactly: fact's cardinality is
     scaled by exactly 1.0, i.e. unchanged bitwise. *)
  check_bits "fact rows scaled by exactly 1.0" (rows schema "fact") (rows out "fact");
  let report = Rewrite.last t in
  Alcotest.(check int) "one fk absorption" 1 report.Rewrite.fk;
  Alcotest.(check int) "one removal" 1 report.Rewrite.removed;
  Alcotest.(check (list (pair string string))) "group merge recorded"
    [ ("dim", "fact") ] report.Rewrite.absorbed

let test_fk_gate_is_exact () =
  (* 65537 rows against the same 2^-16 selectivity: the product is > 1.0, so
     the exact gate must hold the relation in the query. *)
  let schema =
    Schema.make
      [ rel "fact" 1_000_000.0; rel "dim" 65537.0; rel "other" 1000.0 ]
      (Join_graph.make
         [ edge "fact" "dim" (1.0 /. 65536.0); edge "fact" "other" 1e-3 ])
  in
  let t = Rewrite.create schema in
  let hints = { Rewrite.filters = []; referenced = Some [ "fact"; "other" ] } in
  ignore (Rewrite.apply t ~hints [ "fact"; "dim"; "other" ]);
  Alcotest.(check (list string)) "dim survives (narrowed, not removed)"
    [ "fact"; "dim"; "other" ] (Rewrite.relations_out t);
  Alcotest.(check int) "no removal" 0 (Rewrite.last t).Rewrite.removed;
  check_bits "but narrowed to the key stub" Rewrite.projected_row_bytes
    (width (Rewrite.schema_out t) "dim")

let test_predicates_on_both_sides_of_removable_edge () =
  let schema = fk_schema () in
  let rels = [ "fact"; "dim"; "other" ] in
  let t = Rewrite.create schema in
  let hints =
    {
      Rewrite.filters = [ ("fact", 0.25); ("dim", 0.5) ];
      referenced = Some [ "fact"; "other" ];
    }
  in
  Alcotest.(check bool) "fired" true (Rewrite.apply t ~hints rels);
  Alcotest.(check (list string)) "dim still absorbable after its own filter"
    [ "fact"; "other" ] (Rewrite.relations_out t);
  let out = Rewrite.schema_out t in
  (* Pushdown first (both sides), then absorption folds the filtered dim's
     rows times the edge selectivity into fact: 32768 * 2^-16 = 0.5. *)
  let fact0 = rows schema "fact" *. 0.25 in
  let dim0 = rows schema "dim" *. 0.5 in
  check_bits "fact = pushdown then fold, bitwise"
    (fact0 *. (dim0 *. (1.0 /. 65536.0)))
    (rows out "fact");
  let report = Rewrite.last t in
  Alcotest.(check int) "two pushdowns" 2 report.Rewrite.pushdown;
  Alcotest.(check int) "one fk absorption" 1 report.Rewrite.fk

let test_fk_cascade () =
  (* d2 is a leaf off d1; absorbing d2 turns d1 into a leaf off fact, which
     the interleaved saturation then absorbs too. A fourth relation keeps
     the live count above the >2 gate for both removals. *)
  let schema =
    Schema.make
      [ rel "fact" 1e6; rel "x" 1e5; rel "d1" 65536.0; rel "d2" 256.0 ]
      (Join_graph.make
         [
           edge "fact" "x" 1e-4;
           edge "fact" "d1" (1.0 /. 65536.0);
           edge "d1" "d2" (1.0 /. 256.0);
         ])
  in
  let t = Rewrite.create schema in
  let hints = { Rewrite.filters = []; referenced = Some [ "fact"; "x" ] } in
  Alcotest.(check bool) "fired" true (Rewrite.apply t ~hints [ "fact"; "x"; "d1"; "d2" ]);
  Alcotest.(check (list string)) "both dimensions gone" [ "fact"; "x" ]
    (Rewrite.relations_out t);
  Alcotest.(check int) "two fk absorptions" 2 (Rewrite.last t).Rewrite.fk

(* ----------------------------------------------------- constant absorption *)

let test_constant_connectivity_gate () =
  (* Chain a — c — b with constant c: removing the cut vertex would
     disconnect the query, so the rule must not fire; c is narrowed instead. *)
  let chain =
    Schema.make
      [ rel "a" 1e5; rel "c" 1.0; rel "b" 1e4 ]
      (Join_graph.make [ edge "a" "c" 0.1; edge "c" "b" 0.1 ])
  in
  let t = Rewrite.create chain in
  let hints = { Rewrite.filters = []; referenced = Some [ "a"; "b" ] } in
  ignore (Rewrite.apply t ~hints [ "a"; "c"; "b" ]);
  Alcotest.(check (list string)) "cut vertex survives" [ "a"; "c"; "b" ]
    (Rewrite.relations_out t);
  Alcotest.(check int) "no constant absorption" 0 (Rewrite.last t).Rewrite.constant;
  (* Close the triangle and the same constant is removable: survivors stay
     connected through the a — b edge, and both edge selectivities fold into
     the lowest-index live neighbour. *)
  let triangle =
    Schema.make
      [ rel "a" 1e5; rel "c" 1.0; rel "b" 1e4 ]
      (Join_graph.make [ edge "a" "c" 0.1; edge "c" "b" 0.1; edge "a" "b" 0.01 ])
  in
  let t = Rewrite.create triangle in
  Alcotest.(check bool) "fires on the triangle" true (Rewrite.apply t ~hints [ "a"; "c"; "b" ]);
  Alcotest.(check (list string)) "constant removed" [ "a"; "b" ] (Rewrite.relations_out t);
  Alcotest.(check int) "one constant absorption" 1 (Rewrite.last t).Rewrite.constant;
  check_bits "edge products folded into a, bitwise"
    (1e5 *. (1.0 *. 0.1 *. 0.1))
    (rows (Rewrite.schema_out t) "a")

(* ---------------------------------------------------- projection narrowing *)

let test_projection_narrowing_spares_referenced () =
  (* "other" is unreferenced but not absorbable (1000 * 0.01 = 10 rows out
     of the join), so it is narrowed to the key stub; "dim" would be
     absorbable but is referenced, which pins both its membership and its
     width. *)
  let schema =
    Schema.make
      [ rel "fact" 1_000_000.0; rel "dim" 65536.0; rel "other" 1000.0 ]
      (Join_graph.make
         [ edge "fact" "dim" (1.0 /. 65536.0); edge "fact" "other" 0.01 ])
  in
  let t = Rewrite.create schema in
  let hints = { Rewrite.filters = []; referenced = Some [ "fact"; "dim" ] } in
  ignore (Rewrite.apply t ~hints [ "fact"; "dim"; "other" ]);
  let out = Rewrite.schema_out t in
  Alcotest.(check (list string)) "nothing removed" [ "fact"; "dim"; "other" ]
    (Rewrite.relations_out t);
  check_bits "unreferenced survivor narrowed" Rewrite.projected_row_bytes
    (width out "other");
  check_bits "referenced relations keep their width" (width schema "dim") (width out "dim");
  check_bits "rows never change under narrowing" (rows schema "other") (rows out "other");
  Alcotest.(check int) "one narrowing" 1 (Rewrite.last t).Rewrite.project

(* ------------------------------------------------------ optimizer threading *)

let conditions = Raqo_cluster.Conditions.make ~max_containers:8 ~max_gb:6.0 ()
let model = Raqo_cost.Op_cost.with_floor 0.01 Raqo_cost.Op_cost.paper

let test_cost_based_default_identity () =
  let schema = Tpch.schema () in
  let rels = [ "customer"; "orders"; "lineitem" ] in
  let run rewrite =
    let t =
      Cost_based.create
        ~resource_planner:(Raqo_resource.Resource_planner.create ~kernel:false)
        ~rewrite ~model ~conditions schema
    in
    Cost_based.optimize t rels
  in
  Alcotest.(check bool) "rewrite-on (default hints) = rewrite-off, bitwise" true
    (run true = run false)

let test_cost_based_hinted_never_worse () =
  let schema = fk_schema () in
  let rels = [ "fact"; "dim"; "other" ] in
  let hints = { Rewrite.filters = []; referenced = Some [ "fact"; "other" ] } in
  let run rewrite =
    let t =
      Cost_based.create
        ~resource_planner:(Raqo_resource.Resource_planner.create ~kernel:false)
        ~rewrite ~rewrite_hints:hints ~model ~conditions schema
    in
    Cost_based.optimize t rels
  in
  match (run true, run false) with
  | Some (_, on), Some (_, off) ->
      if not (on <= off) then Alcotest.failf "rewritten cost %h > unrewritten %h" on off
  | _ -> Alcotest.fail "expected plans from both optimizers"

let test_cost_based_absorption_shrinks_search () =
  (* A chain whose referenced front third is dense and whose unreferenced
     tail is a cascade of exactly-absorbable FK leaves (power-of-two rows):
     absorbing the tail leaves the exact DP a much smaller instance. Counted
     in cost evaluations, not time, so the bound holds on any host; with the
     trained Hive model the counts are 22,167 -> 1,014 at n = 16 and
     29,267 -> 1,443 at n = 20. *)
  let chain n =
    let name i = Printf.sprintf "t%d" i in
    let front = n / 3 in
    let rels =
      List.init n (fun i ->
          Relation.make ~name:(name i)
            ~rows:(if i < front then 1_048_576.0 else 65536.0)
            ~row_bytes:128.0)
    in
    let edges =
      List.init (n - 1) (fun i ->
          edge (name i) (name (i + 1)) (if i + 1 >= front then 1.0 /. 65536.0 else 1e-4))
    in
    ( Schema.make rels (Join_graph.make edges),
      { Rewrite.filters = []; referenced = Some (List.init front name) } )
  in
  List.iter
    (fun n ->
      let schema, hints = chain n in
      let run rewrite =
        let t =
          Cost_based.create ~kind:Cost_based.Bushy_dp ~rewrite ~rewrite_hints:hints
            ~model:(Raqo.Models.hive ()) ~conditions:Raqo_cluster.Conditions.default schema
        in
        let result = Cost_based.optimize t (Schema.relation_names schema) in
        (result, Raqo_resource.Counters.cost_evaluations (Cost_based.counters t))
      in
      match (run true, run false) with
      | (Some (_, on), on_evals), (Some (_, off), off_evals) ->
          if not (on <= off) then
            Alcotest.failf "n=%d: rewritten cost %h > unrewritten %h" n on off;
          if not (10 * on_evals <= off_evals) then
            Alcotest.failf "n=%d: %d evaluations with rewrite vs %d without (want >= 10x fewer)"
              n on_evals off_evals
      | _ -> Alcotest.failf "n=%d: expected plans from both optimizers" n)
    [ 16; 20 ]

let test_sql_frontend_bitwise_identity () =
  (* Filter-only select-star SQL: pushdown replays the resolver's scan
     scaling bitwise, so the rewritten plan and cost equal the historical
     path exactly. *)
  let sql =
    "select * from orders, lineitem where o_orderkey = l_orderkey and o_totalprice < \
     172000"
  in
  let plan rewrite =
    match
      Raqo.Sql_frontend.plan ~rewrite ~model ~conditions
        ~schema:(Tpch.schema ()) ~columns:(Tpch.columns ()) (Raqo.Sql_frontend.Sql sql)
    with
    | Ok planned -> planned
    | Error e -> Alcotest.failf "plan failed: %s" (Raqo.Sql_frontend.error_message e)
  in
  let on = plan true and off = plan false in
  Alcotest.(check bool) "same joint plan" true
    (on.Raqo.Sql_frontend.plan = off.Raqo.Sql_frontend.plan);
  (match on.Raqo.Sql_frontend.rewrite with
  | Some r ->
      Alcotest.(check bool) "pushdown reported" true (r.Rewrite.pushdown >= 1)
  | None -> Alcotest.fail "rewrite-on must carry a report");
  Alcotest.(check bool) "rewrite-off carries no report" true
    (off.Raqo.Sql_frontend.rewrite = None)

let test_sql_frontend_narrows_unprojected () =
  (* A projected column list leaves lineitem join-only: narrowing fires and
     the joint cost cannot exceed the unrewritten plan's. *)
  let sql =
    "select o_orderkey from orders, lineitem where o_orderkey = l_orderkey and \
     o_totalprice < 172000"
  in
  let plan rewrite =
    match
      Raqo.Sql_frontend.plan ~rewrite ~model ~conditions
        ~schema:(Tpch.schema ()) ~columns:(Tpch.columns ()) (Raqo.Sql_frontend.Sql sql)
    with
    | Ok planned -> planned
    | Error e -> Alcotest.failf "plan failed: %s" (Raqo.Sql_frontend.error_message e)
  in
  let on = plan true in
  match on.Raqo.Sql_frontend.rewrite with
  | Some r -> Alcotest.(check bool) "narrowing fired" true (r.Rewrite.project >= 1)
  | None -> Alcotest.fail "expected a rewrite report"

let () =
  Alcotest.run "raqo_rewrite"
    [
      ( "noop",
        [
          Alcotest.test_case "physically unchanged" `Quick test_noop_physically_unchanged;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs_noop;
          Alcotest.test_case "allocation-free fast path" `Quick
            test_noop_fast_path_allocation_free;
        ] );
      ( "rules",
        [
          Alcotest.test_case "pushdown replays the resolver" `Quick
            test_pushdown_replays_resolver_formula;
          Alcotest.test_case "fk leaf absorbed" `Quick test_fk_leaf_absorbed;
          Alcotest.test_case "fk gate is exact" `Quick test_fk_gate_is_exact;
          Alcotest.test_case "predicates on both sides" `Quick
            test_predicates_on_both_sides_of_removable_edge;
          Alcotest.test_case "fk cascade" `Quick test_fk_cascade;
          Alcotest.test_case "constant needs connectivity" `Quick
            test_constant_connectivity_gate;
          Alcotest.test_case "narrowing spares referenced" `Quick
            test_projection_narrowing_spares_referenced;
        ] );
      ( "threading",
        [
          Alcotest.test_case "cost-based default identity" `Quick
            test_cost_based_default_identity;
          Alcotest.test_case "cost-based hinted never worse" `Quick
            test_cost_based_hinted_never_worse;
          Alcotest.test_case "absorption shrinks the search" `Quick
            test_cost_based_absorption_shrinks_search;
          Alcotest.test_case "sql frontend bitwise identity" `Quick
            test_sql_frontend_bitwise_identity;
          Alcotest.test_case "sql frontend narrows unprojected" `Quick
            test_sql_frontend_narrows_unprojected;
        ] );
    ]
