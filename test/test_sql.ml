(* Tests for the SQL front end: histograms and column stats (catalog),
   lexer, parser, resolver, and the end-to-end Sql_frontend pipeline. *)

module Histogram = Raqo_catalog.Histogram
module Column = Raqo_catalog.Column
module Tpch = Raqo_catalog.Tpch
module Schema = Raqo_catalog.Schema
module Token = Raqo_sql.Token
module Lexer = Raqo_sql.Lexer
module Ast = Raqo_sql.Ast
module Parser = Raqo_sql.Parser
module Resolver = Raqo_sql.Resolver

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------- Histogram *)

let test_hist_uniform_lt () =
  let h = Histogram.uniform ~lo:0.0 ~hi:100.0 in
  check_float "below" 0.0 (Histogram.selectivity_lt h (-5.0));
  check_float "mid" 0.25 (Histogram.selectivity_lt h 25.0);
  check_float "above" 1.0 (Histogram.selectivity_lt h 200.0)

let test_hist_directions_sum () =
  let h = Histogram.uniform ~lo:0.0 ~hi:10.0 in
  check_float "lt + ge = 1" 1.0 (Histogram.selectivity_lt h 3.0 +. Histogram.selectivity_ge h 3.0);
  check_float "le + gt = 1" 1.0 (Histogram.selectivity_le h 7.0 +. Histogram.selectivity_gt h 7.0)

let test_hist_between () =
  let h = Histogram.uniform ~lo:0.0 ~hi:10.0 in
  check_float "quarter" 0.25 (Histogram.selectivity_between h ~lo:2.5 ~hi:5.0);
  check_float "empty" 0.0 (Histogram.selectivity_between h ~lo:5.0 ~hi:2.0);
  check_float "whole" 1.0 (Histogram.selectivity_between h ~lo:(-1.0) ~hi:11.0)

let test_hist_eq () =
  let h = Histogram.uniform ~lo:0.0 ~hi:10.0 in
  check_float "in range" 0.2 (Histogram.selectivity_eq h ~distinct:5.0 4.0);
  check_float "out of range" 0.0 (Histogram.selectivity_eq h ~distinct:5.0 40.0)

let test_hist_of_samples_equi_depth () =
  (* Skewed samples: bucket boundaries follow quantiles, so estimates track
     the data distribution within one bucket's resolution (1/20 here). *)
  let samples = Array.init 100 (fun i -> if i < 90 then float_of_int i else 1000.0) in
  let h = Histogram.of_samples ~buckets:20 samples in
  let at85 = Histogram.selectivity_lt h 85.0 in
  Alcotest.(check bool) (Printf.sprintf "85%% below 85 (got %.2f)" at85) true
    (Float.abs (at85 -. 0.85) < 0.06);
  let at500 = Histogram.selectivity_lt h 500.0 in
  Alcotest.(check bool) (Printf.sprintf "~90%% below 500 (got %.2f)" at500) true
    (Float.abs (at500 -. 0.90) < 0.06)

let test_hist_rejects_bad () =
  Alcotest.check_raises "bounds" (Invalid_argument "Histogram.of_bounds: need at least 2 bounds")
    (fun () -> ignore (Histogram.of_bounds [| 1.0 |]));
  Alcotest.check_raises "order"
    (Invalid_argument "Histogram.of_bounds: bounds must be nondecreasing") (fun () ->
      ignore (Histogram.of_bounds [| 2.0; 1.0 |]))

let prop_hist_lt_monotone =
  QCheck.Test.make ~name:"selectivity_lt is monotone" ~count:100
    QCheck.(triple (float_range 0.0 50.0) (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (lo, a, b) ->
      let h = Histogram.uniform ~lo ~hi:(lo +. 60.0) in
      let x = Float.min a b and y = Float.max a b in
      Histogram.selectivity_lt h x <= Histogram.selectivity_lt h y +. 1e-9)

(* ---------------------------------------------------------------- Column *)

let columns = Tpch.columns ()

let test_column_find_qualified () =
  match Column.find columns ~table:"orders" "o_totalprice" with
  | Ok c -> Alcotest.(check string) "table" "orders" c.Column.table
  | Error e -> Alcotest.fail e

let test_column_find_bare () =
  match Column.find columns "l_quantity" with
  | Ok c -> Alcotest.(check string) "table" "lineitem" c.Column.table
  | Error e -> Alcotest.fail e

let test_column_find_unknown () =
  match Column.find columns "bananas" with
  | Error msg -> Alcotest.(check string) "msg" "unknown column bananas" msg
  | Ok _ -> Alcotest.fail "should not resolve"

let test_column_rejects_bad_distinct () =
  Alcotest.check_raises "distinct" (Invalid_argument "Column.make: nonpositive distinct count")
    (fun () ->
      ignore
        (Column.make ~table:"t" ~name:"c" ~histogram:(Histogram.uniform ~lo:0.0 ~hi:1.0)
           ~distinct:0.0))

(* ----------------------------------------------------------------- Lexer *)

let tokens_exn s =
  match Lexer.tokenize s with
  | Ok ts -> ts
  | Error e -> Alcotest.fail e

let test_lexer_basic () =
  Alcotest.(check (list string)) "select star"
    [ "SELECT"; "*"; "FROM"; "orders"; "<eof>" ]
    (List.map Token.to_string (tokens_exn "SELECT * FROM orders"))

let test_lexer_case_insensitive () =
  Alcotest.(check bool) "keywords fold" true
    (tokens_exn "select" = tokens_exn "SeLeCt")

let test_lexer_operators () =
  Alcotest.(check (list string)) "ops"
    [ "<"; "<="; ">"; ">="; "="; "<>"; "<>"; "<eof>" ]
    (List.map Token.to_string (tokens_exn "< <= > >= = <> !="))

let test_lexer_numbers_strings () =
  match tokens_exn "42 3.14 'BUILDING'" with
  | [ Token.Number a; Token.Number b; Token.Str s; Token.Eof ] ->
      check_float "int" 42.0 a;
      check_float "float" 3.14 b;
      Alcotest.(check string) "string" "BUILDING" s
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_errors () =
  (match Lexer.tokenize "select #" with
  | Error msg -> Alcotest.(check bool) "char error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error");
  match Lexer.tokenize "'unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* ---------------------------------------------------------------- Parser *)

let parse_exn s =
  match Parser.parse s with
  | Ok ast -> ast
  | Error e -> Alcotest.fail e

let test_parse_star () =
  let ast = parse_exn "select * from orders, lineitem" in
  Alcotest.(check int) "no projections" 0 (List.length ast.Ast.projections);
  Alcotest.(check (list string)) "tables" [ "orders"; "lineitem" ]
    (List.map fst ast.Ast.tables)

let test_parse_projections () =
  let ast = parse_exn "select o_orderkey, l.l_quantity from orders, lineitem l" in
  Alcotest.(check int) "two projections" 2 (List.length ast.Ast.projections);
  match ast.Ast.projections with
  | [ a; b ] ->
      Alcotest.(check (option string)) "bare" None a.Ast.table;
      Alcotest.(check (option string)) "qualified" (Some "l") b.Ast.table
  | _ -> Alcotest.fail "two projections"

let test_parse_aliases () =
  let ast = parse_exn "select * from orders as o, lineitem l" in
  Alcotest.(check (list (pair string (option string)))) "aliases"
    [ ("orders", Some "o"); ("lineitem", Some "l") ]
    ast.Ast.tables

let test_parse_where_conjunction () =
  let ast =
    parse_exn
      "select * from customer, orders, lineitem where c_custkey = o_custkey and \
       l_orderkey = o_orderkey and l_quantity < 24"
  in
  Alcotest.(check int) "three predicates" 3 (List.length ast.Ast.where)

let test_parse_between () =
  let ast = parse_exn "select * from lineitem where l_shipdate between 100 and 400" in
  match ast.Ast.where with
  | [ Ast.Between (c, Ast.Number lo, Ast.Number hi) ] ->
      Alcotest.(check string) "col" "l_shipdate" c.Ast.column;
      check_float "lo" 100.0 lo;
      check_float "hi" 400.0 hi
  | _ -> Alcotest.fail "expected a BETWEEN predicate"

let test_parse_literal_on_left () =
  let ast = parse_exn "select * from lineitem where 24 > l_quantity" in
  match ast.Ast.where with
  | [ Ast.Compare (Ast.Gt, Ast.Lit (Ast.Number _), Ast.Col _) ] -> ()
  | _ -> Alcotest.fail "expected literal-left comparison"

let test_parse_trailing_semicolon () =
  ignore (parse_exn "select * from orders;")

let test_parse_errors () =
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" sql)
    [
      "select from orders";
      "select * orders";
      "select * from";
      "select * from orders where";
      "select * from orders where o_totalprice <";
      "select * from orders where between 1 and 2";
      "select * from orders extra garbage +";
      "";
    ]

let test_to_sql_roundtrip_corpus () =
  List.iter
    (fun sql ->
      let once = parse_exn sql in
      let printed = Ast.to_sql once in
      match Parser.parse printed with
      | Ok twice ->
          if twice <> once then Alcotest.failf "round-trip changed: %s -> %s" sql printed
      | Error e -> Alcotest.failf "reprinted SQL does not parse (%s): %s" e printed)
    [
      "select * from orders";
      "select * from orders, lineitem where o_orderkey = l_orderkey";
      "select o_orderkey, l.l_quantity from orders o, lineitem as l where o.o_orderkey = l.l_orderkey and l.l_quantity < 24";
      "select * from lineitem where l_shipdate between 100 and 400 and l_discount <= 0.05";
      "select * from customer where c_mktsegment = 'BUILDING'";
      "select * from lineitem where 24 > l_quantity";
    ]

let prop_parser_never_crashes =
  (* Random token soup: the parser must answer Ok or Error, never raise. *)
  QCheck.Test.make ~name:"parser is total on random input" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 60))
    (fun s ->
      match Parser.parse s with
      | Ok _ | Error _ -> true)

let prop_parser_never_crashes_on_sqlish =
  (* SQL-ish fragments assembled from real tokens are more likely to reach
     deep parser states. *)
  QCheck.Test.make ~name:"parser is total on token soup" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 15) (int_range 0 14))
    (fun ids ->
      let vocab =
        [| "select"; "from"; "where"; "and"; "between"; "*"; ","; "."; "="; "<"; "orders";
           "l_quantity"; "42"; "'x'"; "as" |]
      in
      let s = String.concat " " (List.map (fun i -> vocab.(i)) ids) in
      match Parser.parse s with
      | Ok _ | Error _ -> true)

(* -------------------------------------------------------------- Resolver *)

let schema = Tpch.schema ()

let analyze_exn sql =
  match Resolver.analyze schema columns sql with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let test_resolve_paper_query () =
  let a = analyze_exn "select * from orders, lineitem where o_orderkey = l_orderkey" in
  Alcotest.(check (list string)) "relations" [ "orders"; "lineitem" ] a.Resolver.relations;
  Alcotest.(check int) "one join" 1 (List.length a.Resolver.join_predicates);
  List.iter (fun (_, s) -> check_float "unfiltered" 1.0 s) a.Resolver.table_selectivity

let test_resolve_filter_scales_schema () =
  (* o_totalprice < 172000 selects ~31% of orders: the paper's 5.1 GB sample
     written declaratively. *)
  let a =
    analyze_exn
      "select * from orders, lineitem where o_orderkey = l_orderkey and o_totalprice < 172000"
  in
  let sel = List.assoc "orders" a.Resolver.table_selectivity in
  Alcotest.(check bool) (Printf.sprintf "selectivity ~0.31 (got %.3f)" sel) true
    (sel > 0.29 && sel < 0.33);
  let scaled = (Schema.find a.Resolver.schema "orders").Raqo_catalog.Relation.rows in
  let original = (Schema.find schema "orders").Raqo_catalog.Relation.rows in
  check_float ~eps:1e-6 "rows scaled" (original *. sel) scaled;
  (* lineitem untouched. *)
  check_float "lineitem unscaled"
    (Schema.find schema "lineitem").Raqo_catalog.Relation.rows
    (Schema.find a.Resolver.schema "lineitem").Raqo_catalog.Relation.rows

let test_resolve_aliases () =
  let a =
    analyze_exn
      "select o.o_orderkey from orders o, lineitem l where o.o_orderkey = l.l_orderkey"
  in
  Alcotest.(check int) "one join" 1 (List.length a.Resolver.join_predicates)

let test_resolve_between_filter () =
  let a =
    analyze_exn
      "select * from orders, lineitem where o_orderkey = l_orderkey and l_shipdate \
       between 1 and 1263"
  in
  let sel = List.assoc "lineitem" a.Resolver.table_selectivity in
  Alcotest.(check bool) (Printf.sprintf "half of shipdates (got %.3f)" sel) true
    (sel > 0.45 && sel < 0.55)

let test_resolve_multiple_filters_multiply () =
  let a =
    analyze_exn
      "select * from lineitem where l_quantity < 25.5 and l_discount <= 0.05"
  in
  let sel = List.assoc "lineitem" a.Resolver.table_selectivity in
  (* quantity < 25.5 is (25.5-1)/49 = 0.5; discount <= 0.05 is 0.5. *)
  check_float ~eps:0.02 "product" 0.25 sel

let test_resolve_errors () =
  List.iter
    (fun (sql, fragment) ->
      match Resolver.analyze schema columns sql with
      | Error msg ->
          let contains =
            let n = String.length fragment and h = String.length msg in
            let rec go i = i + n <= h && (String.sub msg i n = fragment || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) (Printf.sprintf "%S in %S" fragment msg) true contains
      | Ok _ -> Alcotest.failf "should not resolve: %s" sql)
    [
      ("select * from nowhere", "unknown table");
      ("select * from orders where bananas < 3", "unknown column");
      ("select * from orders, orders where o_orderkey = o_orderkey", "twice in FROM");
      ("select * from region, orders where r_regionkey = o_custkey", "no join edge");
      ("select * from orders, lineitem where o_orderkey < l_orderkey", "only equality joins");
      ("select * from orders where o_orderkey = o_custkey", "same table");
      ("select * from orders, lineitem", "cartesian");
      ("select * from orders where 1 = 2", "literals");
      ( "select * from orders, lineitem where o_orderkey = l_orderkey and c_acctbal < 0",
        "not in FROM" );
      ("select c_custkey from orders", "not in FROM");
    ]

let test_resolve_unqualified_unique_prefix () =
  (* TPC-H columns have table-unique prefixes: bare names resolve. *)
  let a =
    analyze_exn
      "select * from customer, orders, lineitem where c_custkey = o_custkey and \
       l_orderkey = o_orderkey"
  in
  Alcotest.(check int) "two joins" 2 (List.length a.Resolver.join_predicates)

(* ---------------------------------------------------------- Sql_frontend *)

let test_frontend_end_to_end () =
  match
    Raqo.Sql_frontend.plan_tpch
      "select * from orders, lineitem where o_orderkey = l_orderkey"
  with
  | Ok p ->
      Alcotest.(check bool) "valid plan" true (Raqo_plan.Join_tree.valid p.Raqo.Sql_frontend.plan);
      Alcotest.(check bool) "finite cost" true (Float.is_finite p.Raqo.Sql_frontend.est_cost)
  | Error e -> Alcotest.fail (Raqo.Sql_frontend.error_message e)

let test_frontend_filter_changes_plan_cost () =
  let cost sql =
    match Raqo.Sql_frontend.plan_tpch sql with
    | Ok p -> p.Raqo.Sql_frontend.est_cost
    | Error e -> Alcotest.fail (Raqo.Sql_frontend.error_message e)
  in
  let unfiltered = cost "select * from orders, lineitem where o_orderkey = l_orderkey" in
  let filtered =
    cost
      "select * from orders, lineitem where o_orderkey = l_orderkey and o_totalprice < 172000"
  in
  Alcotest.(check bool)
    (Printf.sprintf "filtered %.1f < unfiltered %.1f" filtered unfiltered)
    true (filtered < unfiltered)

let test_frontend_reports_sql_errors () =
  match Raqo.Sql_frontend.plan_tpch "select * from nowhere" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should fail"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "raqo_sql"
    [
      ( "histogram",
        [
          Alcotest.test_case "uniform lt" `Quick test_hist_uniform_lt;
          Alcotest.test_case "directions sum to 1" `Quick test_hist_directions_sum;
          Alcotest.test_case "between" `Quick test_hist_between;
          Alcotest.test_case "equality" `Quick test_hist_eq;
          Alcotest.test_case "equi-depth from samples" `Quick test_hist_of_samples_equi_depth;
          Alcotest.test_case "rejects bad bounds" `Quick test_hist_rejects_bad;
        ]
        @ qsuite [ prop_hist_lt_monotone ] );
      ( "column",
        [
          Alcotest.test_case "qualified lookup" `Quick test_column_find_qualified;
          Alcotest.test_case "bare lookup via unique name" `Quick test_column_find_bare;
          Alcotest.test_case "unknown column" `Quick test_column_find_unknown;
          Alcotest.test_case "rejects bad distinct" `Quick test_column_rejects_bad_distinct;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "case-insensitive keywords" `Quick test_lexer_case_insensitive;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "numbers and strings" `Quick test_lexer_numbers_strings;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select star" `Quick test_parse_star;
          Alcotest.test_case "projections" `Quick test_parse_projections;
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "WHERE conjunctions" `Quick test_parse_where_conjunction;
          Alcotest.test_case "BETWEEN" `Quick test_parse_between;
          Alcotest.test_case "literal on the left" `Quick test_parse_literal_on_left;
          Alcotest.test_case "trailing semicolon" `Quick test_parse_trailing_semicolon;
          Alcotest.test_case "rejects malformed input" `Quick test_parse_errors;
          Alcotest.test_case "to_sql round-trips" `Quick test_to_sql_roundtrip_corpus;
        ]
        @ qsuite [ prop_parser_never_crashes; prop_parser_never_crashes_on_sqlish ] );
      ( "resolver",
        [
          Alcotest.test_case "the paper's join query" `Quick test_resolve_paper_query;
          Alcotest.test_case "filters scale the schema" `Quick
            test_resolve_filter_scales_schema;
          Alcotest.test_case "aliases" `Quick test_resolve_aliases;
          Alcotest.test_case "BETWEEN filters" `Quick test_resolve_between_filter;
          Alcotest.test_case "filters multiply" `Quick test_resolve_multiple_filters_multiply;
          Alcotest.test_case "error catalogue" `Quick test_resolve_errors;
          Alcotest.test_case "bare columns via unique prefixes" `Quick
            test_resolve_unqualified_unique_prefix;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "SQL to joint plan" `Quick test_frontend_end_to_end;
          Alcotest.test_case "filters reduce plan cost" `Quick
            test_frontend_filter_changes_plan_cost;
          Alcotest.test_case "propagates SQL errors" `Quick test_frontend_reports_sql_errors;
        ] );
    ]
