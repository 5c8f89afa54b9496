(* Tests for Raqo_catalog: relations, join graphs, schemas and cardinality
   estimation, the TPC-H instance, random schema generation. *)

module Relation = Raqo_catalog.Relation
module Join_graph = Raqo_catalog.Join_graph
module Schema = Raqo_catalog.Schema
module Tpch = Raqo_catalog.Tpch
module Random_schema = Raqo_catalog.Random_schema
module Interned = Raqo_catalog.Interned
module Rng = Raqo_util.Rng

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------- Relation *)

let test_relation_size () =
  let r = Relation.make ~name:"t" ~rows:1024.0 ~row_bytes:(1024.0 *. 1024.0) in
  check_float "1 GB" 1.0 (Relation.size_gb r)

let test_relation_rejects_bad () =
  Alcotest.check_raises "rows" (Invalid_argument "Relation.make: rows must be positive")
    (fun () -> ignore (Relation.make ~name:"t" ~rows:0.0 ~row_bytes:10.0));
  Alcotest.check_raises "bytes"
    (Invalid_argument "Relation.make: row_bytes must be positive") (fun () ->
      ignore (Relation.make ~name:"t" ~rows:10.0 ~row_bytes:(-1.0)))

let test_relation_scale () =
  let r = Relation.make ~name:"t" ~rows:100.0 ~row_bytes:10.0 in
  let r2 = Relation.scale r 0.5 in
  check_float "rows scaled" 50.0 r2.Relation.rows;
  check_float "bytes unchanged" 10.0 r2.Relation.row_bytes

(* ----------------------------------------------------------- Join_graph *)

let small_graph () =
  Join_graph.make
    [
      { Join_graph.left = "a"; right = "b"; selectivity = 0.1 };
      { Join_graph.left = "b"; right = "c"; selectivity = 0.01 };
    ]

let test_graph_selectivity_symmetric () =
  let g = small_graph () in
  Alcotest.(check (option (float 1e-12))) "a-b" (Some 0.1) (Join_graph.selectivity g "a" "b");
  Alcotest.(check (option (float 1e-12))) "b-a" (Some 0.1) (Join_graph.selectivity g "b" "a");
  Alcotest.(check (option (float 1e-12))) "a-c" None (Join_graph.selectivity g "a" "c")

let test_graph_rejects_self_edge () =
  Alcotest.check_raises "self" (Invalid_argument "Join_graph.make: self-edge") (fun () ->
      ignore (Join_graph.make [ { Join_graph.left = "a"; right = "a"; selectivity = 0.5 } ]))

let test_graph_rejects_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Join_graph.make: duplicate edge")
    (fun () ->
      ignore
        (Join_graph.make
           [
             { Join_graph.left = "a"; right = "b"; selectivity = 0.5 };
             { Join_graph.left = "b"; right = "a"; selectivity = 0.2 };
           ]))

let test_graph_rejects_bad_selectivity () =
  Alcotest.check_raises "sel" (Invalid_argument "Join_graph.make: selectivity out of (0,1]")
    (fun () ->
      ignore (Join_graph.make [ { Join_graph.left = "a"; right = "b"; selectivity = 0.0 } ]))

let test_graph_neighbors () =
  let g = small_graph () in
  Alcotest.(check (list string)) "b's neighbors" [ "a"; "c" ]
    (List.sort compare (Join_graph.neighbors g "b"))

let test_graph_edges_between () =
  let g = small_graph () in
  Alcotest.(check int) "one crossing edge" 1
    (List.length (Join_graph.edges_between g [ "a"; "b" ] [ "c" ]));
  Alcotest.(check int) "no crossing edge" 0
    (List.length (Join_graph.edges_between g [ "a" ] [ "c" ]))

let test_graph_connected () =
  let g = small_graph () in
  Alcotest.(check bool) "abc connected" true (Join_graph.connected g [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "ac disconnected" false (Join_graph.connected g [ "a"; "c" ]);
  Alcotest.(check bool) "singleton connected" true (Join_graph.connected g [ "a" ]);
  Alcotest.(check bool) "empty connected" true (Join_graph.connected g [])

(* --------------------------------------------------------------- Schema *)

let tiny_schema () =
  let relations =
    [
      Relation.make ~name:"a" ~rows:1000.0 ~row_bytes:100.0;
      Relation.make ~name:"b" ~rows:100.0 ~row_bytes:50.0;
      Relation.make ~name:"c" ~rows:10.0 ~row_bytes:10.0;
    ]
  in
  Schema.make relations (small_graph ())

let test_schema_find () =
  let s = tiny_schema () in
  check_float "rows of b" 100.0 (Schema.find s "b").Relation.rows;
  Alcotest.(check bool) "mem" true (Schema.mem s "c");
  Alcotest.(check bool) "not mem" false (Schema.mem s "zz")

let test_schema_rejects_duplicate_relation () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate relation a")
    (fun () ->
      ignore
        (Schema.make
           [
             Relation.make ~name:"a" ~rows:1.0 ~row_bytes:1.0;
             Relation.make ~name:"a" ~rows:2.0 ~row_bytes:1.0;
           ]
           (Join_graph.make [])))

let test_schema_rejects_unknown_edge () =
  Alcotest.check_raises "edge" (Invalid_argument "Schema.make: edge references unknown relation b")
    (fun () ->
      ignore
        (Schema.make
           [ Relation.make ~name:"a" ~rows:1.0 ~row_bytes:1.0 ]
           (Join_graph.make [ { Join_graph.left = "a"; right = "b"; selectivity = 0.5 } ])))

let test_schema_join_rows_pair () =
  let s = tiny_schema () in
  (* |a ⋈ b| = 1000 * 100 * 0.1 = 10000 *)
  check_float "a⋈b rows" 10_000.0 (Schema.join_rows s [ "a"; "b" ]);
  (* joining all three multiplies both selectivities *)
  check_float "a⋈b⋈c rows" (1000.0 *. 100.0 *. 10.0 *. 0.1 *. 0.01)
    (Schema.join_rows s [ "a"; "b"; "c" ])

let test_schema_join_rows_single () =
  let s = tiny_schema () in
  check_float "single" 10.0 (Schema.join_rows s [ "c" ])

let test_schema_join_rows_floor () =
  (* Estimates never drop below one row. *)
  let relations =
    [
      Relation.make ~name:"x" ~rows:2.0 ~row_bytes:8.0;
      Relation.make ~name:"y" ~rows:2.0 ~row_bytes:8.0;
    ]
  in
  let g = Join_graph.make [ { Join_graph.left = "x"; right = "y"; selectivity = 0.001 } ] in
  let s = Schema.make relations g in
  check_float "floored at 1" 1.0 (Schema.join_rows s [ "x"; "y" ])

let test_schema_join_row_bytes () =
  let s = tiny_schema () in
  check_float "widths add" 150.0 (Schema.join_row_bytes s [ "a"; "b" ])

let test_schema_with_relation () =
  let s = tiny_schema () in
  let s2 = Schema.with_relation s (Relation.make ~name:"b" ~rows:7.0 ~row_bytes:50.0) in
  check_float "replaced" 7.0 (Schema.find s2 "b").Relation.rows;
  check_float "original untouched" 100.0 (Schema.find s "b").Relation.rows

let test_schema_joinable () =
  let s = tiny_schema () in
  Alcotest.(check bool) "a,b joinable" true (Schema.joinable s [ "a"; "b" ]);
  Alcotest.(check bool) "a,c not joinable" false (Schema.joinable s [ "a"; "c" ])

(* ----------------------------------------------------------------- TPCH *)

let test_tpch_has_8_tables () =
  let s = Tpch.schema () in
  Alcotest.(check int) "8 relations" 8 (List.length (Schema.relations s))

let test_tpch_sf100_sizes () =
  let s = Tpch.schema () in
  (* The paper's SF-100 setup: lineitem ~77 GB. *)
  let li = Relation.size_gb (Schema.find s "lineitem") in
  Alcotest.(check bool) "lineitem ~77 GB" true (li > 70.0 && li < 85.0);
  let orders = Relation.size_gb (Schema.find s "orders") in
  Alcotest.(check bool) "orders ~16.5 GB" true (orders > 14.0 && orders < 19.0)

let test_tpch_scale_factor_scales_facts_not_nation () =
  let s1 = Tpch.schema ~scale_factor:1.0 () in
  let s100 = Tpch.schema ~scale_factor:100.0 () in
  check_float "lineitem scales 100x"
    (100.0 *. (Schema.find s1 "lineitem").Relation.rows)
    (Schema.find s100 "lineitem").Relation.rows;
  check_float "nation fixed" (Schema.find s1 "nation").Relation.rows
    (Schema.find s100 "nation").Relation.rows

let test_tpch_pk_fk_join_cardinality () =
  let s = Tpch.schema () in
  (* lineitem ⋈ orders on the FK: |result| = |lineitem|. *)
  check_float "fk join preserves fact table"
    (Schema.find s "lineitem").Relation.rows
    (Schema.join_rows s [ "orders"; "lineitem" ])

let test_tpch_queries_joinable () =
  let s = Tpch.schema () in
  List.iter
    (fun (name, rels) ->
      Alcotest.(check bool) (name ^ " joinable") true (Schema.joinable s rels))
    Tpch.evaluation_queries

let test_tpch_all_has_every_table () =
  Alcotest.(check int) "8 relations in All" 8 (List.length Tpch.all)

let test_tpch_rejects_bad_sf () =
  Alcotest.check_raises "sf" (Invalid_argument "Tpch.schema: scale factor must be positive")
    (fun () -> ignore (Tpch.schema ~scale_factor:0.0 ()))

(* -------------------------------------------------------- Random_schema *)

let test_random_schema_table_count () =
  let rng = Rng.create 42 in
  let s = Random_schema.generate rng ~tables:25 in
  Alcotest.(check int) "25 tables" 25 (List.length (Schema.relations s))

let test_random_schema_within_paper_bounds () =
  let rng = Rng.create 43 in
  let s = Random_schema.generate rng ~tables:40 in
  List.iter
    (fun (r : Relation.t) ->
      Alcotest.(check bool) "rows in [100K,2M]" true (r.rows >= 100_000.0 && r.rows <= 2_000_000.0);
      Alcotest.(check bool) "bytes in [100,200]" true (r.row_bytes >= 100.0 && r.row_bytes <= 200.0))
    (Schema.relations s)

let test_random_schema_connected () =
  let rng = Rng.create 44 in
  let s = Random_schema.generate rng ~tables:60 in
  Alcotest.(check bool) "whole schema joinable" true
    (Schema.joinable s (Schema.relation_names s))

let test_random_schema_deterministic () =
  let s1 = Random_schema.generate (Rng.create 7) ~tables:10 in
  let s2 = Random_schema.generate (Rng.create 7) ~tables:10 in
  List.iter2
    (fun (a : Relation.t) (b : Relation.t) ->
      Alcotest.(check string) "names" a.name b.name;
      check_float "rows" a.rows b.rows)
    (Schema.relations s1) (Schema.relations s2)

let test_random_query_connected () =
  let rng = Rng.create 45 in
  let s = Random_schema.generate rng ~tables:30 in
  for joins = 1 to 20 do
    let rels = Random_schema.query rng s ~joins in
    Alcotest.(check int) "size" (joins + 1) (List.length rels);
    Alcotest.(check bool) "joinable" true (Schema.joinable s rels)
  done

let test_random_query_rejects_oversize () =
  let rng = Rng.create 46 in
  let s = Random_schema.generate rng ~tables:3 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Random_schema.query: more joins than relations") (fun () ->
      ignore (Random_schema.query rng s ~joins:5))

(* The quadratic fold [Schema.join_rows] used before it walked each
   member's join peers: every pair of list positions looked up once, later
   positions in list order, the per-member sums added from the right. Edge
   selectivities come from a table built here from [Join_graph.edges], so
   the reference shares no lookup code with the schema. *)
let reference_join_size_gb schema names =
  let sel = Hashtbl.create 256 in
  List.iter
    (fun (e : Join_graph.edge) ->
      Hashtbl.replace sel (e.left, e.right) e.selectivity;
      Hashtbl.replace sel (e.right, e.left) e.selectivity)
    (Join_graph.edges (Schema.graph schema));
  let rec pairs = function
    | [] -> 0.0
    | x :: rest ->
        let here =
          List.fold_left
            (fun acc y ->
              match Hashtbl.find_opt sel (x, y) with Some s -> acc +. log s | None -> acc)
            0.0 rest
        in
        here +. pairs rest
  in
  let log_base =
    List.fold_left (fun acc name -> acc +. log (Schema.find schema name).rows) 0.0 names
  in
  let log_rows = log_base +. pairs names in
  let rows = if log_rows > 700.0 then 1e304 else Float.max 1.0 (exp log_rows) in
  Raqo_util.Units.gb_of_bytes (rows *. Schema.join_row_bytes schema names)

let test_join_size_matches_quadratic_fold () =
  (* Connected walks of 2-100 relations in shuffled orders, the same lists
     with one name repeated, and random (mostly disconnected) sets, on the
     100-table catalog of the join-large benchmark; plus TPC-H's queries. *)
  let catalog = Random_schema.generate (Rng.create 2018) ~tables:100 in
  let rng = Rng.create 22 in
  let check what names =
    let expected = reference_join_size_gb catalog names
    and actual = Schema.join_size_gb catalog names in
    if Int64.bits_of_float expected <> Int64.bits_of_float actual then
      Alcotest.failf "%s (%d relations): %h, reference %h" what (List.length names) actual
        expected
  in
  let shuffled l =
    let a = Array.of_list l in
    Rng.shuffle rng a;
    Array.to_list a
  in
  let all_names = Schema.relation_names catalog in
  for n = 2 to 100 do
    let walk = shuffled (Random_schema.query rng catalog ~joins:(n - 1)) in
    check "walk" walk;
    let at = Rng.int rng n in
    let extra = List.nth walk (Rng.int rng n) in
    let repeated = List.concat (List.mapi (fun i r -> if i = at then [ r; extra ] else [ r ]) walk) in
    check "repeated name" repeated;
    let sample = List.filteri (fun i _ -> i < n) (shuffled all_names) in
    check (if Schema.joinable catalog sample then "sample" else "disconnected") sample
  done;
  let tpch = Tpch.schema () in
  List.iter
    (fun (what, names) ->
      Alcotest.(check int64) what
        (Int64.bits_of_float (reference_join_size_gb tpch names))
        (Int64.bits_of_float (Schema.join_size_gb tpch names)))
    [ ("Q3", Tpch.q3); ("Q12", Tpch.q12); ("Q2", Tpch.q2); ("All", Tpch.all);
      ("All reversed", List.rev Tpch.all) ]

(* [Interned.make]'s edge tables as they were built before it walked each
   relation's join peers: one selectivity lookup per pair of positions. *)
let reference_interned_edges schema names =
  let rels = Array.of_list names in
  let n = Array.length rels in
  let graph = Schema.graph schema in
  let adj = Array.make n 0 and log_sel = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        match Join_graph.selectivity graph rels.(i) rels.(j) with
        | Some s ->
            adj.(i) <- adj.(i) lor (1 lsl j);
            log_sel.((i * n) + j) <- log s
        | None -> ()
    done
  done;
  (adj, log_sel)

let test_interned_edges_match_pairwise_build () =
  (* Walks of 2-62 relations in shuffled orders and the same lists with one
     name repeated, on the join-large benchmark's 100-table catalog; plus
     TPC-H's queries. *)
  let catalog = Random_schema.generate (Rng.create 2018) ~tables:100 in
  let rng = Rng.create 23 in
  let check what schema names =
    let ctx = Interned.make schema names in
    let adj, log_sel = reference_interned_edges schema names in
    let n = List.length names in
    for i = 0 to n - 1 do
      if (Interned.adj ctx).(i) <> adj.(i) then
        Alcotest.failf "%s (%d relations): adjacency of %d is %#x, reference %#x" what n i
          (Interned.adj ctx).(i) adj.(i);
      for j = 0 to n - 1 do
        let got = Interned.log_selectivity ctx i j and want = log_sel.((i * n) + j) in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          Alcotest.failf "%s (%d relations): log selectivity (%d, %d) is %h, reference %h" what
            n i j got want
      done
    done
  in
  for n = 2 to Interned.max_relations do
    let walk = Array.of_list (Random_schema.query rng catalog ~joins:(n - 1)) in
    Rng.shuffle rng walk;
    let walk = Array.to_list walk in
    check "walk" catalog walk;
    if n < Interned.max_relations then begin
      let at = Rng.int rng n and extra = List.nth walk (Rng.int rng n) in
      check "repeated name" catalog
        (List.concat (List.mapi (fun i r -> if i = at then [ r; extra ] else [ r ]) walk))
    end
  done;
  let tpch = Tpch.schema () in
  List.iter
    (fun (what, names) -> check what tpch names)
    [ ("Q3", Tpch.q3); ("Q12", Tpch.q12); ("Q2", Tpch.q2); ("All", Tpch.all);
      ("All reversed", List.rev Tpch.all); ("orders twice", [ "orders"; "lineitem"; "orders" ]) ]

let prop_random_schema_always_connected =
  QCheck.Test.make ~name:"random schemas are connected" ~count:30
    QCheck.(pair (int_range 1 50) (int_range 2 50))
    (fun (seed, tables) ->
      let s = Random_schema.generate (Rng.create seed) ~tables in
      Schema.joinable s (Schema.relation_names s))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "raqo_catalog"
    [
      ( "relation",
        [
          Alcotest.test_case "size in GB" `Quick test_relation_size;
          Alcotest.test_case "rejects bad inputs" `Quick test_relation_rejects_bad;
          Alcotest.test_case "scale" `Quick test_relation_scale;
        ] );
      ( "join_graph",
        [
          Alcotest.test_case "selectivity is symmetric" `Quick test_graph_selectivity_symmetric;
          Alcotest.test_case "rejects self edges" `Quick test_graph_rejects_self_edge;
          Alcotest.test_case "rejects duplicates" `Quick test_graph_rejects_duplicate;
          Alcotest.test_case "rejects bad selectivity" `Quick test_graph_rejects_bad_selectivity;
          Alcotest.test_case "neighbors" `Quick test_graph_neighbors;
          Alcotest.test_case "edges between sets" `Quick test_graph_edges_between;
          Alcotest.test_case "connectivity" `Quick test_graph_connected;
        ] );
      ( "schema",
        [
          Alcotest.test_case "find/mem" `Quick test_schema_find;
          Alcotest.test_case "rejects duplicate relations" `Quick
            test_schema_rejects_duplicate_relation;
          Alcotest.test_case "rejects unknown edge endpoints" `Quick
            test_schema_rejects_unknown_edge;
          Alcotest.test_case "join cardinality (pair and triple)" `Quick
            test_schema_join_rows_pair;
          Alcotest.test_case "join cardinality (single)" `Quick test_schema_join_rows_single;
          Alcotest.test_case "cardinality floored at 1" `Quick test_schema_join_rows_floor;
          Alcotest.test_case "join row widths add" `Quick test_schema_join_row_bytes;
          Alcotest.test_case "with_relation replaces" `Quick test_schema_with_relation;
          Alcotest.test_case "joinable" `Quick test_schema_joinable;
          Alcotest.test_case "join sizes = the quadratic fold, bitwise" `Quick
            test_join_size_matches_quadratic_fold;
          Alcotest.test_case "interned edges = the pairwise build, bitwise" `Quick
            test_interned_edges_match_pairwise_build;
        ] );
      ( "tpch",
        [
          Alcotest.test_case "8 tables" `Quick test_tpch_has_8_tables;
          Alcotest.test_case "SF-100 sizes match the paper" `Quick test_tpch_sf100_sizes;
          Alcotest.test_case "SF scales facts, not nation" `Quick
            test_tpch_scale_factor_scales_facts_not_nation;
          Alcotest.test_case "PK-FK join cardinality" `Quick test_tpch_pk_fk_join_cardinality;
          Alcotest.test_case "evaluation queries joinable" `Quick test_tpch_queries_joinable;
          Alcotest.test_case "All joins every table" `Quick test_tpch_all_has_every_table;
          Alcotest.test_case "rejects bad scale factor" `Quick test_tpch_rejects_bad_sf;
        ] );
      ( "random_schema",
        [
          Alcotest.test_case "table count" `Quick test_random_schema_table_count;
          Alcotest.test_case "paper's size bounds" `Quick test_random_schema_within_paper_bounds;
          Alcotest.test_case "connected" `Quick test_random_schema_connected;
          Alcotest.test_case "deterministic from seed" `Quick test_random_schema_deterministic;
          Alcotest.test_case "random queries connected" `Quick test_random_query_connected;
          Alcotest.test_case "rejects oversized queries" `Quick test_random_query_rejects_oversize;
        ]
        @ qsuite [ prop_random_schema_always_connected ] );
    ]
