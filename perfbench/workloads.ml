(* Seeded inputs for the three workloads. Everything here is a pure function
   of the seed: the program under test only ever sees the generated request
   lines (serve-tpch, alloc-wave) or relation lists (join-large). *)

module P = Raqo_server.Protocol
module Json = Raqo_server.Json
module Cb = Raqo.Cost_based
module Rng = Raqo_util.Rng

(* Selinger, the protocol's default planner, takes half of the plan requests;
   DPsub and the randomized planner a quarter each. *)
let planners = [| Cb.Selinger; Cb.Bushy_dp; Cb.Selinger; Cb.Fast_randomized |]

(* ------------------------------------------------------------ serve-tpch *)

(* TPC-H joins with one range filter each. The constant moves the filtered
   table's cardinality, so every distinct constant is a distinct set of
   shared-plan-cache keys. The projected variants leave tables join-only,
   which lets the rewrite pass fire (narrowing, FK absorption). *)
let templates =
  [|
    ( "select * from orders, lineitem where o_orderkey = l_orderkey and \
       o_totalprice < ",
      60_000.0,
      550_000.0 );
    ( "select o_orderkey from customer, orders, lineitem where c_custkey = o_custkey \
       and o_orderkey = l_orderkey and c_acctbal < ",
      0.0,
      9_500.0 );
    ( "select * from part, partsupp, lineitem where p_partkey = ps_partkey and \
       ps_partkey = l_partkey and p_retailprice < ",
      950.0,
      2_050.0 );
    ( "select l_quantity from customer, orders, lineitem, partsupp, supplier where \
       c_custkey = o_custkey and o_orderkey = l_orderkey and l_partkey = ps_partkey and \
       ps_suppkey = s_suppkey and l_quantity < ",
      2.0,
      49.0 );
    ( "select * from part, partsupp, supplier, nation where p_partkey = ps_partkey and \
       ps_suppkey = s_suppkey and s_nationkey = n_nationkey and ps_supplycost < ",
      20.0,
      990.0 );
  |]

let sql_of rng k =
  let prefix, lo, hi = templates.(k) in
  Printf.sprintf "%s%.2f" prefix (Rng.float_in_range rng ~lo ~hi)

(* Q12, Q3 and Q2; the eight-table "All" set would make enumeration, not
   per-request overhead, the cost of a cached request. *)
let relation_sets =
  Raqo_catalog.Tpch.evaluation_queries
  |> List.filter (fun (name, _) -> name <> "All")
  |> List.map snd |> Array.of_list

let qo = P.Qo (Raqo_cluster.Resources.make ~containers:20 ~container_gb:4.0)

(* Line [i] of a pool. The shape of a line (payload, planner, mode, request
   seed) is a fixed function of [i], so every seed's pool has the same mix:
   the five SQL templates and three relation sets, each under every entry of
   [planners]; one line in seven a [qo] baseline; in the hot
   pool one line in 32 an adaptive run under lognormal misestimation. [rng]
   draws the filter constants and the misestimation seeds. Cold lines are
   all SQL, so each has fresh constants. *)
let serve_request rng ~cold i : P.request =
  let k = i mod 8 in
  let payload =
    if cold then P.Sql (sql_of rng (i mod Array.length templates))
    else if k < Array.length templates then P.Sql (sql_of rng k)
    else P.Relations relation_sets.(k - Array.length templates)
  in
  let mode = if i mod 7 = 3 then qo else P.Raqo in
  let adaptive = (not cold) && mode = P.Raqo && i mod 32 = 5 in
  {
    P.id = Printf.sprintf "%s%04d" (if cold then "c" else "h") i;
    payload;
    planner = planners.(i / 8 mod Array.length planners);
    mode;
    seed = 42 + (i / 24 mod 4);
    adaptive;
    est_error =
      (if adaptive then
         Raqo_execsim.Estimation_error.make
           (Raqo_execsim.Estimation_error.Lognormal 0.6)
           ~seed:(Rng.int rng 4)
       else Raqo_execsim.Estimation_error.exact);
    engine = "hive";
    tenant = None;
  }

type serve = {
  hot : string array;  (** fits the shared plan cache; drawn uniformly *)
  cold : string array;
      (** fresh filter constants, visited in order, so each one's entries
          are evicted long before it comes round again *)
  cold_every : int;  (** one request in [cold_every] is cold *)
}

(* The hot pool is a fixed corpus (96 cached requests are too few to average
   out the draw of their constants); the seed draws the cold pool's
   constants and the order requests are sent in. *)
let serve ~seed ~hot ~cold =
  let pool rng n ~cold = Array.init n (fun i -> P.request_to_json (serve_request rng ~cold i)) in
  {
    hot = pool (Rng.create 2021) hot ~cold:false;
    cold = pool (Rng.create (1_000_003 * seed + 11)) cold ~cold:true;
    cold_every = 8;
  }

(* The request schedule: callers' next requests as indices into [hot]
   (non-negative) or [cold] ([-1 - i]). Identical for every engine fed from
   the same seed. *)
type schedule = { rng : Rng.t; mutable cursor : int; w : serve }

let schedule ~seed w = { rng = Rng.create (7_919 * seed + 3); cursor = 0; w }

let next s =
  if Rng.int s.rng s.w.cold_every = 0 then begin
    let i = s.cursor in
    s.cursor <- (s.cursor + 1) mod Array.length s.w.cold;
    -1 - i
  end
  else Rng.int s.rng (Array.length s.w.hot)

let line w i = if i >= 0 then w.hot.(i) else w.cold.(-1 - i)

(* ------------------------------------------------------------ join-large *)

type jl_query = { qid : string; kind : Cb.planner_kind; relations : string list }

(* The catalog is fixed, like TPC-H in the other workloads: 100 random
   tables (Random_schema, the paper's Figure 15 generator), and so is the
   query corpus drawn over it by random walks. Per-query planning time
   spans two orders of magnitude at a given size, so a run of a few dozen
   seed-drawn queries would measure which queries the seed drew; the seed
   instead orders the corpus's blocks. Each block is three 12-18-relation
   queries, each planned by Selinger and then DPsub (the correctness gate
   compares the pair), and one 24-70-relation randomized query. *)
let catalog = lazy (Raqo_catalog.Random_schema.generate (Rng.create 2018) ~tables:100)

let dp_sizes = [| 12; 16; 14; 18; 13; 17; 15 |]
let big_sizes = [| 24; 63; 36; 70; 48 |]

let walk rng n = Raqo_catalog.Random_schema.query rng (Lazy.force catalog) ~joins:(n - 1)

let block rng b =
  let pairs =
    List.init 3 (fun j ->
        let i = (3 * b) + j in
        let rels = walk rng dp_sizes.(i mod Array.length dp_sizes) in
        [
          { qid = Printf.sprintf "s%04d" i; kind = Cb.Selinger; relations = rels };
          { qid = Printf.sprintf "d%04d" i; kind = Cb.Bushy_dp; relations = rels };
        ])
  in
  List.concat pairs
  @ [
      {
        qid = Printf.sprintf "r%04d" b;
        kind = Cb.Fast_randomized;
        relations = walk rng big_sizes.(b mod Array.length big_sizes);
      };
    ]

(* The set-up pass plans the first block of a separate walk. *)
let join_warmup () = block (Rng.create 1) 0

let join_large ~seed ~blocks =
  let corpus = Array.init blocks (block (Rng.create 2019)) in
  Rng.shuffle (Rng.create (104_729 * seed + 5)) corpus;
  Array.of_list (List.concat (Array.to_list corpus))

(* ------------------------------------------------------------ alloc-wave *)

(* A fixed corpus, like join-large's: each allocate request's run time is
   set by its exact Pareto DP, whose state count depends on the members'
   surfaces, so a seed-drawn handful of requests would measure the draw.
   Every (size, search) pair of 8-32 members and auto/exact/randomized
   search is in it once, except exact searches over 24 or more members
   (auto runs exact at 24): at 1.5-6 s each here, one of them would set
   every figure of the workload and leave too few samples for a tail. Members'
   filters, tenants, arrivals and SLOs, and each request's planner,
   objective, fairness floor and search seed are drawn once from the corpus
   seed. The run's seed orders the corpus. *)
let alloc_sizes = [| 8; 12; 16; 20; 24; 28; 32 |]
let alloc_search = [| "auto"; "exact"; "randomized" |]
let alloc_objective = [| "makespan"; "cost"; "balanced" |]

let alloc_line rng ~i ~n ~search =
  let member j =
    Json.Obj
      ([
         ("id", Json.Str (Printf.sprintf "m%02d" j));
         ("sql", Json.Str (sql_of rng (Rng.int rng (Array.length templates))));
         ("tenant", Json.Str (Printf.sprintf "t%d" (Rng.int rng 3)));
         ("arrival", Json.Num (Float.round (Rng.float rng 600.0)));
       ]
      @ if Rng.int rng 4 = 0 then [ ("slo", Json.Num 3600.0) ] else [])
  in
  Json.to_string
    (Json.Obj
       [
         ("op", Json.Str "allocate");
         ("id", Json.Str (Printf.sprintf "a%03d" i));
         ("budget", Json.Num (float_of_int (3 * n)));
         ("queries", Json.List (List.init n member));
         ("planner", Json.Str (P.planner_name (Rng.pick rng [| Cb.Selinger; Cb.Bushy_dp |])));
         ("objective", Json.Str (Rng.pick rng alloc_objective));
         ("fairness", Json.Num (if Rng.bool rng then 0.0 else 0.5));
         ("search", Json.Str search);
         ("seed", Json.Num (float_of_int (Rng.int rng 1000)));
       ])

let alloc_wave ~seed ~smoke =
  let rng = Rng.create 2020 in
  let pairs =
    Array.to_list alloc_sizes
    |> List.concat_map (fun n -> List.map (fun s -> (n, s)) (Array.to_list alloc_search))
    |> List.filter (fun (n, s) -> n < 24 || s = "randomized" || (s = "auto" && n > 24))
    |> List.filter (fun (n, _) -> (not smoke) || n <= 12)
  in
  let corpus = Array.of_list (List.mapi (fun i (n, search) -> alloc_line rng ~i ~n ~search) pairs) in
  Rng.shuffle (Rng.create (15_485_863 * seed + 7)) corpus;
  corpus
