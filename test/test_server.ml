(* Tests for Raqo_server: the JSON layer, the strict line protocol, the
   resident engine's admission control, and served-vs-oneshot bit-identity. *)

module Json = Raqo_server.Json
module Protocol = Raqo_server.Protocol
module Engine = Raqo_server.Engine
module Serve = Raqo_server.Serve
module Trace_gen = Raqo_server.Trace_gen

(* [contains s sub]: naive substring check (no extra deps in tests). *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let sql3 =
  "select * from customer, orders, lineitem where c_custkey = o_custkey and \
   o_orderkey = l_orderkey"

let projected_sql =
  "select o_orderkey from customer, orders, lineitem where c_custkey = o_custkey and \
   o_orderkey = l_orderkey"

let small_config = { Engine.default_config with queue_capacity = 16; batch = 4 }
let with_engine ?(config = small_config) f = f (Engine.create ~config ())

let req_line ?(id = "r1") ?(extra = "") sql =
  Printf.sprintf "{\"id\":%S,\"sql\":%S%s}" id sql extra

(* ------------------------------------------------------------------ Json *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 1.5);
        ("i", Json.Num 42.0);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 0.1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_float_bits () =
  (* The wire float must round-trip bitwise: shortest-decimal encoding. *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') ->
          Alcotest.(check bool)
            (Printf.sprintf "bits of %h" f)
            true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
      | _ -> Alcotest.fail "expected a number")
    [ 0.1; 1.0 /. 3.0; 1234.56789e10; -0.0; 4.2e-300 ]

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

(* -------------------------------------------------------------- Protocol *)

let parse_ok line =
  match Protocol.parse_request line with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse_request %S: %s" line e

let parse_err line =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "parse_request accepted %S" line
  | Error e -> e

let test_protocol_defaults () =
  let r = parse_ok (req_line sql3) in
  Alcotest.(check string) "id" "r1" r.Protocol.id;
  Alcotest.(check int) "seed" 42 r.Protocol.seed;
  Alcotest.(check bool) "adaptive off" false r.Protocol.adaptive;
  Alcotest.(check string) "planner" "selinger" (Protocol.planner_name r.Protocol.planner);
  (match r.Protocol.mode with
  | Protocol.Raqo -> ()
  | Protocol.Qo _ -> Alcotest.fail "default mode should be raqo");
  match r.Protocol.payload with
  | Protocol.Sql s -> Alcotest.(check string) "sql" sql3 s
  | Protocol.Relations _ -> Alcotest.fail "expected sql payload"

let test_protocol_strict () =
  let e = parse_err (req_line sql3 ~extra:",\"plannre\":\"selinger\"") in
  Alcotest.(check bool) "names the typo" true (contains e "plannre");
  ignore (parse_err "{\"sql\":\"select * from orders, lineitem\"}");
  ignore (parse_err "{\"id\":\"x\"}");
  ignore (parse_err "{\"id\":\"x\",\"sql\":\"a\",\"relations\":[\"b\"]}");
  ignore (parse_err (req_line sql3 ~extra:",\"mode\":\"qo\""));
  ignore (parse_err (req_line sql3 ~extra:",\"containers\":4,\"gb\":2"));
  ignore (parse_err (req_line sql3 ~extra:",\"est_error\":\"skew\""));
  ignore (parse_err (req_line sql3 ~extra:",\"planner\":\"greedy\""));
  ignore (parse_err "not json at all")

let test_protocol_request_roundtrip () =
  let reqs =
    [
      parse_ok (req_line sql3);
      parse_ok
        (req_line sql3
           ~extra:",\"mode\":\"qo\",\"containers\":12,\"gb\":3.5,\"planner\":\"bushy_dp\"");
      parse_ok
        "{\"id\":\"a1\",\"relations\":[\"orders\",\"lineitem\"],\"adaptive\":true,\
         \"est_error\":\"skew=0.5:7\",\"seed\":9,\"engine\":\"spark\"}";
    ]
  in
  List.iter
    (fun r ->
      let r' = parse_ok (Protocol.request_to_json r) in
      Alcotest.(check bool) "request round-trips" true (r = r'))
    reqs

(* ---------------------------------------------------------------- Engine *)

let ok_response = function
  | Protocol.Planned { plan; cost; resources; adaptive; _ } ->
      (plan, cost, resources, adaptive)
  | Protocol.Rejected { reason; message; _ } ->
      Alcotest.failf "rejected (%s): %s" (Protocol.reason_name reason) message
  | Protocol.Health_ok _ -> Alcotest.fail "unexpected health response"
  | Protocol.Allocated _ -> Alcotest.fail "unexpected allocate response"

let test_engine_matches_sql_frontend () =
  (* The one pipeline: a one-shot engine answer is the Sql_frontend plan
     (plan string, cost bits) for SQL and relation payloads, in raqo, qo and
     adaptive mode, under every planner. *)
  let module F = Raqo.Sql_frontend in
  let queries =
    [
      ("sql3", F.Sql sql3);
      ( "filtered",
        F.Sql
          "select * from orders, lineitem where o_orderkey = l_orderkey and \
           o_totalprice < 172000" );
      ("projected", F.Sql projected_sql);
      ("q3", F.Relations [ "customer"; "orders"; "lineitem" ]);
      ("q5", F.Relations Raqo_catalog.Tpch.q5);
    ]
  in
  let qo = Raqo_cluster.Resources.make ~containers:10 ~container_gb:5.0 in
  let error = Raqo_execsim.Estimation_error.of_string "lognormal:42" |> Result.get_ok in
  let modes =
    [ ("raqo", F.Raqo, None); ("qo", F.Qo qo, None); ("adaptive", F.Raqo, Some error) ]
  in
  List.iter
    (fun (qname, query) ->
      List.iter
        (fun (mname, mode, est_error) ->
          List.iter
            (fun kind ->
              let req =
                {
                  Protocol.id = "c";
                  payload = query;
                  planner = kind;
                  mode;
                  seed = 42;
                  adaptive = Option.is_some est_error;
                  est_error = Option.value est_error ~default:Raqo_execsim.Estimation_error.exact;
                  engine = "hive";
                  tenant = None;
                }
              in
              let label = Printf.sprintf "%s/%s/%s" qname mname (Protocol.planner_name kind) in
              let plan_s, cost, _, _ = ok_response (Engine.oneshot req) in
              match
                F.plan ~kind ~seed:42 ~mode
                  ?adaptive:(Option.map (fun e -> (Raqo_execsim.Engine.hive, e)) est_error)
                  ~model:(Raqo.Models.hive ()) ~conditions:Raqo_cluster.Conditions.default
                  ~schema:(Raqo_catalog.Tpch.schema ())
                  ~columns:(Raqo_catalog.Tpch.columns ())
                  query
              with
              | Error e -> Alcotest.failf "%s: pipeline failed: %s" label (F.error_message e)
              | Ok planned ->
                  Alcotest.(check string)
                    (label ^ " plan")
                    (Format.asprintf "%a" Raqo_plan.Join_tree.pp_joint planned.F.plan)
                    plan_s;
                  Alcotest.(check bool)
                    (label ^ " cost bits")
                    true
                    (Int64.equal (Int64.bits_of_float planned.F.est_cost)
                       (Int64.bits_of_float cost)))
            [ Raqo.Cost_based.Selinger; Raqo.Cost_based.Fast_randomized; Raqo.Cost_based.Bushy_dp ])
        modes)
    queries

let test_engine_served_equals_oneshot () =
  (* Same requests through a warm shared-cache engine and through fresh
     one-shot engines: identical response lines, including repeats (which
     hit the cache on the served side). *)
  with_engine ~config:Engine.default_config (fun t ->
      let trace = Trace_gen.generate ~seed:3 ~requests:12 () in
      List.iter
        (fun (_arrival, req) ->
          let served =
            Protocol.response_to_json (Engine.plan_request t req)
          in
          let alone = Protocol.response_to_json (Engine.oneshot req) in
          Alcotest.(check string)
            (Printf.sprintf "request %s" req.Protocol.id)
            alone served)
        trace;
      Alcotest.(check bool) "warm engine actually hit its cache" true
        (Raqo_resource.Shared_plan_cache.hits (Engine.cache t) > 0))

let test_engine_mixed_models_equal_oneshot () =
  (* One shared cache serves both trained models: a spark request after a
     hive request over the same relations must plan with spark's own
     resource searches, exactly as a fresh engine does. *)
  let line id engine =
    Printf.sprintf
      "{\"id\":%S,\"relations\":[\"customer\",\"orders\",\"lineitem\"],\"engine\":%S}"
      id engine
  in
  with_engine (fun t ->
      List.iter
        (fun (id, engine) ->
          let req = parse_ok (line id engine) in
          let served = Protocol.response_to_json (Engine.plan_request t req) in
          let alone = Protocol.response_to_json (Engine.oneshot req) in
          Alcotest.(check string) (Printf.sprintf "%s request" engine) alone served)
        [ ("h", "hive"); ("s", "spark") ])

let test_engine_error_responses () =
  with_engine (fun t ->
      (match Engine.plan_request t (parse_ok (req_line "select * from")) with
      | Protocol.Rejected { reason = Protocol.Bad_request; id = Some "r1"; _ } -> ()
      | _ -> Alcotest.fail "expected bad_request for broken SQL");
      (match
         Engine.plan_request t
           (parse_ok "{\"id\":\"u\",\"relations\":[\"orders\",\"nope\"]}")
       with
      | Protocol.Rejected { reason = Protocol.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "expected bad_request for unknown relation");
      match
        Engine.plan_request t
          (parse_ok "{\"id\":\"v\",\"relations\":[\"customer\",\"part\"]}")
      with
      | Protocol.Rejected { reason = Protocol.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "expected bad_request for a disconnected join graph")

let test_engine_qo_and_adaptive () =
  with_engine (fun t ->
      let _, _, qo_resources, _ =
        ok_response
          (Engine.plan_request t
             (parse_ok (req_line sql3 ~extra:",\"mode\":\"qo\",\"containers\":20,\"gb\":4")))
      in
      List.iter
        (fun (c, g) ->
          Alcotest.(check int) "qo containers fixed" 20 c;
          Alcotest.(check (float 0.0)) "qo gb fixed" 4.0 g)
        qo_resources;
      let _, _, _, adaptive =
        ok_response
          (Engine.plan_request t
             (parse_ok (req_line sql3 ~extra:",\"adaptive\":true,\"est_error\":\"skew=0.6:5\"")))
      in
      match adaptive with
      | None -> Alcotest.fail "expected an adaptive summary"
      | Some a -> (
          match (a.Protocol.static_outcome, a.Protocol.adaptive_outcome) with
          | Protocol.Finished s, Protocol.Finished s' ->
              Alcotest.(check bool) "never worse" true (s' <= s)
          | Protocol.Finished _, Protocol.Oom _ ->
              Alcotest.fail "adaptive OOMed where the static plan finished"
          | Protocol.Oom _, _ -> ()))

let test_admission_bounded () =
  let config = { Engine.default_config with queue_capacity = 4; batch = 3 } in
  with_engine ~config (fun t ->
      let req i = parse_ok (req_line sql3 ~id:(Printf.sprintf "q%d" i)) in
      let rejections =
        List.filter_map (fun i -> Engine.submit t (req i)) (List.init 10 (fun i -> i))
      in
      Alcotest.(check int) "queue bounded at capacity" 4 (Engine.queue_depth t);
      Alcotest.(check int) "typed rejections for the overflow" 6 (List.length rejections);
      List.iter
        (fun r ->
          match r with
          | Protocol.Rejected { reason = Protocol.Overloaded; _ } -> ()
          | _ -> Alcotest.fail "overflow must reject as overloaded")
        rejections;
      Alcotest.(check int) "admitted counter" 4 (Engine.admitted t);
      Alcotest.(check int) "rejected counter" 6 (Engine.rejected t);
      let wave = Engine.process_wave t in
      Alcotest.(check int) "wave bounded by batch" 3 (List.length wave);
      let rest = Engine.drain t in
      Alcotest.(check int) "drain finishes the queue" 1 (List.length rest);
      Alcotest.(check int) "responses counter" 4 (Engine.responses t);
      List.iter
        (fun ((req : Protocol.request), resp) ->
          Alcotest.(check (option string))
            "response id matches" (Some req.Protocol.id) (Protocol.response_id resp))
        (wave @ rest);
      Alcotest.(check bool) "admits again after shedding" true (Engine.submit t (req 10) = None);
      match Engine.drain t with
      | [ (_, Protocol.Planned _) ] -> ()
      | _ -> Alcotest.fail "a request after shedding must still plan")

let test_engine_counts_are_its_registry () =
  (* Each engine created without a registry gets its own: the admission and
     response counts of one never move the other's, and each count is the
     engine registry's raqo_server_*_total, with observability off or on. *)
  let config = { Engine.default_config with queue_capacity = 2; batch = 2 } in
  List.iter
    (fun obs ->
      Raqo_obs.Obs.with_enabled obs (fun () ->
          let a = Engine.create ~config () and b = Engine.create ~config () in
          let submit t n =
            List.iter
              (fun i -> ignore (Engine.submit t (parse_ok (req_line sql3 ~id:(string_of_int i)))))
              (List.init n Fun.id);
            ignore (Engine.drain t)
          in
          submit a 3;
          submit b 1;
          List.iter
            (fun (name, t, (admitted, rejected, responses)) ->
              let counter metric =
                Raqo_obs.Metrics.Counter.value
                  (Raqo_obs.Metrics.counter_in (Engine.registry t) metric)
              in
              let check what want got metric =
                let label = Printf.sprintf "%s %s (obs %b)" name what obs in
                Alcotest.(check int) label want got;
                Alcotest.(check int) (label ^ " = registry") got (counter metric)
              in
              check "admitted" admitted (Engine.admitted t) "raqo_server_admitted_total";
              check "rejected" rejected (Engine.rejected t) "raqo_server_rejected_total";
              check "responses" responses (Engine.responses t) "raqo_server_responses_total";
              Alcotest.(check int) (name ^ " latency observations") responses
                (Raqo_obs.Metrics.Histogram.count (Engine.latency_histogram t)))
            [ ("a", a, (2, 1, 2)); ("b", b, (1, 0, 1)) ]))
    [ false; true ]

(* --------------------------------------------------------------- Tenants *)

let test_tenant_roundtrip () =
  let bare = parse_ok (req_line sql3) in
  Alcotest.(check (option string)) "default has no tenant" None bare.Protocol.tenant;
  Alcotest.(check bool) "absent tenant stays off the wire" false
    (contains (Protocol.request_to_json bare) "tenant");
  let r = parse_ok (req_line sql3 ~extra:",\"tenant\":\"gold\"") in
  Alcotest.(check (option string)) "tenant parsed" (Some "gold") r.Protocol.tenant;
  let r' = parse_ok (Protocol.request_to_json r) in
  Alcotest.(check bool) "tenant round-trips" true (r = r');
  let e = parse_err (req_line sql3 ~extra:",\"tenant\":\"\"") in
  Alcotest.(check bool) "empty tenant rejected" true (contains e "tenant")

let test_tenant_quota () =
  let config =
    { Engine.default_config with queue_capacity = 16; batch = 16;
      tenant_quota = Some 2 }
  in
  with_engine ~config (fun t ->
      let req tenant i =
        let extra =
          match tenant with
          | None -> ""
          | Some x -> Printf.sprintf ",\"tenant\":%S" x
        in
        parse_ok (req_line sql3 ~id:(Printf.sprintf "%s%d" (Option.value tenant ~default:"d") i) ~extra)
      in
      (* Two gold queries fit the quota, the third sheds — while the
         untenanted query rides the global queue untouched. *)
      Alcotest.(check bool) "gold 1 admitted" true (Engine.submit t (req (Some "gold") 1) = None);
      Alcotest.(check bool) "gold 2 admitted" true (Engine.submit t (req (Some "gold") 2) = None);
      (match Engine.submit t (req (Some "gold") 3) with
      | Some (Protocol.Rejected { reason = Protocol.Overloaded; message; _ }) ->
          Alcotest.(check bool) "rejection names the tenant" true
            (contains message "\"gold\"")
      | _ -> Alcotest.fail "third gold query must shed as overloaded");
      Alcotest.(check bool) "default tenant unaffected" true
        (Engine.submit t (req None 1) = None);
      Alcotest.(check bool) "per-tenant queued/rejected" true
        (Engine.tenant_stats t
        = [ ("default", (1, 0, 0)); ("gold", (2, 0, 1)) ]);
      let _ = Engine.drain t in
      Alcotest.(check bool) "planned accounted per tenant" true
        (Engine.tenant_stats t
        = [ ("default", (0, 1, 0)); ("gold", (0, 2, 1)) ]))

(* -------------------------------------------------------------- Allocate *)

let alloc_line =
  "{\"op\":\"allocate\",\"id\":\"al1\",\"budget\":12,\"fairness\":0.5,\
   \"search\":\"exact\",\"seed\":7,\"queries\":[{\"id\":\"q1\",\"relations\":\
   [\"orders\",\"lineitem\"]},{\"id\":\"q2\",\"relations\":[\"customer\",\
   \"orders\"],\"tenant\":\"gold\",\"weight\":2,\"arrival\":3,\"slo\":500}]}"

let parse_alloc line =
  match Protocol.parse_line line with
  | Ok (Protocol.Allocate a) -> a
  | Ok _ -> Alcotest.failf "parse_line %S: not an allocate request" line
  | Error e -> Alcotest.failf "parse_line %S: %s" line e

let alloc_err line =
  match Protocol.parse_line line with
  | Ok _ -> Alcotest.failf "parse_line accepted %S" line
  | Error e -> e

let test_allocate_parse () =
  let a = parse_alloc alloc_line in
  Alcotest.(check int) "budget" 12 a.Protocol.budget;
  Alcotest.(check string) "search" "exact" a.Protocol.search;
  Alcotest.(check int) "two queries" 2 (List.length a.Protocol.queries);
  (match a.Protocol.queries with
  | _ :: (q2 : Protocol.alloc_query) :: _ ->
      Alcotest.(check (option string)) "query tenant" (Some "gold") q2.Protocol.tenant;
      Alcotest.(check (option (float 0.0))) "query slo" (Some 500.0) q2.Protocol.slo
  | _ -> Alcotest.fail "expected two queries");
  let e = alloc_err "{\"op\":\"allocate\",\"id\":\"x\",\"budget\":0,\"queries\":[{\"id\":\"q\",\"relations\":[\"orders\"]}]}" in
  Alcotest.(check bool) "bad budget named" true (contains e "budget");
  let e = alloc_err "{\"op\":\"allocate\",\"id\":\"x\",\"budget\":4,\"queries\":[{\"id\":\"q\",\"relations\":[\"orders\"]},{\"id\":\"q\",\"relations\":[\"orders\"]}]}" in
  Alcotest.(check bool) "duplicate qid named" true (contains e "q");
  let e = alloc_err "{\"op\":\"allocate\",\"id\":\"x\",\"budget\":4,\"objective\":\"speed\",\"queries\":[{\"id\":\"q\",\"relations\":[\"orders\"]}]}" in
  Alcotest.(check bool) "bad objective names choices" true (contains e "makespan");
  let e = alloc_err "{\"op\":\"allocate\",\"id\":\"x\",\"budget\":4,\"search\":\"brute\",\"queries\":[{\"id\":\"q\",\"relations\":[\"orders\"]}]}" in
  Alcotest.(check bool) "bad search names choices" true (contains e "randomized");
  let e = alloc_err "{\"op\":\"allocate\",\"id\":\"x\",\"budget\":4,\"quieres\":[]}" in
  Alcotest.(check bool) "unknown field named" true (contains e "quieres")

let test_allocate_served_equals_oneshot () =
  let areq = parse_alloc alloc_line in
  let alone = Protocol.response_to_json (Engine.oneshot_allocate areq) in
  Alcotest.(check bool) "allocate response is ok" true
    (contains alone "\"status\":\"ok\"" && contains alone "\"op\":\"allocate\"");
  with_engine ~config:Engine.default_config (fun t ->
      match Serve.serve_lines t [ alloc_line ] with
      | [ served ] ->
          Alcotest.(check string) "served equals oneshot, byte for byte" alone served
      | out -> Alcotest.failf "expected one response, got %d" (List.length out))

(* Four members need at least four containers: a budget of 3 has no
   allocation, and both paths answer one typed bad_request naming why. *)
let test_allocate_budget_below_floor () =
  let member i =
    Printf.sprintf "{\"id\":\"q%d\",\"relations\":[\"orders\",\"lineitem\"]}" i
  in
  let line =
    Printf.sprintf "{\"op\":\"allocate\",\"id\":\"low\",\"budget\":3,\"queries\":[%s]}"
      (String.concat "," (List.map member [ 1; 2; 3; 4 ]))
  in
  let alone = Protocol.response_to_json (Engine.oneshot_allocate (parse_alloc line)) in
  Alcotest.(check bool) "typed bad_request" true (contains alone "\"bad_request\"");
  Alcotest.(check bool) "names the member floor" true
    (contains alone "minimum per-query allocations");
  with_engine (fun t ->
      match Serve.serve_lines t [ line ] with
      | [ served ] -> Alcotest.(check string) "served equals oneshot" alone served
      | out -> Alcotest.failf "expected one response, got %d" (List.length out))

(* ----------------------------------------------------------------- Serve *)

let test_serve_lines_end_to_end () =
  with_engine (fun t ->
      let lines =
        [
          req_line sql3 ~id:"a";
          "this is not json";
          "";
          req_line "select * from orders, lineitem where o_orderkey = l_orderkey" ~id:"b";
        ]
      in
      let out = Serve.serve_lines t lines in
      Alcotest.(check int) "three responses (blank line ignored)" 3 (List.length out);
      let parsed =
        List.map
          (fun l -> match Json.parse l with Ok v -> v | Error e -> Alcotest.fail e)
          out
      in
      let status v = Json.member "status" v |> Option.get |> Json.to_str |> Option.get in
      (* The malformed line answers first (immediate rejection), then the
         admitted requests in order. *)
      Alcotest.(check (list string))
        "statuses" [ "error"; "ok"; "ok" ] (List.map status parsed);
      let ids = List.filter_map (fun v -> Option.bind (Json.member "id" v) Json.to_str) parsed in
      Alcotest.(check (list string)) "admitted ids in order" [ "a"; "b" ] ids)

let test_serve_lines_deterministic_across_engines () =
  let lines =
    List.map
      (fun (_a, req) -> Protocol.request_to_json req)
      (Trace_gen.generate ~seed:11 ~requests:10 ())
  in
  let serve () = with_engine (fun t -> Serve.serve_lines t lines) in
  let a = serve () and b = serve () in
  Alcotest.(check (list string)) "two engines, identical bytes" a b

let test_serve_tcp_roundtrip () =
  (* One real socket round-trip: a client connects, sends two requests,
     reads two responses, closes; the server exits after max_connections. *)
  with_engine (fun t ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      Unix.close sock;
      let server = Domain.spawn (fun () -> Serve.serve_tcp ~max_connections:1 t ~port) in
      let rec connect tries =
        let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> c
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
            Unix.close c;
            Unix.sleepf 0.05;
            connect (tries - 1)
      in
      let c = connect 100 in
      let payload = req_line sql3 ~id:"tcp1" ^ "\n" ^ req_line sql3 ~id:"tcp2" ^ "\n" in
      ignore (Unix.write_substring c payload 0 (String.length payload));
      Unix.shutdown c Unix.SHUTDOWN_SEND;
      let ic = Unix.in_channel_of_descr c in
      let l1 = input_line ic in
      let l2 = input_line ic in
      Unix.close c;
      Domain.join server;
      let expected =
        Protocol.response_to_json (Engine.oneshot (parse_ok (req_line sql3 ~id:"tcp1")))
      in
      Alcotest.(check string) "tcp response 1 is the oneshot answer" expected l1;
      Alcotest.(check bool) "tcp response 2 carries its id" true
        (contains l2 "\"id\":\"tcp2\""))

(* ---------------------------------------------------------------- Health *)

let test_parse_health_line () =
  (match Protocol.parse_line "{\"op\":\"health\"}" with
  | Ok (Protocol.Health { id = None }) -> ()
  | _ -> Alcotest.fail "expected an id-less health probe");
  (match Protocol.parse_line "{\"op\":\"health\",\"id\":\"h1\"}" with
  | Ok (Protocol.Health { id = Some "h1" }) -> ()
  | _ -> Alcotest.fail "expected a health probe with id h1");
  (match Protocol.parse_line "{\"op\":\"health\",\"sql\":\"select\"}" with
  | Error m -> Alcotest.(check bool) "names the stray field" true (contains m "sql")
  | Ok _ -> Alcotest.fail "health must reject extra fields");
  (match Protocol.parse_line "{\"op\":\"drain\"}" with
  | Error m -> Alcotest.(check bool) "unknown op named" true (contains m "drain")
  | Ok _ -> Alcotest.fail "unknown op must be rejected");
  (* Lines without "op" fall through to request parsing unchanged. *)
  match Protocol.parse_line (req_line sql3) with
  | Ok (Protocol.Request r) -> Alcotest.(check string) "request id" "r1" r.Protocol.id
  | _ -> Alcotest.fail "op-less line must parse as a request"

let test_health_bypasses_admission () =
  (* Fill the queue past capacity, then probe: the health answer must come
     back ready even though every further request is shed. *)
  let config = { Engine.default_config with queue_capacity = 2 } in
  with_engine ~config (fun t ->
      List.iter
        (fun i -> ignore (Engine.submit t (parse_ok (req_line sql3 ~id:(Printf.sprintf "q%d" i)))))
        [ 1; 2; 3; 4 ];
      Alcotest.(check int) "queue is full" 2 (Engine.queue_depth t);
      (match Engine.health t ~id:(Some "probe") with
      | Protocol.Health_ok { id = Some "probe"; queue_depth = 2; ready = true; _ } -> ()
      | _ -> Alcotest.fail "expected a ready health answer under overload");
      ignore (Engine.drain t))

let test_serve_lines_health () =
  with_engine (fun t ->
      let out =
        Serve.serve_lines t
          [ "{\"op\":\"health\",\"id\":\"h\"}"; req_line sql3 ~id:"a" ]
      in
      Alcotest.(check int) "two responses" 2 (List.length out);
      let health = List.hd out in
      Alcotest.(check bool) "health answers first (no queueing)" true
        (contains health "\"op\":\"health\"" && contains health "\"id\":\"h\"");
      Alcotest.(check bool) "reports readiness" true (contains health "\"ready\":true"))

let test_oneshot_health_deterministic () =
  let a = Protocol.response_to_json (Engine.oneshot_health ~id:(Some "h") ()) in
  let b = Protocol.response_to_json (Engine.oneshot_health ~id:(Some "h") ()) in
  Alcotest.(check string) "byte-identical across calls" a b;
  Alcotest.(check bool) "depth zero" true (contains a "\"queue_depth\":0")

(* --------------------------------------------------------------- Rewrite *)

let test_rewrite_summary_in_response () =
  with_engine (fun t ->
      (* Projected SQL leaves customer and lineitem join-only: the rewrite
         summary must surface, and the JSON must carry the "rewrite" field. *)
      let resp = Engine.plan_request t (parse_ok (req_line projected_sql ~id:"rw")) in
      (match resp with
      | Protocol.Planned { rewrite = Some r; _ } ->
          Alcotest.(check bool) "a rule fired" true (r.Protocol.fired <> [])
      | Protocol.Planned { rewrite = None; _ } ->
          Alcotest.fail "expected a rewrite summary on projected SQL"
      | _ -> Alcotest.fail "expected a plan");
      Alcotest.(check bool) "wire field present" true
        (contains (Protocol.response_to_json resp) "\"rewrite\":{");
      (* select * keeps every relation referenced: pushdown-only queries and
         hint-free relation lists stay summary-free, preserving historical
         response bytes. *)
      let plain =
        Engine.plan_request t (parse_ok "{\"id\":\"p\",\"relations\":[\"orders\",\"lineitem\"]}")
      in
      match plain with
      | Protocol.Planned { rewrite = None; _ } -> ()
      | Protocol.Planned { rewrite = Some _; _ } ->
          Alcotest.fail "relation-list requests must carry no rewrite summary"
      | _ -> Alcotest.fail "expected a plan")

let test_rewrite_served_equals_oneshot () =
  with_engine (fun t ->
      let req = parse_ok (req_line projected_sql ~id:"rw2") in
      let served = Protocol.response_to_json (Engine.plan_request t req) in
      let alone = Protocol.response_to_json (Engine.oneshot req) in
      Alcotest.(check string) "rewritten responses byte-identical" alone served;
      (* And rewrite off on both sides is equally self-consistent. *)
      let config = { small_config with Engine.rewrite = false } in
      let off = Engine.create ~config () in
      let served_off = Protocol.response_to_json (Engine.plan_request off req) in
      let alone_off = Protocol.response_to_json (Engine.oneshot ~config req) in
      Alcotest.(check string) "rewrite-off byte-identical" alone_off served_off;
      Alcotest.(check bool) "rewrite-off carries no summary" false
        (contains served_off "\"rewrite\":{"))

(* ------------------------------------------------------------- Trace_gen *)

let test_trace_roundtrip () =
  let trace = Trace_gen.generate ~seed:5 ~requests:25 () in
  Alcotest.(check int) "count" 25 (List.length trace);
  let arrivals = List.map fst trace in
  Alcotest.(check bool) "arrivals nondecreasing" true
    (List.for_all2 (fun a b -> a <= b) (List.filteri (fun i _ -> i < 24) arrivals)
       (List.tl arrivals));
  let lines = Trace_gen.to_lines trace in
  let back =
    List.map
      (fun l ->
        match Trace_gen.parse_line l with Ok x -> x | Error e -> Alcotest.fail e)
      lines
  in
  Alcotest.(check bool) "to_lines/parse_line round-trips" true (trace = back);
  let again = Trace_gen.generate ~seed:5 ~requests:25 () in
  Alcotest.(check bool) "deterministic in seed" true (trace = again)

let () =
  Alcotest.run "raqo_server"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "float bit round-trip" `Quick test_json_float_bits;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_protocol_defaults;
          Alcotest.test_case "strict parsing" `Quick test_protocol_strict;
          Alcotest.test_case "request round-trip" `Quick test_protocol_request_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "matches the sql frontend bitwise" `Quick
            test_engine_matches_sql_frontend;
          Alcotest.test_case "served equals oneshot" `Quick
            test_engine_served_equals_oneshot;
          Alcotest.test_case "typed error responses" `Quick test_engine_error_responses;
          Alcotest.test_case "mixed engines served equals oneshot" `Quick
            test_engine_mixed_models_equal_oneshot;
          Alcotest.test_case "qo mode and adaptive summary" `Quick
            test_engine_qo_and_adaptive;
          Alcotest.test_case "bounded admission, typed shedding" `Quick
            test_admission_bounded;
          Alcotest.test_case "counts are its registry's" `Quick
            test_engine_counts_are_its_registry;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "tenant field round-trips" `Quick test_tenant_roundtrip;
          Alcotest.test_case "per-tenant quota and accounting" `Quick test_tenant_quota;
        ] );
      ( "allocate",
        [
          Alcotest.test_case "strict parsing" `Quick test_allocate_parse;
          Alcotest.test_case "served equals oneshot" `Quick
            test_allocate_served_equals_oneshot;
          Alcotest.test_case "budget below member floor" `Quick
            test_allocate_budget_below_floor;
        ] );
      ( "serve",
        [
          Alcotest.test_case "line loop end to end" `Quick test_serve_lines_end_to_end;
          Alcotest.test_case "deterministic across engines" `Quick
            test_serve_lines_deterministic_across_engines;
          Alcotest.test_case "tcp round-trip" `Quick test_serve_tcp_roundtrip;
        ] );
      ( "health",
        [
          Alcotest.test_case "parse_line grammar" `Quick test_parse_health_line;
          Alcotest.test_case "bypasses admission" `Quick test_health_bypasses_admission;
          Alcotest.test_case "serve_lines answers probes" `Quick test_serve_lines_health;
          Alcotest.test_case "oneshot health deterministic" `Quick
            test_oneshot_health_deterministic;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "summary in response" `Quick test_rewrite_summary_in_response;
          Alcotest.test_case "served equals oneshot" `Quick
            test_rewrite_served_equals_oneshot;
        ] );
      ( "trace_gen",
        [ Alcotest.test_case "round-trip & determinism" `Quick test_trace_roundtrip ] );
    ]
