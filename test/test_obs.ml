(* The observability subsystem: metric primitives and registry semantics,
   span rings (nesting, wraparound, cross-domain parenting under the pool),
   and the exporters (Chrome trace_event JSON, Prometheus round-trip). *)

module Obs = Raqo_obs.Obs
module Metrics = Raqo_obs.Metrics
module Trace = Raqo_obs.Trace
module Export = Raqo_obs.Export
module Pool = Raqo_par.Pool

(* Every test that records runs with the flag on and a clean slate; restore
   the disabled default so suites sharing the process stay unperturbed. *)
let with_obs f =
  Trace.clear ();
  Metrics.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Trace.clear ())
    (fun () -> Obs.with_enabled true f)

(* --------------------------------------------------------------- metrics *)

let test_counter () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.inc c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "accumulates" 42 (Metrics.Counter.value c);
  Metrics.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Metrics.Counter.value c)

let test_counter_parallel () =
  (* Sharded increments merge exactly once the domains have joined. *)
  let c = Metrics.Counter.create () in
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Pool.parallel_map pool
           (fun _ ->
             for _ = 1 to 1000 do
               Metrics.Counter.inc c
             done)
           [ 1; 2; 3; 4; 5; 6; 7; 8 ]));
  Alcotest.(check int) "8000 increments survive contention" 8000
    (Metrics.Counter.value c)

let test_histogram_buckets () =
  let h = Metrics.Histogram.create ~buckets:[| 1.0; 2.0; 5.0 |] () in
  (* Bucket edges are inclusive upper bounds (Prometheus [le]); anything
     above the last edge lands in the implicit +Inf bucket. *)
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 5.1; 100.0 ];
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 2; 2; 2 |]
    (Metrics.Histogram.counts h);
  Alcotest.(check (array int)) "cumulative le semantics" [| 2; 4; 6; 8 |]
    (Metrics.Histogram.cumulative h);
  Alcotest.(check int) "count" 8 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 120.0 (Metrics.Histogram.sum h);
  Metrics.Histogram.reset h;
  Alcotest.(check int) "reset" 0 (Metrics.Histogram.count h)

let test_histogram_validation () =
  Alcotest.check_raises "empty edges" (Invalid_argument "Histogram.create: empty buckets")
    (fun () -> ignore (Metrics.Histogram.create ~buckets:[||] ()));
  Alcotest.check_raises "non-increasing edges"
    (Invalid_argument "Histogram.create: bucket edges must be strictly increasing")
    (fun () -> ignore (Metrics.Histogram.create ~buckets:[| 1.0; 1.0 |] ()))

let test_registry () =
  with_obs @@ fun () ->
  let c = Metrics.counter "test_registry_total" in
  Alcotest.(check bool) "get-or-create returns the same handle" true
    (c == Metrics.counter "test_registry_total");
  Metrics.Counter.add c 7;
  let g = Metrics.gauge "test_registry_gauge" in
  Metrics.Gauge.set g 2.5;
  (match List.assoc_opt "test_registry_total" (Metrics.snapshot ()) with
  | Some (Metrics.Counter_value 7) -> ()
  | _ -> Alcotest.fail "snapshot missed the counter");
  (* Same name, different kind: refused rather than silently shadowed. *)
  (try
     ignore (Metrics.gauge "test_registry_total");
     Alcotest.fail "kind mismatch accepted"
   with Invalid_argument _ -> ());
  let names = List.map fst (Metrics.snapshot ()) in
  Alcotest.(check (list string)) "snapshot sorted by name" (List.sort compare names) names

(* ----------------------------------------------------------------- spans *)

let test_disabled_is_free () =
  Trace.clear ();
  Obs.set_enabled false;
  let s = Trace.start "off" in
  Trace.finish s;
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded ());
  Alcotest.(check int) "no ambient context" 0 (Trace.current ())

let test_nesting () =
  with_obs @@ fun () ->
  Trace.with_ ~name:"outer" (fun () ->
      Trace.with_ ~name:"inner" (fun () -> ()));
  match Trace.events () with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer first by start time" "outer" outer.Trace.name;
      Alcotest.(check string) "inner second" "inner" inner.Trace.name;
      Alcotest.(check int) "outer is a root" 0 outer.Trace.parent;
      Alcotest.(check int) "inner parents to outer" outer.Trace.id inner.Trace.parent;
      Alcotest.(check bool) "inner fits inside outer" true
        (inner.Trace.start_ns >= outer.Trace.start_ns
        && inner.Trace.start_ns + inner.Trace.dur_ns
           <= outer.Trace.start_ns + outer.Trace.dur_ns)
  | events -> Alcotest.failf "expected 2 events, got %d" (List.length events)

let test_exception_restores_context () =
  with_obs @@ fun () ->
  (try Trace.with_ ~name:"boom" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "context restored after raise" 0 (Trace.current ());
  Alcotest.(check int) "span still recorded" 1 (Trace.recorded ())

let test_ring_wraparound () =
  with_obs @@ fun () ->
  let saved = Trace.ring_capacity () in
  Fun.protect ~finally:(fun () -> Trace.set_ring_capacity saved) @@ fun () ->
  Trace.set_ring_capacity 8;
  for _ = 1 to 20 do
    Trace.with_ ~name:"tick" (fun () -> ())
  done;
  let events = Trace.events () in
  Alcotest.(check int) "ring keeps only the capacity" 8 (List.length events);
  Alcotest.(check int) "recorded counts wrapped-out spans too" 20 (Trace.recorded ());
  (* Oldest events are the ones overwritten: the survivors are the last 8
     ids issued, in order. *)
  let ids = List.map (fun e -> e.Trace.id) events in
  Alcotest.(check (list int)) "survivors are the newest, oldest-first"
    (List.sort compare ids) ids;
  let oldest = List.hd ids in
  List.iteri
    (fun i id -> Alcotest.(check int) "contiguous ids" (oldest + i) id)
    ids

let test_pool_parenting () =
  (* Spans opened inside pooled tasks parent to the span that was current at
     submission, across at least two domains; children opened inside a task
     parent to that task's span. No torn or dangling parent ids. *)
  with_obs @@ fun () ->
  let tasks = 16 in
  (* The submitter helps drain the queue, so on a single-CPU host it can
     swallow a batch of instant tasks before any worker domain is scheduled.
     Rendezvous instead: every task spins (bounded) until two tasks have
     started, which only happens once two distinct domains each hold one. *)
  let started = Atomic.make 0 in
  let rendezvous () =
    Atomic.incr started;
    let spins = ref 0 in
    while Atomic.get started < 2 && !spins < 50_000_000 do
      incr spins;
      Domain.cpu_relax ()
    done
  in
  let run_once () =
    Trace.clear ();
    Atomic.set started 0;
    Pool.with_pool ~jobs:4 (fun pool ->
        Trace.with_ ~name:"submit" (fun () ->
            ignore
              (Pool.run_list pool
                 (List.init tasks (fun i ->
                      fun () ->
                       Trace.with_ ~name:"task" (fun () ->
                           rendezvous ();
                           Trace.with_ ~name:"child" (fun () -> i)))))));
    let events = Trace.events () in
    Alcotest.(check int) "all spans recorded" ((2 * tasks) + 1) (List.length events);
    let by_name n = List.filter (fun e -> e.Trace.name = n) events in
    let submit =
      match by_name "submit" with [ e ] -> e | _ -> Alcotest.fail "one submit span"
    in
    let task_ids =
      List.map
        (fun e ->
          Alcotest.(check int) "task parents to the submitting span"
            submit.Trace.id e.Trace.parent;
          e.Trace.id)
        (by_name "task")
    in
    Alcotest.(check int) "every task traced" tasks (List.length task_ids);
    List.iter
      (fun e ->
        Alcotest.(check bool) "child parents to some task span" true
          (List.mem e.Trace.parent task_ids))
      (by_name "child");
    List.length
      (List.sort_uniq compare (List.map (fun e -> e.Trace.domain) (by_name "task")))
  in
  let rec attempt n best =
    if n = 0 then best
    else
      let domains = run_once () in
      if domains >= 2 then domains else attempt (n - 1) (max best domains)
  in
  let domains = attempt 5 0 in
  Alcotest.(check bool)
    (Printf.sprintf "tasks ran on >=2 domains (saw %d)" domains)
    true (domains >= 2)

(* ------------------------------------------------------------- exporters *)

(* A minimal JSON reader — just enough to verify the Chrome export is
   well-formed without a JSON dependency. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      then (advance (); skip_ws ())
    in
    let expect c =
      skip_ws ();
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let literal word v =
      String.iter (fun c -> if peek () <> c then raise (Bad word) else advance ()) word;
      v
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance (); Buffer.contents buf
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'u' ->
                (* \uXXXX: tests only need ASCII escapes; keep the raw code. *)
                advance (); advance (); advance ();
                Buffer.add_char buf '?'
            | c -> Buffer.add_char buf c);
            advance ();
            go ()
        | c -> advance (); Buffer.add_char buf c; go ()
      in
      go ()
    in
    let number () =
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && numchar s.[!pos] do advance () done;
      if !pos = start then raise (Bad "number");
      float_of_string (String.sub s start (!pos - start))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then (advance (); Obj [])
          else
            let rec members acc =
              let key = (skip_ws (); string_lit ()) in
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); members ((key, v) :: acc)
              | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
              | _ -> raise (Bad "object")
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then (advance (); List [])
          else
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); elements (v :: acc)
              | ']' -> advance (); List (List.rev (v :: acc))
              | _ -> raise (Bad "array")
            in
            elements []
      | '"' -> Str (string_lit ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (number ())
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member key = function
    | Obj fields -> List.assoc key fields
    | _ -> raise (Bad ("not an object for " ^ key))
end

let test_chrome_json () =
  with_obs @@ fun () ->
  Trace.with_ ~name:"outer \"quoted\"\n" (fun () ->
      Trace.with_ ~name:"inner" (fun () -> ()));
  let json = Json.parse (Export.chrome_json (Trace.events ())) in
  let events =
    match Json.member "traceEvents" json with
    | Json.List events -> events
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  Alcotest.(check int) "both spans exported" 2 (List.length events);
  let find name =
    List.find
      (fun e -> match Json.member "name" e with Json.Str s -> s = name | _ -> false)
      events
  in
  let outer = find "outer \"quoted\"\n" and inner = find "inner" in
  let num key e = match Json.member key e with Json.Num x -> x | _ -> Alcotest.fail key in
  List.iter
    (fun e ->
      (match Json.member "ph" e with
      | Json.Str "X" -> ()
      | _ -> Alcotest.fail "complete events only");
      Alcotest.(check bool) "duration is non-negative" true (num "dur" e >= 0.0))
    events;
  Alcotest.(check (float 0.0)) "hierarchy survives in args"
    (num "id" (Json.member "args" outer))
    (num "parent" (Json.member "args" inner))

let test_prometheus_round_trip () =
  with_obs @@ fun () ->
  Metrics.Counter.add (Metrics.counter "rt_total") 42;
  Metrics.Gauge.set (Metrics.gauge "rt_gauge") 0.1;
  let h = Metrics.histogram ~buckets:[| 0.001; 0.1 |] "rt_seconds" in
  List.iter (Metrics.Histogram.observe h) [ 0.0005; 0.05; 7.0 ];
  let samples = Export.parse_prometheus (Export.prometheus ()) in
  let get name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "missing sample %s" name
  in
  Alcotest.(check (float 0.0)) "counter" 42.0 (get "rt_total");
  (* 0.1 has no exact binary representation: the emitter must print enough
     digits that the parse reads back the same float. *)
  Alcotest.(check (float 0.0)) "gauge round-trips exactly" 0.1 (get "rt_gauge");
  Alcotest.(check (float 0.0)) "le=0.001" 1.0 (get "rt_seconds_bucket{le=\"0.001\"}");
  Alcotest.(check (float 0.0)) "le=0.1 cumulative" 2.0
    (get "rt_seconds_bucket{le=\"0.1\"}");
  Alcotest.(check (float 0.0)) "le=+Inf" 3.0 (get "rt_seconds_bucket{le=\"+Inf\"}");
  Alcotest.(check (float 0.0)) "count" 3.0 (get "rt_seconds_count");
  Alcotest.(check (float 1e-12)) "sum" 7.0505 (get "rt_seconds_sum")

let test_counters_mirror () =
  (* lib/resource Counters stay a cheap per-search snapshot; with the flag
     on they also feed the global registry. *)
  with_obs @@ fun () ->
  let registry_evals () =
    Metrics.Counter.value (Metrics.counter "raqo_cost_evaluations_total")
  in
  let c = Raqo_resource.Counters.create () in
  Raqo_resource.Counters.record_evaluations c 5;
  Raqo_resource.Counters.record_hit c;
  Alcotest.(check int) "snapshot view" 5 (Raqo_resource.Counters.cost_evaluations c);
  Alcotest.(check int) "registry mirrored" 5 (registry_evals ());
  Alcotest.(check int) "hits mirrored" 1
    (Metrics.Counter.value (Metrics.counter "raqo_plan_cache_hits_total"));
  Obs.set_enabled false;
  Raqo_resource.Counters.record_evaluation c;
  Alcotest.(check int) "snapshot still counts when off" 6
    (Raqo_resource.Counters.cost_evaluations c);
  Alcotest.(check int) "registry untouched when off" 5 (registry_evals ())

(* The search [Export.fmt_float] replaced: every precision from 1 to 17,
   kept here as the reference its shortcut must reproduce byte for byte. *)
let fmt_float_reference v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else begin
    let rec shortest p =
      if p > 17 then Printf.sprintf "%.17g" v
      else
        let s = Printf.sprintf "%.*g" p v in
        if float_of_string s = v then s else shortest (p + 1)
    in
    shortest 1
  end

let fmt_float_edges =
  [ 0.0; -0.0; 0.1; -0.1; 1.5; 1.0 /. 3.0; Float.pi; 2.0 ** 53.0; 2.0 ** 53.0 +. 2.0;
    Float.epsilon; Float.min_float; Float.max_float; -.Float.max_float; 1e308;
    Int64.float_of_bits 1L; Int64.float_of_bits 0x000fffffffffffffL; Float.min_float /. 3.0;
    5e-324; 1e-310; 123456.5; 1e15; 1e15 +. 1.0; 1e16; 1e17; 1e17 -. 16.0;
    999999999999999.9; 1234567890123456.0; 1e-5; 1e-4; 232.22321803658696 ]
  @ List.init 101 (fun i -> 1e15 +. (float_of_int i *. 9.9e14))

let test_fmt_float_edges () =
  List.iter
    (fun v ->
      Alcotest.(check string) (Printf.sprintf "%h" v) (fmt_float_reference v)
        (Export.fmt_float v))
    fmt_float_edges

(* Random bit patterns cover the normal range; subnormal mantissas and
   integers from 1e15 to 1e17 get their own share, since that is where the
   search's starting precision matters. *)
let prop_fmt_float_matches_reference =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (6, map Int64.float_of_bits ui64);
          (2, map (fun m -> Int64.float_of_bits (Int64.logand m 0x800fffffffffffffL)) ui64);
          (2, map (fun x -> Float.round (1e15 +. (x *. 99e15))) (float_bound_inclusive 1.0));
        ])
  in
  QCheck.Test.make ~name:"fmt_float matches the 1..17 search" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun v -> String.equal (Export.fmt_float v) (fmt_float_reference v))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter under contention" `Quick test_counter_parallel;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled is free" `Quick test_disabled_is_free;
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "exception restores context" `Quick
            test_exception_restores_context;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "pool parenting across domains" `Quick test_pool_parenting;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome json parses" `Quick test_chrome_json;
          Alcotest.test_case "prometheus round-trip" `Quick test_prometheus_round_trip;
          Alcotest.test_case "fmt_float edges" `Quick test_fmt_float_edges;
          QCheck_alcotest.to_alcotest prop_fmt_float_matches_reference;
          Alcotest.test_case "counters mirror the registry" `Quick test_counters_mirror;
        ] );
    ]
