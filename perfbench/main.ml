(* The benchmark's entry point: one workload per process, one thread, engine at
   jobs = 1. See NOTES.md for why each workload exists and which layer it
   loads.

   bench.exe --workload serve-tpch|join-large|alloc-wave --seed N
             --seconds S --trace 0|1 [--smoke] [--corrupt]

   --trace 0 measures the end-to-end metrics on the untraced program;
   --trace 1 runs the untraced program and the traced replay (Replay)
   interleaved on identical inputs and prints the per-layer ledger. The last
   stdout line is one JSON object: correct, attempted, failed, metrics.
   --corrupt flips one byte of one answer before the correctness gate, which
   must then fail the run (the benchmark's own test of its gate). *)

module P = Raqo_server.Protocol
module Engine = Raqo_server.Engine
module Serve = Raqo_server.Serve
module Cb = Raqo.Cost_based
module Allocator = Raqo_alloc.Allocator
module W = Workloads
module R = Replay

let now = Raqo_obs.Obs.now_ns
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------ options *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let smoke = ref false
let corrupt = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve-tpch | join-large | alloc-wave");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "length of the timed phase");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer ledger");
      ("--smoke", Arg.Set smoke, "small inputs, for the benchmark's own tests");
      ("--corrupt", Arg.Set corrupt, "feed the correctness gate one wrong answer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let traced = !trace = 1

(* ------------------------------------------------------------ results *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* Failures of the correctness gate, in requests. *)
let failed = ref 0
let attempted = ref 0
let problems = ref []

let fail ~requests fmt =
  Printf.ksprintf
    (fun s ->
      failed := !failed + requests;
      if List.length !problems < 20 then problems := s :: !problems)
    fmt

let fmt_value v = Printf.sprintf "%.17g" v

let print_result metrics =
  let correct = !failed = 0 && !attempted > 0 in
  Printf.printf "\n%-34s %22s  %s\n" "metric" "value" "unit";
  List.iter
    (fun x -> Printf.printf "%-34s %22s  %s\n" x.name (Printf.sprintf "%.6g" x.value) x.unit_)
    metrics;
  Printf.printf "failed_ratio %s (%d of %d requests)\n"
    (fmt_value (float_of_int !failed /. float_of_int (max 1 !attempted)))
    !failed !attempted;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev !problems);
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (fmt_value x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed (String.concat ", " fields);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------ statistics *)

(* Nearest-rank percentile of an ascending array. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* The middle value, or the mean of the two middle values. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

let geomean_weighted pairs =
  let n, s =
    List.fold_left (fun (n, s) (w, v) -> (n +. w, s +. (w *. log v))) (0.0, 0.0) pairs
  in
  if n = 0.0 then 0.0 else exp (s /. n)

(* Latency samples of the timed phase, one per wave: [per_wave] requests
   answered together share their wave's time, so percentiles over waves are
   percentiles over requests. Unboxed, so the benchmark's own bookkeeping
   barely shows in [heap_peak_mb]. *)
type samples = {
  per_wave : int;
  mutable ms : Float.Array.t;
  mutable waves : int;
  start : int;
}

let samples ~per_wave =
  { per_wave; ms = Float.Array.create 4096; waves = 0; start = now () }

let record s ms =
  if s.waves = Float.Array.length s.ms then begin
    let grown = Float.Array.create (2 * s.waves) in
    Float.Array.blit s.ms 0 grown 0 s.waves;
    s.ms <- grown
  end;
  Float.Array.set s.ms s.waves ms;
  s.waves <- s.waves + 1

(* Completed requests over the phase's wall time, and the median and a
   fixed tail percentile of per-request latency over every sample of the
   phase. *)
let timing_metrics s ~tail =
  let wall = secs (now () - s.start) in
  let n = s.waves * s.per_wave in
  let a = Array.init s.waves (Float.Array.get s.ms) in
  Array.sort compare a;
  let rank = int_of_float (Float.ceil (tail /. 100.0 *. float_of_int s.waves)) in
  let beyond = s.per_wave * (s.waves - rank) in
  Printf.printf "timed phase: %.2f s, %d requests; latency_tail_ms is p%g (%d samples beyond it)\n"
    wall n tail beyond;
  [
    m "requests_per_s" (float_of_int n /. wall) "requests/s";
    m "latency_p50_ms" (pct a 50.0) "ms";
    m "latency_tail_ms" (pct a tail) "ms";
  ]

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------ set-up *)

(* Set-up is repeated and its median reported: engine creation, a fresh
   cost-model training (checked against the memoized model the engine
   uses) and the warm-up pass over the workload's hot set, then a
   compaction. [setup] runs it before the timed phase and returns the last
   repetition's state, the one measured; [setup_metric] runs it again after
   the timed phase, as often, and reports the median of all repetitions.
   The host's speed drifts over tens of seconds, so set-ups on both sides
   of the timed phase sample more of that drift than back-to-back ones; when
   the two sides differ, the median falls between them. *)
let setup_times = ref []

let time_setup f =
  let t0 = now () in
  let model = Raqo.Models.train Raqo_execsim.Engine.hive in
  let state = f () in
  Gc.compact ();
  setup_times := secs (now () - t0) :: !setup_times;
  if model <> Raqo.Models.hive () then fail ~requests:1 "Models.train is not deterministic";
  state

let setup ~reps f =
  let last = ref (time_setup f) in
  for _ = 2 to reps do
    last := time_setup f
  done;
  !last

let setup_metric f state =
  let reps = List.length !setup_times in
  (* each repetition runs with the previous state live, as before the timed
     phase *)
  let last = ref state in
  for _ = 1 to reps do
    last := time_setup f
  done;
  ignore (Sys.opaque_identity !last);
  Printf.printf "setup: %d repetitions before the timed phase and %d after, median %.4f s\n"
    reps reps (median !setup_times);
  m "setup_s" (median !setup_times) "s"

let deadline () = now () + (!seconds * 1_000_000_000)

let provenance () =
  let env k = Option.value (Sys.getenv_opt k) ~default:"unknown" in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%d trace=%d smoke=%b\n\
     host: nproc=%s pinned-cpu=%s ocaml=%s commit=%s dirty=%s\n"
    !workload !seed !seconds !trace !smoke (env "PERFBENCH_NPROC") (env "PERFBENCH_CPU")
    Sys.ocaml_version (env "PERFBENCH_COMMIT") (env "PERFBENCH_DIRTY")

(* ------------------------------------------------------------ layer ledger *)

(* The layers' self times must add up to the traced end-to-end time within
   this share of it. *)
let ledger_tolerance = 0.05

let per n x = if n = 0 then 0.0 else x /. float_of_int n
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per-layer figures from a traced phase. [e2e_ns] is the traced end-to-end
   time, [untraced_ns] the untraced program's time on the same requests. *)
let ledger_metrics ?(alloc_objective = (0.0, 0.0)) (a : R.acc) ~e2e_ns ~untraced_ns ~cache =
  let r = a.requests + a.alloc_requests in
  let us ns = per r (float_of_int ns /. 1e3) and ms ns = per r (float_of_int ns /. 1e6) in
  let layers =
    [
      ("protocol", a.parse + a.serialize);
      ("server", a.admit + a.dispatch + a.glue);
      ("sql", a.sql);
      ("rewrite", a.rewrite);
      ("planner", a.planner);
      ("resource", a.resource);
      ("adaptive", a.adaptive);
      ("alloc", a.surface + a.search);
    ]
  in
  let unaccounted = e2e_ns - R.layers_ns a in
  Printf.printf "ledger (self time, share of traced end-to-end %.3f s):\n" (secs e2e_ns);
  List.iter
    (fun (l, ns) -> Printf.printf "  %-10s %10.3f s  %6.2f%%\n" l (secs ns) (100.0 *. ratio ns e2e_ns))
    (layers @ [ ("unaccounted", unaccounted) ]);
  let top, top_ns = List.fold_left (fun (l, n) (l', n') -> if n' > n then (l', n') else (l, n)) ("", 0) layers in
  Printf.printf "largest self time: %s (%.1f%%); unaccounted %.2f%% (tolerance %g%%: %s)\n" top
    (100.0 *. ratio top_ns e2e_ns)
    (100.0 *. ratio unaccounted e2e_ns)
    (100.0 *. ledger_tolerance)
    (if Float.abs (ratio unaccounted e2e_ns) <= ledger_tolerance then "within" else "EXCEEDED");
  let hits, misses, inserts, evictions = cache in
  let shares = List.map (fun (l, ns) -> m ("ledger." ^ l ^ "_share") (ratio ns e2e_ns) "ratio") layers in
  [
    m "protocol.parse_us" (us a.parse) "us";
    m "protocol.serialize_us" (us a.serialize) "us";
    m "protocol.response_bytes" (per r (float_of_int a.response_bytes)) "bytes";
    m "server.admit_us" (us a.admit) "us";
    m "server.wave_ms" (per a.waves (float_of_int a.wave /. 1e6)) "ms";
    m "server.dispatch_ratio" (ratio a.dispatch a.wave) "ratio";
    m "sql.resolve_us" (us a.sql) "us";
    m "rewrite.apply_us" (us a.rewrite) "us";
    m "rewrite.fired" (per r (float_of_int a.fired)) "count/req";
    m "rewrite.removed" (per r (float_of_int a.removed)) "count/req";
    m "planner.enumerate_self_ms" (ms a.planner) "ms";
    m "planner.coster_calls" (per r (float_of_int a.coster_calls)) "count/req";
    m "resource.search_ms" (ms a.resource) "ms";
    m "resource.invocations" (per r (float_of_int a.invocations)) "count/req";
    m "resource.cost_evaluations" (per r (float_of_int a.evaluations)) "count/req";
    m "resource.evals_per_invocation" (ratio a.evaluations a.invocations) "ratio";
    m "resource.cache_hit_ratio" (ratio a.rp_hits (a.rp_hits + a.rp_misses)) "ratio";
    m "resource.minor_words" (per r a.minor_words) "words/req";
    m "shared_cache.hit_ratio" (ratio hits (hits + misses)) "ratio";
    m "shared_cache.inserts" (per r (float_of_int inserts)) "count/req";
    m "shared_cache.evictions" (per r (float_of_int evictions)) "count/req";
    m "adaptive.ms" (ms a.adaptive) "ms";
    m "adaptive.replans" (per r (float_of_int a.replans)) "count/req";
    m "adaptive.switches" (per r (float_of_int a.switches)) "count/req";
    m "alloc.plan_ms" (per a.alloc_requests (float_of_int a.member_plan /. 1e6)) "ms";
    m "alloc.surface_ms" (per a.alloc_requests (float_of_int a.surface /. 1e6)) "ms";
    m "alloc.search_ms" (per a.alloc_requests (float_of_int a.search /. 1e6)) "ms";
    m "alloc.exact_share" (ratio a.exact a.alloc_requests) "ratio";
    m "alloc.frontier_points" (per a.alloc_requests (float_of_int a.frontier)) "count/req";
  ]
  @ [
      m "alloc.makespan_geomean" (fst alloc_objective) "sim-s";
      m "alloc.dollars_geomean" (snd alloc_objective) "USD";
    ]
  @ shares
  @ [
      m "ledger.unaccounted_ratio" (ratio unaccounted e2e_ns) "ratio";
      m "trace.overhead_ratio" (1.0 -. ratio untraced_ns e2e_ns) "ratio";
      m "trace.requests" (float_of_int r) "count";
    ]

let cache_counts c =
  Raqo_resource.Shared_plan_cache.
    (hits c, misses c, inserts c, evictions c)

let cache_delta (h0, m0, i0, e0) (h1, m1, i1, e1) = (h1 - h0, m1 - m0, i1 - i0, e1 - e0)

(* ------------------------------------------------------------ serve-tpch *)

let caller_count = 8

let serve_sizes () = if !smoke then (24, 64) else (96, 1536)

(* Warm-up: the hot set, one pass over the cold lines (the shared cache
   reaches its bound and starts evicting, as in the timed phase), then the
   hot set again. *)
let warm_lines (w : W.serve) = Array.concat [ w.hot; w.cold; w.hot ]

let warm_serve engine w =
  let lines = warm_lines w in
  let n = Array.length lines in
  for r = 0 to (n - 1) / caller_count do
    let k = min caller_count (n - (r * caller_count)) in
    ignore (Serve.serve_lines engine (Array.to_list (Array.sub lines (r * caller_count) k)))
  done

let warm_replay env w =
  Array.iter
    (fun l ->
      match P.parse_request l with
      | Ok req -> ignore (R.plan_request (R.acc ()) env req)
      | Error e -> failwith e)
    (warm_lines w)

let cost_of_response line =
  match Raqo_server.Json.parse line with
  | Ok j -> (
      match Raqo_server.Json.member "cost" j with
      | Some c -> Raqo_server.Json.to_float c
      | None -> None)
  | Error _ -> None

(* Per distinct request line: its first served answer and how often the
   line was sent. *)
type seen = (int, string * int ref) Hashtbl.t

let observe (s : seen) idx answer =
  match Hashtbl.find_opt s idx with
  | None -> Hashtbl.add s idx (answer, ref 1)
  | Some (first, count) ->
      incr count;
      if not (String.equal first answer) then
        fail ~requests:1 "line %d: answer differs from its first answer" idx

(* The wrong answer: one byte of one recorded answer flipped. *)
let corrupt_first (s : seen) =
  if !corrupt then
    match Hashtbl.to_seq s () with
    | Seq.Cons ((k, (v, count)), _) ->
        let b = Bytes.of_string v in
        let i = Bytes.length b - 2 in
        Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
        Hashtbl.replace s k (Bytes.to_string b, count)
    | Seq.Nil -> ()

(* Gate: each distinct line's served answer equals Engine.oneshot's. *)
let check_serve (w : W.serve) s =
  corrupt_first s;
  let costs = ref [] in
  Hashtbl.iter
    (fun idx (answer, count) ->
      let line = W.line w idx in
      let count = !count in
      match P.parse_request line with
      | Error e -> fail ~requests:count "line %d does not parse: %s" idx e
      | Ok req ->
          let expected = P.response_to_json (Engine.oneshot req) in
          if not (String.equal expected answer) then
            fail ~requests:count "line %d: served %s, oneshot %s" idx answer expected
          else begin
            match cost_of_response answer with
            | Some c when c > 0.0 -> costs := (float_of_int count, c) :: !costs
            | _ -> fail ~requests:count "line %d: no plan in %s" idx answer
          end)
    s;
  Printf.printf "gate: %d distinct request lines checked against Engine.oneshot\n"
    (Hashtbl.length s);
  geomean_weighted !costs

let serve_tpch () =
  let hot, cold = serve_sizes () in
  let w = W.serve ~seed:!seed ~hot ~cold in
  Printf.printf
    "serve-tpch: closed loop, %d callers, one wave of %d per round; %d hot lines, %d \
     cold lines (1 request in %d cold)\n"
    caller_count caller_count hot cold w.cold_every;
  let fresh () =
    let e = Engine.create () in
    warm_serve e w;
    e
  in
  let tail = 99.0 in
  if not traced then begin
    let engine = setup ~reps:3 fresh in
    let s = Hashtbl.create 4096 in
    let sched = W.schedule ~seed:!seed w in
    let c = samples ~per_wave:caller_count in
    let stop = deadline () in
    while now () < stop do
      let idx = Array.init caller_count (fun _ -> W.next sched) in
      let lines = Array.to_list (Array.map (W.line w) idx) in
      let t0 = now () in
      let out = Serve.serve_lines engine lines in
      let dt = now () - t0 in
      record c (float_of_int dt /. 1e6);
      attempted := !attempted + caller_count;
      List.iteri (fun i answer -> observe s idx.(i) answer) out;
      if List.length out <> caller_count then fail ~requests:caller_count "short round"
    done;
    let timing = timing_metrics c ~tail in
    let heap = heap_mb () in
    let setup_m = setup_metric fresh engine in
    let cost = check_serve w s in
    print_result
      ([ setup_m ] @ timing
      @ [ m "heap_peak_mb" heap "MB"; m "plan_cost_geomean" cost "sim-s" ])
  end
  else begin
    (* Three engines with identical histories: [u] serves untraced, [a]
       serves through the same calls split apart (parse, submit, wave,
       serialize), and [b]'s cache backs the replay of each request's
       planning. The traced end-to-end time is [a]'s server path with its
       planning replaced by [b]'s traced replay. *)
    let acc = R.acc () in
    let u = fresh () and a = fresh () and b = Engine.create () in
    let env = R.env b in
    warm_replay env w;
    Gc.compact ();
    let s = Hashtbl.create 4096 in
    let sched = W.schedule ~seed:!seed w in
    let untraced = ref 0 and e2e = ref 0 in
    let cache0 = cache_counts (Engine.cache a) in
    let hist = Engine.latency_histogram a in
    let stop = deadline () in
    while now () < stop do
      let idx = Array.init caller_count (fun _ -> W.next sched) in
      let lines = List.map (W.line w) (Array.to_list idx) in
      let t0 = now () in
      let out_u = Serve.serve_lines u lines in
      untraced := !untraced + (now () - t0);
      (* a: the served path, timed call by call *)
      let round0 = now () in
      let reqs =
        List.map
          (fun l ->
            let t0 = now () in
            let r = P.parse_line l in
            acc.parse <- acc.parse + (now () - t0);
            match r with
            | Ok (P.Request req) ->
                let t0 = now () in
                let adm = Engine.submit a req in
                acc.admit <- acc.admit + (now () - t0);
                if adm <> None then failwith "request rejected at admission";
                req
            | _ -> failwith "not a plan request")
          lines
      in
      let p0 = Raqo_obs.Metrics.Histogram.sum hist in
      let t0 = now () in
      let wave = Engine.process_wave a in
      let wave_ns = now () - t0 in
      let plan_ns = int_of_float ((Raqo_obs.Metrics.Histogram.sum hist -. p0) *. 1e9) in
      acc.wave <- acc.wave + wave_ns;
      acc.waves <- acc.waves + 1;
      acc.dispatch <- acc.dispatch + (wave_ns - plan_ns);
      let out_a =
        List.map
          (fun (_, resp) ->
            let t0 = now () in
            let l = P.response_to_json resp in
            acc.serialize <- acc.serialize + (now () - t0);
            acc.response_bytes <- acc.response_bytes + String.length l;
            l)
          wave
      in
      let served_ns = now () - round0 - plan_ns in
      (* b: the replay of each request's planning *)
      let t0 = now () in
      let out_b = List.map (fun req -> R.plan_request acc env req) reqs in
      let replay_ns = now () - t0 in
      e2e := !e2e + served_ns + replay_ns;
      attempted := !attempted + caller_count;
      List.iteri
        (fun i (lu, (la, rb)) ->
          observe s idx.(i) lu;
          if not (String.equal lu la && String.equal la (P.response_to_json rb)) then
            fail ~requests:1 "line %d: traced answer differs from untraced" idx.(i))
        (List.combine out_u (List.combine out_a out_b))
    done;
    let cache = cache_delta cache0 (cache_counts (Engine.cache a)) in
    ignore (check_serve w s);
    print_result (ledger_metrics acc ~e2e_ns:!e2e ~untraced_ns:!untraced ~cache)
  end

(* ------------------------------------------------------------ join-large *)

let conditions = Raqo_cluster.Conditions.default

let plan_join schema (q : W.jl_query) =
  let opt = Cb.create ~kind:q.kind ~model:(Raqo.Models.hive ()) ~conditions schema in
  Cb.optimize opt q.relations

let replay_join acc schema (q : W.jl_query) =
  let o =
    R.create acc ~kind:q.kind ~seed:42 ~rewrite:true ~model:(Raqo.Models.hive ()) ~conditions
      schema
  in
  R.optimize acc o ~hints:Raqo_rewrite.Rewrite.no_hints schema q.relations

let render = function
  | None -> "infeasible"
  | Some (plan, cost) -> Printf.sprintf "%s %h" (R.render_plan plan) cost

let check_join schema (items : W.jl_query array) results =
  (* the wrong answer: another query's plan in place of the first one's *)
  if !corrupt then
    Hashtbl.replace results 0 (Hashtbl.find results (Hashtbl.length results - 1));
  let model = Raqo.Models.hive () in
  let costs = ref [] in
  Hashtbl.iter
    (fun i res ->
      let q = items.(i) in
      match res with
      | None -> fail ~requests:1 "%s: no plan" q.qid
      | Some (plan, cost) -> (
          (match
             Raqo_verify.Invariant.check_joint ~model ~conditions ~schema
               ~expected:q.relations (plan, cost)
           with
          | [] -> costs := (1.0, cost) :: !costs
          | d :: _ ->
              fail ~requests:1 "%s: %s" q.qid (Format.asprintf "%a" Raqo_verify.Diagnostic.pp d));
          (* each DPsub query follows its Selinger twin *)
          if q.kind = Cb.Bushy_dp then
            match Hashtbl.find_opt results (i - 1) with
            | Some (Some (_, sel)) when not (cost <= sel) ->
                fail ~requests:1 "%s: DPsub cost %h above Selinger %h" q.qid cost sel
            | _ -> ()))
    results;
  Printf.printf "gate: %d plans checked (Invariant.check_joint, DPsub <= Selinger)\n"
    (Hashtbl.length results);
  geomean_weighted !costs

let join_large () =
  let blocks = if !smoke then 1 else 8 in
  let schema = Lazy.force W.catalog in
  let items = W.join_large ~seed:!seed ~blocks in
  let n = Array.length items in
  Printf.printf
    "join-large: corpus of %d queries in blocks of 3 Selinger/DPsub pairs (12-18 \
     relations) + 1 randomized (24-70 relations), fresh optimizer each, whole passes \
     until the time is up\n"
    n;
  let results = Hashtbl.create 256 in
  let answer i res =
    match Hashtbl.find_opt results (i mod n) with
    | None -> Hashtbl.add results (i mod n) res
    | Some first ->
        if render first <> render res then fail ~requests:1 "%s: answer changed" items.(i mod n).qid
  in
  let warm () = List.iter (fun q -> ignore (plan_join schema q)) (W.join_warmup ()) in
  let tail = 90.0 in
  if not traced then begin
    setup ~reps:3 warm;
    let c = samples ~per_wave:1 in
    let stop = deadline () in
    let i = ref 0 in
    while now () < stop || !i mod n <> 0 do
      let q = items.(!i mod n) in
      let t0 = now () in
      let res = plan_join schema q in
      record c (float_of_int (now () - t0) /. 1e6);
      answer !i res;
      incr attempted;
      incr i
    done;
    let timing = timing_metrics c ~tail in
    let heap = heap_mb () in
    let setup_m = setup_metric warm () in
    let cost = check_join schema items results in
    print_result
      ([ setup_m ] @ timing @ [ m "heap_peak_mb" heap "MB"; m "plan_cost_geomean" cost "sim-s" ])
  end
  else begin
    warm ();
    Gc.compact ();
    let acc = R.acc () in
    let untraced = ref 0 and e2e = ref 0 in
    let stop = deadline () in
    let i = ref 0 in
    while now () < stop || !i mod n <> 0 do
      let q = items.(!i mod n) in
      let t0 = now () in
      let res = plan_join schema q in
      untraced := !untraced + (now () - t0);
      acc.requests <- acc.requests + 1;
      let t0 = now () in
      let replayed = replay_join acc schema q in
      e2e := !e2e + (now () - t0);
      if render res <> render replayed then fail ~requests:1 "%s: traced answer differs" q.qid;
      answer !i res;
      incr attempted;
      incr i
    done;
    ignore (check_join schema items results);
    print_result
      (ledger_metrics acc ~e2e_ns:!e2e ~untraced_ns:!untraced ~cache:(0, 0, 0, 0))
  end

(* ------------------------------------------------------------ alloc-wave *)

(* Gate: each distinct request's served answer must be byte-equal to
   Engine.oneshot_allocate's. Every frontier point of that answer must
   re-evaluate to its claimed vector through Allocator.evaluate, over the
   member surfaces the replay builds, and no frontier point may dominate
   another. *)
let check_alloc lines s =
  corrupt_first s;
  let objective = ref [] in
  Hashtbl.iter
    (fun idx (answer, count) ->
      let count = !count in
      match P.parse_line lines.(idx) with
      | Ok (P.Allocate areq) -> (
          let expected = Engine.oneshot_allocate areq in
          if not (String.equal (P.response_to_json expected) answer) then
            fail ~requests:count "%s: served answer differs from Engine.oneshot_allocate"
              areq.id
          else
            match (expected, snd (R.allocate (R.acc ()) (R.env (Engine.create ())) areq)) with
            | P.Allocated al, Some (queries, _) ->
                let frontier =
                  List.map
                    (fun (p : P.alloc_point) ->
                      {
                        Allocator.alloc = Array.of_list p.containers;
                        makespan = p.makespan;
                        dollars = p.dollars;
                        violations = p.violations;
                      })
                    al.frontier
                in
                List.iter
                  (fun (p : Allocator.point) ->
                    let q = Allocator.evaluate queries p.alloc in
                    if
                      not
                        (q.makespan = p.makespan && q.dollars = p.dollars
                       && q.violations = p.violations)
                    then fail ~requests:count "%s: frontier point does not re-evaluate" areq.id)
                  frontier;
                List.iter
                  (fun p ->
                    if List.exists (fun q -> Allocator.dominates q p) frontier then
                      fail ~requests:count "%s: dominated frontier point" areq.id)
                  frontier;
                objective :=
                  (float_of_int count, al.chosen.makespan, al.chosen.dollars) :: !objective
            | _ -> fail ~requests:count "%s: not allocated: %s" areq.id answer)
      | _ -> fail ~requests:count "line %d is not an allocate request" idx)
    s;
  Printf.printf
    "gate: %d distinct allocate requests checked against Engine.oneshot_allocate and \
     re-evaluated\n"
    (Hashtbl.length s);
  ( geomean_weighted (List.map (fun (w, mk, _) -> (w, mk)) !objective),
    geomean_weighted (List.map (fun (w, _, d) -> (w, d)) !objective) )

let alloc_wave () =
  let lines = W.alloc_wave ~seed:!seed ~smoke:!smoke in
  let requests = Array.length lines in
  Printf.printf
    "alloc-wave: corpus of %d allocate requests, one at a time through serve_lines, \
     8-32 TPC-H members each, budget 3N, whole passes until the time is up\n"
    requests;
  (* warm-up: every request once (fills the shared cache with member plans) *)
  let fresh () =
    let e = Engine.create () in
    Array.iter (fun l -> ignore (Serve.serve_lines e [ l ])) lines;
    e
  in
  let tail = 90.0 in
  let s = Hashtbl.create 64 in
  if not traced then begin
    let engine = setup ~reps:2 fresh in
    let c = samples ~per_wave:1 in
    let stop = deadline () in
    let i = ref 0 in
    while now () < stop || !i mod requests <> 0 do
      let idx = !i mod requests in
      let t0 = now () in
      let out = Serve.serve_lines engine [ lines.(idx) ] in
      record c (float_of_int (now () - t0) /. 1e6);
      (match out with [ answer ] -> observe s idx answer | _ -> fail ~requests:1 "no answer");
      incr attempted;
      incr i
    done;
    let timing = timing_metrics c ~tail in
    let heap = heap_mb () in
    let setup_m = setup_metric fresh engine in
    let makespan, _ = check_alloc lines s in
    print_result
      ([ setup_m ] @ timing
      @ [ m "heap_peak_mb" heap "MB"; m "plan_cost_geomean" makespan "sim-s" ])
  end
  else begin
    let u = fresh () and a = fresh () and b = Engine.create () in
    let env = R.env b in
    Array.iter
      (fun l ->
        match P.parse_line l with
        | Ok (P.Allocate areq) -> ignore (R.allocate (R.acc ()) env areq)
        | _ -> failwith "not an allocate request")
      lines;
    Gc.compact ();
    let acc = R.acc () in
    let untraced = ref 0 and e2e = ref 0 in
    let cache0 = cache_counts (Engine.cache a) in
    let stop = deadline () in
    let i = ref 0 in
    while now () < stop || !i mod requests <> 0 do
      let idx = !i mod requests in
      let t0 = now () in
      let out_u = Serve.serve_lines u [ lines.(idx) ] in
      untraced := !untraced + (now () - t0);
      (* a: the served path, timed call by call *)
      let round0 = now () in
      let areq =
        match P.parse_line lines.(idx) with
        | Ok (P.Allocate areq) -> areq
        | _ -> failwith "not an allocate request"
      in
      acc.parse <- acc.parse + (now () - round0);
      let t0 = now () in
      let resp_a = Engine.allocate a areq in
      let alloc_ns = now () - t0 in
      let t0 = now () in
      let la = P.response_to_json resp_a in
      acc.serialize <- acc.serialize + (now () - t0);
      acc.response_bytes <- acc.response_bytes + String.length la;
      let served_ns = now () - round0 - alloc_ns in
      (* b: the replay of the allocation *)
      let t0 = now () in
      let resp_b, _ = R.allocate acc env areq in
      e2e := !e2e + served_ns + (now () - t0);
      (match out_u with
      | [ lu ] ->
          observe s idx lu;
          if not (String.equal lu la && String.equal la (P.response_to_json resp_b)) then
            fail ~requests:1 "%s: traced answer differs from untraced" areq.id
      | _ -> fail ~requests:1 "no answer");
      incr attempted;
      incr i
    done;
    let cache = cache_delta cache0 (cache_counts (Engine.cache a)) in
    let objective = check_alloc lines s in
    print_result
      (ledger_metrics ~alloc_objective:objective acc ~e2e_ns:!e2e ~untraced_ns:!untraced ~cache)
  end

let () =
  provenance ();
  match !workload with
  | "serve-tpch" -> serve_tpch ()
  | "join-large" -> join_large ()
  | "alloc-wave" -> alloc_wave ()
  | w ->
      Printf.eprintf "unknown workload %S (want serve-tpch | join-large | alloc-wave)\n" w;
      exit 2
