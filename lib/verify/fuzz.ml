module Schema = Raqo_catalog.Schema
module Estimation_error = Raqo_execsim.Estimation_error
module D = Diagnostic

type report = {
  instance : Oracle.instance;
  minimized : string list;
  minimized_dist : string option;
  diagnostics : D.t list;
}

(* Greedy delta-debugging over the query's relation set: repeatedly try to
   drop one relation; keep a drop when the smaller query is still connected
   (otherwise no planner accepts it) and still fails the oracle. Terminates:
   every accepted drop shrinks the set. *)
let shrink_with check (t : Oracle.instance) =
  let still_fails rels =
    rels <> []
    && Schema.joinable t.Oracle.schema rels
    && check (Oracle.with_relations t rels) <> []
  in
  let rec pass rels =
    let rec try_drop kept = function
      | [] -> None
      | r :: rest ->
          let candidate = List.rev_append kept rest in
          if still_fails candidate then Some candidate else try_drop (r :: kept) rest
    in
    match try_drop [] rels with
    | Some smaller -> pass smaller
    | None -> rels
  in
  let minimized = pass t.Oracle.relations in
  (minimized, check (Oracle.with_relations t minimized))

(* The default (non-adaptive) oracle: the cross-planner arms plus the
   workload-allocator arm. [check_alloc] derives its workload from the
   instance's schema, not its relation list, so it shrinks trivially — but
   running it here keeps any allocator diagnostic reproducible from the
   minimized report. *)
let check_full ?jobs ?fault t = Oracle.check ?jobs ?fault t @ Oracle.check_alloc ?jobs t

let shrink ?jobs ?fault (t : Oracle.instance) =
  shrink_with (fun t -> check_full ?jobs ?fault t) t

(* Adaptive shrinking minimizes along two dimensions: first the relation
   set (checking all error distributions), then the error-seed dimension —
   isolate a single distribution that still fails on the minimized query, so
   the repro names one exact (distribution, seed) error pattern. *)
let shrink_adaptive ?fault (t : Oracle.instance) =
  let minimized, diagnostics =
    shrink_with (fun t -> Oracle.check_adaptive ?fault t) t
  in
  let small = Oracle.with_relations t minimized in
  let dist =
    List.find_opt
      (fun d -> Oracle.check_adaptive ~dists:[ d ] ?fault small <> [])
      Oracle.adaptive_dists
  in
  match dist with
  | None -> (minimized, None, diagnostics)
  | Some d ->
      let error = Estimation_error.make d ~seed:(Oracle.adaptive_error_seed t.Oracle.seed) in
      ( minimized,
        Some (Estimation_error.to_string error),
        Oracle.check_adaptive ~dists:[ d ] ?fault small )

let report ?jobs ?fault (t : Oracle.instance) =
  let minimized, diagnostics = shrink ?jobs ?fault t in
  { instance = t; minimized; minimized_dist = None; diagnostics }

let report_adaptive ?fault (t : Oracle.instance) =
  let minimized, minimized_dist, diagnostics = shrink_adaptive ?fault t in
  { instance = t; minimized; minimized_dist; diagnostics }

let render r =
  let t = r.instance in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "FAIL seed=%d (tables=%d, joins=%d)\n" t.Oracle.seed t.Oracle.tables
       t.Oracle.joins);
  Buffer.add_string buf
    (Printf.sprintf "  query:     %s\n" (String.concat " " t.Oracle.relations));
  Buffer.add_string buf
    (Printf.sprintf "  minimized: %s\n" (String.concat " " r.minimized));
  (match r.minimized_dist with
  | Some d -> Buffer.add_string buf (Printf.sprintf "  est-error: %s\n" d)
  | None -> ());
  Buffer.add_string buf "  violated:\n";
  List.iter
    (fun d -> Buffer.add_string buf (Printf.sprintf "    %s\n" (D.to_string d)))
    r.diagnostics;
  Buffer.add_string buf
    (Printf.sprintf "  repro: raqo fuzz%s --seeds 1 --start %d --tables %d --joins %d\n"
       (if r.minimized_dist <> None then " --adaptive" else "")
       t.Oracle.seed t.Oracle.tables t.Oracle.joins);
  Buffer.contents buf

let m_seeds = Raqo_obs.Metrics.counter "raqo_fuzz_seeds_total"

let run ?tables ?joins ?jobs ?fault ?(adaptive = false)
    ?(progress = fun ~seed:_ ~failed:_ -> ()) ?(start = 1) ~seeds () =
  let failures = ref [] in
  for seed = start to start + seeds - 1 do
    if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_seeds;
    let t = Oracle.instance ?tables ?joins seed in
    let diags =
      if adaptive then Oracle.check_adaptive t else check_full ?jobs ?fault t
    in
    match diags with
    | [] -> progress ~seed ~failed:false
    | _ :: _ ->
        progress ~seed ~failed:true;
        failures :=
          (if adaptive then report_adaptive t else report ?jobs ?fault t)
          :: !failures
  done;
  List.rev !failures

let main ?tables ?joins ?jobs ?(adaptive = false) ?(start = 1) ~seeds () =
  (* The fuzz CLI always runs with observability on: the closing metrics
     summary doubles as a smoke test that instrumentation does not disturb
     the planners the oracle compares. *)
  Raqo_obs.Obs.set_enabled true;
  let progress ~seed ~failed =
    if failed then Printf.printf "seed %d: FAIL\n%!" seed
    else if seed mod 50 = 0 || seed = start + seeds - 1 then
      Printf.printf "seed %d: ok\n%!" seed
  in
  let failures = run ?tables ?joins ?jobs ~adaptive ~progress ~start ~seeds () in
  List.iter (fun r -> print_string (render r)) failures;
  Printf.printf "fuzz%s: %d seeds, %d failure%s\n"
    (if adaptive then " (adaptive)" else "")
    seeds (List.length failures)
    (if List.length failures = 1 then "" else "s");
  let v name = Raqo_obs.Metrics.Counter.value (Raqo_obs.Metrics.counter name) in
  Printf.printf
    "metrics: seeds=%d oracle-arms=%d cost-evaluations=%d cache-hits=%d cache-misses=%d\n"
    (v "raqo_fuzz_seeds_total")
    (v "raqo_fuzz_oracle_arms_total")
    (v "raqo_cost_evaluations_total")
    (v "raqo_plan_cache_hits_total")
    (v "raqo_plan_cache_misses_total");
  if not adaptive then
    Printf.printf "alloc: surfaces=%d evaluations=%d frontier-points=%d exact-states=%d moves=%d\n"
      (v "raqo_alloc_surfaces_total")
      (v "raqo_alloc_evaluations_total")
      (v "raqo_alloc_frontier_points_total")
      (v "raqo_alloc_exact_states_total")
      (v "raqo_alloc_moves_total");
  if adaptive then
    Printf.printf "adaptive: replans=%d switches=%d failed-replans=%d\n"
      (v "raqo_adaptive_replans_total")
      (v "raqo_adaptive_switches_total")
      (v "raqo_adaptive_failed_replans_total");
  if failures = [] then 0 else 1
