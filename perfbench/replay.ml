(* The traced path: each request replayed through the same public calls
   [Engine.plan_request], [Engine.allocate] and [Cost_based.optimize] make,
   with a clock read around every call into a layer. The program's own
   [lib/obs] spans stay off; all timing happens here, in the benchmark.

   Self times are exclusive: the coster (resource search) is timed inside
   the planner, and the planner's figure is its wall time minus the coster
   time spent within it. Whatever the replay does between timed calls is
   not credited to any layer and shows up as the ledger's unaccounted
   share. *)

module P = Raqo_server.Protocol
module Cb = Raqo.Cost_based
module Coster = Raqo_planner.Coster
module Rp = Raqo_resource.Resource_planner
module Counters = Raqo_resource.Counters
module Rewrite = Raqo_rewrite.Rewrite
module Interned = Raqo_catalog.Interned
module Schema = Raqo_catalog.Schema
module Allocator = Raqo_alloc.Allocator
module Surface = Raqo_alloc.Surface

let now = Raqo_obs.Obs.now_ns

type acc = {
  (* self times, ns *)
  mutable parse : int;
  mutable serialize : int;
  mutable admit : int;
  mutable dispatch : int;  (** wave wall time not spent in plan_request *)
  mutable glue : int;
      (** engine code around the layers: optimizer construction, rendering *)
  mutable sql : int;
  mutable rewrite : int;
  mutable planner : int;
  mutable resource : int;
  mutable adaptive : int;
  mutable surface : int;
  mutable search : int;
  (* inclusive figures and counts *)
  mutable member_plan : int;  (** alloc member planning: create + optimize *)
  mutable wave : int;
  mutable waves : int;
  mutable requests : int;
  mutable response_bytes : int;
  mutable coster_calls : int;
  mutable minor_words : float;
  mutable invocations : int;
  mutable evaluations : int;
  mutable rp_hits : int;
  mutable rp_misses : int;
  mutable fired : int;
  mutable removed : int;
  mutable replans : int;
  mutable switches : int;
  mutable alloc_requests : int;
  mutable exact : int;
  mutable frontier : int;
}

let acc () =
  {
    parse = 0; serialize = 0; admit = 0; dispatch = 0; glue = 0; sql = 0; rewrite = 0;
    planner = 0; resource = 0; adaptive = 0; surface = 0; search = 0; member_plan = 0;
    wave = 0; waves = 0; requests = 0; response_bytes = 0; coster_calls = 0;
    minor_words = 0.0; invocations = 0; evaluations = 0; rp_hits = 0; rp_misses = 0;
    fired = 0; removed = 0; replans = 0; switches = 0; alloc_requests = 0; exact = 0;
    frontier = 0;
  }

(* Sum of every self-time layer; [ledger total - layers] is unaccounted. *)
let layers_ns a =
  a.parse + a.serialize + a.admit + a.dispatch + a.glue + a.sql + a.rewrite + a.planner
  + a.resource + a.adaptive + a.surface + a.search

(* One coster call, timed and counted as resource search. *)
let timed_call a best ~left ~right =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = best ~left ~right in
  a.resource <- a.resource + (now () - t0);
  a.minor_words <- a.minor_words +. (Gc.minor_words () -. w0);
  a.coster_calls <- a.coster_calls + 1;
  r

let timed_masked a (m : Coster.masked) =
  { m with Coster.best_join_masked = timed_call a m.Coster.best_join_masked }

let timed_strings a (c : Coster.t) = { c with Coster.best_join = timed_call a c.Coster.best_join }

(* [f ()] is planner work that calls the coster; its self time excludes the
   coster time it triggered. *)
let planner_call a f =
  let r0 = a.resource in
  let t0 = now () in
  let r = f () in
  a.planner <- a.planner + (now () - t0 - (a.resource - r0));
  r

let add_counters a rp =
  let c = Rp.counters rp in
  a.invocations <- a.invocations + Counters.planner_invocations c;
  a.evaluations <- a.evaluations + Counters.cost_evaluations c;
  a.rp_hits <- a.rp_hits + Counters.cache_hits c;
  a.rp_misses <- a.rp_misses + Counters.cache_misses c

(* ------------------------------------------------ Cost_based.optimize *)

type optimizer = {
  kind : Cb.planner_kind;
  rng : Raqo_util.Rng.t;
  model : Raqo_cost.Op_cost.t;
  rp : Rp.t;
  rw : Rewrite.t option;
}

(* [Cost_based.create] with its defaults: hill climbing, exact-match cache,
   no memoization. The engine builds one optimizer per request; that
   construction is outside [optimize], so it is engine glue, not planner
   time. *)
let create a ?shared_cache ?registry ~kind ~seed ~rewrite ~model ~conditions schema =
  let t0 = now () in
  let o =
    {
      kind;
      rng = Raqo_util.Rng.create seed;
      model;
      rp = Rp.create ~kernel:true ?shared_cache ?registry conditions;
      rw = (if rewrite then Some (Rewrite.create ?registry schema) else None);
    }
  in
  a.glue <- a.glue + (now () - t0);
  o

let run_masked o m ctx =
  match o.kind with
  | Cb.Selinger -> Raqo_planner.Selinger.optimize_masked m ctx
  | Cb.Bushy_dp -> Raqo_planner.Dpsub.optimize_masked m ctx
  | Cb.Fast_randomized ->
      Raqo_planner.Randomized.optimize_masked
        ~params:Raqo_planner.Randomized.default_params o.rng m ctx

let run_strings o c schema relations =
  match o.kind with
  | Cb.Selinger -> Raqo_planner.Selinger.optimize c schema relations
  | Cb.Bushy_dp -> Raqo_planner.Dpsub.optimize c schema relations
  | Cb.Fast_randomized ->
      Raqo_planner.Randomized.optimize
        ~params:Raqo_planner.Randomized.default_params o.rng c schema relations

let interned schema relations =
  let n = List.length relations in
  if n = 0 || n > Interned.max_relations then None
  else if List.for_all (Schema.mem schema) relations then
    Some (Interned.make schema relations)
  else None

(* [Cost_based.optimize]: rewrite, intern, enumerate over the raqo coster. *)
let optimize a o ~hints schema relations =
  let schema, relations =
    match o.rw with
    | None -> (schema, relations)
    | Some eng ->
        let t0 = now () in
        let changed = Rewrite.apply eng ~hints relations in
        a.rewrite <- a.rewrite + (now () - t0);
        if changed then (Rewrite.schema_out eng, Rewrite.relations_out eng)
        else (schema, relations)
  in
  let r =
    planner_call a (fun () ->
        match interned schema relations with
        | Some ctx -> run_masked o (timed_masked a (Coster.raqo_masked o.model ctx o.rp)) ctx
        | None ->
            run_strings o (timed_strings a (Coster.raqo o.model schema o.rp)) schema relations)
  in
  add_counters a o.rp;
  r

(* [Cost_based.optimize_qo]: no rewrite, fixed-resource coster. *)
let optimize_qo a o ~resources schema relations =
  planner_call a (fun () ->
      match interned schema relations with
      | Some ctx ->
          run_masked o (timed_masked a (Coster.fixed_masked o.model ctx resources)) ctx
      | None ->
          run_strings o (timed_strings a (Coster.fixed o.model schema resources)) schema
            relations)

(* --------------------------------------------------- Engine.plan_request *)

type env = {
  schema : Schema.t;
  columns : Raqo_catalog.Column.catalog;
  conditions : Raqo_cluster.Conditions.t;
  cache : Raqo_resource.Shared_plan_cache.t;
  registry : Raqo_obs.Metrics.registry;
}

let env engine =
  let config = Raqo_server.Engine.config engine in
  {
    schema = Raqo_catalog.Tpch.schema ~scale_factor:config.scale_factor ();
    columns = Raqo_catalog.Tpch.columns ~scale_factor:config.scale_factor ();
    conditions = config.conditions;
    cache = Raqo_server.Engine.cache engine;
    registry = Raqo_server.Engine.registry engine;
  }

type resolved = {
  plan_schema : Schema.t;
  truth_schema : Schema.t;
  relations : string list;
  referenced : string list option;
  filters : (string * float) list;
}

let rec has_dup = function [] -> false | x :: rest -> List.mem x rest || has_dup rest

(* [Engine.resolve] for an engine with the rewrite pass on. *)
let resolve a e (payload : P.payload) =
  let t0 = now () in
  let r =
    match payload with
    | P.Sql sql -> (
        match Raqo_sql.Resolver.analyze e.schema e.columns sql with
        | Ok an ->
            Ok
              {
                plan_schema = e.schema;
                truth_schema = an.Raqo_sql.Resolver.schema;
                relations = an.Raqo_sql.Resolver.relations;
                referenced = an.Raqo_sql.Resolver.projected_tables;
                filters = an.Raqo_sql.Resolver.table_selectivity;
              }
        | Error m -> Error m)
    | P.Relations rels ->
        if List.length rels < 2 then Error "need at least two relations to join"
        else if has_dup rels then Error "duplicate relation in \"relations\""
        else begin
          match List.find_opt (fun r -> not (Schema.mem e.schema r)) rels with
          | Some r -> Error (Printf.sprintf "unknown relation %S" r)
          | None ->
              if not (Schema.joinable e.schema rels) then
                Error "relations do not form a connected join graph"
              else
                Ok
                  {
                    plan_schema = e.schema;
                    truth_schema = e.schema;
                    relations = rels;
                    referenced = None;
                    filters = [];
                  }
        end
  in
  a.sql <- a.sql + (now () - t0);
  r

let render_plan plan = Format.asprintf "%a" Raqo_plan.Join_tree.pp_joint plan

let planned a (req : P.request) plan cost adaptive rewrite =
  let t0 = now () in
  let resources =
    Raqo_plan.Join_tree.annotations plan
    |> List.map (fun (_impl, r) ->
           (r.Raqo_cluster.Resources.containers, r.Raqo_cluster.Resources.container_gb))
  in
  let r =
    P.Planned { id = req.id; plan = render_plan plan; cost; resources; adaptive; rewrite }
  in
  a.glue <- a.glue + (now () - t0);
  r

let rewrite_summary a o =
  match o.rw with
  | None -> None
  | Some eng ->
      let r = Rewrite.last eng in
      if r.Rewrite.changed then begin
        a.fired <- a.fired + List.fold_left (fun n (_, k) -> n + k) 0 (Rewrite.fired r);
        a.removed <- a.removed + r.Rewrite.removed;
        Some { P.fired = Rewrite.fired r; removed = r.Rewrite.removed }
      end
      else None

let summarize = function
  | Raqo_adaptive.Adaptive_exec.Done { seconds; _ } -> P.Finished seconds
  | Raqo_adaptive.Adaptive_exec.Oom { stage; _ } -> P.Oom stage

let infeasible (req : P.request) =
  P.Rejected
    {
      id = Some req.id;
      reason = P.Infeasible;
      message = "no feasible joint plan under the current cluster conditions";
    }

let model_and_engine = function
  | "spark" -> (Raqo.Models.spark (), Raqo_execsim.Engine.spark)
  | _ -> (Raqo.Models.hive (), Raqo_execsim.Engine.hive)

let plan_request a e (req : P.request) : P.response =
  a.requests <- a.requests + 1;
  match resolve a e req.payload with
  | Error message -> P.Rejected { id = Some req.id; reason = P.Bad_request; message }
  | Ok r -> (
      let model, sim = model_and_engine req.engine in
      let opt ~rewrite schema =
        create a ~shared_cache:e.cache ~registry:e.registry ~kind:req.planner
          ~seed:req.seed ~rewrite ~model ~conditions:e.conditions schema
      in
      try
        match req.mode with
        | P.Qo resources -> (
            (* [optimize_qo] never rewrites, but the engine still builds a
               rewrite engine with the optimizer; so does the replay. *)
            let o = opt ~rewrite:true r.truth_schema in
            match optimize_qo a o ~resources r.truth_schema r.relations with
            | Some (plan, cost) -> planned a req plan cost None None
            | None -> infeasible req)
        | P.Raqo when not req.adaptive -> (
            let o = opt ~rewrite:true r.plan_schema in
            let hints = { Rewrite.filters = r.filters; referenced = r.referenced } in
            match optimize a o ~hints r.plan_schema r.relations with
            | Some (plan, cost) -> planned a req plan cost None (rewrite_summary a o)
            | None -> infeasible req)
        | P.Raqo -> (
            let estimates = Raqo_execsim.Estimation_error.perturb req.est_error r.truth_schema in
            let o = opt ~rewrite:true estimates in
            let hints = { Rewrite.filters = []; referenced = r.referenced } in
            match optimize a o ~hints estimates r.relations with
            | None -> infeasible req
            | Some (plan, cost) ->
                let t0 = now () in
                let report =
                  Raqo_adaptive.Adaptive_exec.run ~kernel:true ~engine:sim ~model
                    ~conditions:e.conditions ~truth:r.truth_schema ~estimates plan
                in
                a.adaptive <- a.adaptive + (now () - t0);
                a.replans <- a.replans + report.Raqo_adaptive.Adaptive_exec.replans;
                a.switches <- a.switches + report.Raqo_adaptive.Adaptive_exec.switches;
                let summary =
                  {
                    P.static_outcome =
                      summarize report.Raqo_adaptive.Adaptive_exec.static_outcome;
                    adaptive_outcome =
                      summarize report.Raqo_adaptive.Adaptive_exec.adaptive_outcome;
                    replans = report.Raqo_adaptive.Adaptive_exec.replans;
                    switches = report.Raqo_adaptive.Adaptive_exec.switches;
                  }
                in
                planned a req report.Raqo_adaptive.Adaptive_exec.static_plan cost
                  (Some summary) (rewrite_summary a o))
      with exn ->
        P.Rejected { id = Some req.id; reason = P.Internal; message = Printexc.to_string exn })

(* ------------------------------------------------------- Engine.allocate *)

(* The engine's deterministic pick off the frontier, per objective. *)
let choose objective (outcome : Allocator.outcome) =
  let best score =
    match outcome.Allocator.frontier with
    | [] -> outcome.Allocator.equal_split
    | p :: rest -> List.fold_left (fun acc q -> if score q < score acc then q else acc) p rest
  in
  match objective with
  | P.Makespan -> best (fun (p : Allocator.point) -> p.makespan)
  | P.Dollars -> best (fun (p : Allocator.point) -> p.dollars)
  | P.Balanced ->
      best (fun (p : Allocator.point) ->
          p.makespan +. (1000.0 *. p.dollars) +. (1000.0 *. float_of_int p.violations))

let point (p : Allocator.point) =
  {
    P.containers = Array.to_list p.alloc;
    makespan = p.makespan;
    dollars = p.dollars;
    violations = p.violations;
  }

(* Returns the response and, when the search ran, the allocator inputs and
   outcome the correctness gate re-evaluates. *)
let allocate a e (areq : P.alloc_request) =
  a.alloc_requests <- a.alloc_requests + 1;
  let reject reason message = (P.Rejected { id = Some areq.id; reason; message }, None) in
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | (q : P.alloc_query) :: rest -> (
        match resolve a e q.payload with
        | Ok r -> resolve_all ((q, r) :: acc) rest
        | Error m -> Error (Printf.sprintf "query %S: %s" q.qid m))
  in
  match resolve_all [] areq.queries with
  | Error m -> reject P.Bad_request m
  | Ok resolved -> (
      let model, _ = model_and_engine areq.engine in
      let plan_one ((q : P.alloc_query), r) =
        let t0 = now () in
        let o =
          create a ~shared_cache:e.cache ~registry:e.registry ~kind:areq.planner
            ~seed:areq.seed ~rewrite:false ~model ~conditions:e.conditions r.truth_schema
        in
        let planned = optimize a o ~hints:Rewrite.no_hints r.truth_schema r.relations in
        a.member_plan <- a.member_plan + (now () - t0);
        match planned with
        | None -> Error q.qid
        | Some (plan, _cost) ->
            let t0 = now () in
            let surface =
              Surface.build ~use_kernel:true ~model ~conditions:e.conditions
                ~schema:r.truth_schema ~name:q.qid plan
            in
            a.surface <- a.surface + (now () - t0);
            let t0 = now () in
            let tenant =
              match (q.tenant, areq.tenant) with
              | Some tn, _ | None, Some tn -> tn
              | None, None -> "default"
            in
            let entry =
              ( Allocator.query ~tenant ~weight:q.weight ~arrival:q.arrival ?slo:q.slo
                  ~name:q.qid surface,
                render_plan plan )
            in
            a.glue <- a.glue + (now () - t0);
            Ok entry
      in
      try
        let results = List.map plan_one resolved in
        match List.find_map (function Error qid -> Some qid | Ok _ -> None) results with
        | Some qid ->
            reject P.Infeasible
              (Printf.sprintf
                 "query %S has no feasible joint plan under the current cluster \
                  conditions"
                 qid)
        | None ->
            let entries = List.filter_map (function Ok x -> Some x | Error _ -> None) results in
            let queries = Array.of_list (List.map fst entries) in
            let want =
              Option.value (Allocator.want_of_string areq.search) ~default:Allocator.Auto
            in
            let t0 = now () in
            let outcome =
              Allocator.search ~want ~seed:areq.seed ~budget:areq.budget
                ~fairness:areq.fairness queries
            in
            a.search <- a.search + (now () - t0);
            if outcome.Allocator.mode = Allocator.Exact then a.exact <- a.exact + 1;
            a.frontier <- a.frontier + List.length outcome.Allocator.frontier;
            let t0 = now () in
            let chosen = choose areq.objective outcome in
            let per_query =
              List.mapi
                (fun i (_, plan) ->
                  let q = queries.(i) in
                  let cap = chosen.Allocator.alloc.(i) in
                  (q.Allocator.name, cap, Surface.latency_at q.Allocator.surface cap, plan))
                entries
            in
            let response =
              P.Allocated
                {
                  id = areq.id;
                  search = Allocator.mode_name outcome.Allocator.mode;
                  budget = areq.budget;
                  frontier = List.map point outcome.Allocator.frontier;
                  chosen = point chosen;
                  equal_split = point outcome.Allocator.equal_split;
                  queries = per_query;
                }
            in
            a.glue <- a.glue + (now () - t0);
            (response, Some (queries, outcome))
      with
      | Invalid_argument m -> reject P.Bad_request m
      | exn -> reject P.Internal (Printexc.to_string exn))
