module M = Raqo_obs.Metrics

type config = {
  queue_capacity : int;
  tenant_quota : int option;
  batch : int;
  cache_capacity : int option;
  kernel : bool;
  rewrite : bool;
  scale_factor : float;
  conditions : Raqo_cluster.Conditions.t;
}

let default_config =
  {
    queue_capacity = 64;
    tenant_quota = None;
    batch = 8;
    cache_capacity = Some 4096;
    kernel = true;
    rewrite = true;
    scale_factor = 100.0;
    conditions = Raqo_cluster.Conditions.default;
  }

(* Per-tenant admission accounting, guarded by [queue_mutex] like the queue
   itself (the counts must agree with what the queue holds). *)
type tstats = {
  mutable t_queued : int;  (** requests currently in the admission queue *)
  mutable t_planned : int;
  mutable t_rejected : int;
}

type t = {
  config : config;
  schema : Raqo_catalog.Schema.t;
  columns : Raqo_catalog.Column.catalog;
  registry : M.registry;
  cache : Raqo_resource.Shared_plan_cache.t;
  queue : Protocol.request Queue.t;
  queue_mutex : Mutex.t;
  tenants : (string, tstats) Hashtbl.t;
  (* One cell per count, resolved in [registry] and recorded always; only
     the queue-depth gauge and the tenant-labelled counters are obs-gated. *)
  admitted : M.Counter.t;
  rejected : M.Counter.t;
  responses : M.Counter.t;
  latency : M.Histogram.t;
  queue_depth : M.Gauge.t;
}

let create ?(config = default_config) ?registry () =
  if config.queue_capacity < 1 then invalid_arg "Engine.create: queue_capacity must be >= 1";
  if config.batch < 1 then invalid_arg "Engine.create: batch must be >= 1";
  (match config.tenant_quota with
  | Some q when q < 1 -> invalid_arg "Engine.create: tenant_quota must be >= 1"
  | _ -> ());
  let registry = match registry with Some r -> r | None -> M.create_registry () in
  let cache =
    Raqo_resource.Shared_plan_cache.create ?capacity:config.cache_capacity ~registry ()
  in
  {
    config;
    schema = Raqo_catalog.Tpch.schema ~scale_factor:config.scale_factor ();
    columns = Raqo_catalog.Tpch.columns ~scale_factor:config.scale_factor ();
    registry;
    cache;
    queue = Queue.create ();
    queue_mutex = Mutex.create ();
    tenants = Hashtbl.create 8;
    admitted = M.counter_in registry "raqo_server_admitted_total";
    rejected = M.counter_in registry "raqo_server_rejected_total";
    responses = M.counter_in registry "raqo_server_responses_total";
    latency = M.histogram_in registry "raqo_server_latency_seconds";
    queue_depth = M.gauge_in registry "raqo_server_queue_depth";
  }

let config t = t.config
let registry t = t.registry
let cache t = t.cache
let admitted t = M.Counter.value t.admitted
let rejected t = M.Counter.value t.rejected
let responses t = M.Counter.value t.responses
let latency_histogram t = t.latency

(* ---------- planning one request ---------- *)

let planned (req : Protocol.request) (p : Raqo.Sql_frontend.planned) =
  let resources =
    Raqo_plan.Join_tree.annotations p.plan
    |> List.map (fun (_impl, r) ->
           (r.Raqo_cluster.Resources.containers, r.Raqo_cluster.Resources.container_gb))
  in
  let summarize = function
    | Raqo_adaptive.Adaptive_exec.Done { seconds; _ } -> Protocol.Finished seconds
    | Raqo_adaptive.Adaptive_exec.Oom { stage; _ } -> Protocol.Oom stage
  in
  let adaptive =
    Option.map
      (fun (r : Raqo_adaptive.Adaptive_exec.report) ->
        {
          Protocol.static_outcome = summarize r.static_outcome;
          adaptive_outcome = summarize r.adaptive_outcome;
          replans = r.replans;
          switches = r.switches;
        })
      p.adaptive
  in
  (* Present only when a rule fired, so zero-rewrite responses are
     byte-identical to a [~rewrite:false] engine's. *)
  let rewrite =
    match p.rewrite with
    | Some r when r.Raqo_rewrite.Rewrite.changed ->
        Some
          {
            Protocol.fired = Raqo_rewrite.Rewrite.fired r;
            removed = r.Raqo_rewrite.Rewrite.removed;
          }
    | Some _ | None -> None
  in
  Protocol.Planned
    {
      id = req.id;
      plan = Format.asprintf "%a" Raqo_plan.Join_tree.pp_joint p.plan;
      cost = p.est_cost;
      resources;
      adaptive;
      rewrite;
    }

let plan_request t (req : Protocol.request) : Protocol.response =
  let reject reason message = Protocol.Rejected { id = Some req.id; reason; message } in
  let model, sim_engine = Raqo.Models.for_engine req.engine in
  match
    Raqo.Sql_frontend.plan ~kind:req.planner ~seed:req.seed ~kernel:t.config.kernel
      ~shared_cache:t.cache ~rewrite:t.config.rewrite ~metrics:t.registry ~mode:req.mode
      ?adaptive:(if req.adaptive then Some (sim_engine, req.est_error) else None)
      ~model ~conditions:t.config.conditions ~schema:t.schema ~columns:t.columns
      req.payload
  with
  | Ok p -> planned req p
  | Error e ->
      let reason =
        match e with
        | Raqo.Sql_frontend.Invalid _ -> Protocol.Bad_request
        | Raqo.Sql_frontend.Infeasible -> Protocol.Infeasible
      in
      reject reason (Raqo.Sql_frontend.error_message e)
  | exception exn -> reject Protocol.Internal (Printexc.to_string exn)

let oneshot ?config req = plan_request (create ?config ()) req

(* ---------- workload allocation ---------- *)

module Allocator = Raqo_alloc.Allocator
module Surface = Raqo_alloc.Surface

let allocate t (areq : Protocol.alloc_request) : Protocol.response =
  let reject reason message = Protocol.Rejected { id = Some areq.id; reason; message } in
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | (q : Protocol.alloc_query) :: rest -> (
        match
          Raqo.Sql_frontend.resolve ~metrics:t.registry ~schema:t.schema ~columns:t.columns
            q.payload
        with
        | Ok r -> resolve_all ((q, r) :: acc) rest
        | Error e -> Error (Printf.sprintf "query %S: %s" q.qid e))
  in
  match resolve_all [] areq.queries with
  | Error message -> reject Protocol.Bad_request message
  | Ok resolved -> (
      let model, _sim_engine = Raqo.Models.for_engine areq.engine in
      (* Member queries plan the filter-scaled truth without the rewrite
         pass: the surface prices plans off the same stats the planner
         costed, and a rewrite would shift those stats under the surface. *)
      let plan_one ((q : Protocol.alloc_query), (r : Raqo.Sql_frontend.resolved)) =
        match
          Raqo_obs.Trace.with_ ~name:"alloc/plan" (fun () ->
              Raqo.Sql_frontend.optimize ~kind:areq.planner ~seed:areq.seed
                ~kernel:t.config.kernel ~shared_cache:t.cache ~rewrite:false
                ~metrics:t.registry ~model ~conditions:t.config.conditions r)
        with
        | Error _ -> Error q.qid
        | Ok { plan; _ } ->
            let surface =
              Surface.build ~use_kernel:t.config.kernel ~model
                ~conditions:t.config.conditions ~schema:r.truth ~name:q.qid plan
            in
            let tenant =
              match (q.tenant, areq.tenant) with
              | Some tn, _ | None, Some tn -> tn
              | None, None -> "default"
            in
            Ok
              ( Allocator.query ~tenant ~weight:q.weight ~arrival:q.arrival
                  ?slo:q.slo ~name:q.qid surface,
                Format.asprintf "%a" Raqo_plan.Join_tree.pp_joint plan )
      in
      try
        let results =
          Raqo_obs.Trace.with_ ~name:"alloc/planning" (fun () -> List.map plan_one resolved)
        in
        match
          List.find_map (function Error qid -> Some qid | Ok _ -> None) results
        with
        | Some qid ->
            reject Protocol.Infeasible
              (Printf.sprintf
                 "query %S has no feasible joint plan under the current cluster \
                  conditions"
                 qid)
        | None ->
            let entries =
              List.filter_map (function Ok x -> Some x | Error _ -> None) results
            in
            let queries = Array.of_list (List.map fst entries) in
            let plans = List.map snd entries in
            let want =
              match Allocator.want_of_string areq.search with
              | Some w -> w
              | None -> Allocator.Auto
            in
            let outcome =
              Allocator.search ~want ~seed:areq.seed ~budget:areq.budget
                ~fairness:areq.fairness queries
            in
            let point (p : Allocator.point) =
              {
                Protocol.containers = Array.to_list p.alloc;
                makespan = p.makespan;
                dollars = p.dollars;
                violations = p.violations;
              }
            in
            let chosen = Allocator.choose areq.objective outcome in
            let per_query =
              List.mapi
                (fun i plan ->
                  let q = queries.(i) in
                  let cap = chosen.Allocator.alloc.(i) in
                  ( q.Allocator.name,
                    cap,
                    Surface.latency_at q.Allocator.surface cap,
                    plan ))
                plans
            in
            Protocol.Allocated
              {
                id = areq.id;
                search = Allocator.mode_name outcome.Allocator.mode;
                budget = areq.budget;
                frontier = List.map point outcome.Allocator.frontier;
                chosen = point chosen;
                equal_split = point outcome.Allocator.equal_split;
                queries = per_query;
              }
      with
      | Invalid_argument m -> reject Protocol.Bad_request m
      | exn -> reject Protocol.Internal (Printexc.to_string exn))

let oneshot_allocate ?config areq = allocate (create ?config ()) areq

(* ---------- admission control ---------- *)

let obs_on () = Raqo_obs.Obs.enabled ()

(* ---------- per-tenant accounting ---------- *)

let tenant_label (tenant : string option) = Option.value tenant ~default:"default"

(* Call with [queue_mutex] held. *)
let tstats_for t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> s
  | None ->
      let s = { t_queued = 0; t_planned = 0; t_rejected = 0 } in
      Hashtbl.add t.tenants tenant s;
      s

(* Registry mirror with the tenant embedded as a Prometheus label:
   [Export.prometheus] prints counter names verbatim, so the label renders
   as valid exposition-format output. Find-or-create per event is cheap —
   the registry interns by name. *)
let tenant_counter t event tenant =
  M.counter_in t.registry
    (Printf.sprintf "raqo_server_tenant_%s_total{tenant=%S}" event tenant)

let tenant_stats t =
  Mutex.lock t.queue_mutex;
  let xs =
    Hashtbl.fold
      (fun tenant s acc -> (tenant, (s.t_queued, s.t_planned, s.t_rejected)) :: acc)
      t.tenants []
  in
  Mutex.unlock t.queue_mutex;
  List.sort compare xs

let queue_depth t =
  Mutex.lock t.queue_mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.queue_mutex;
  n

(* Readiness probe: answered at admission time, never queued, and carries no
   wall-clock field so probe responses are deterministic. *)
let health t ~id = Protocol.Health_ok { id; queue_depth = queue_depth t; ready = true }
let oneshot_health ~id () = Protocol.Health_ok { id; queue_depth = 0; ready = true }

let submit t (req : Protocol.request) : Protocol.response option =
  let tenant = tenant_label req.tenant in
  Mutex.lock t.queue_mutex;
  let stats = tstats_for t tenant in
  let decision =
    if Queue.length t.queue >= t.config.queue_capacity then
      `Reject
        (Printf.sprintf "admission queue full (%d pending); retry later"
           t.config.queue_capacity)
    else
      match t.config.tenant_quota with
      | Some quota when stats.t_queued >= quota ->
          `Reject
            (Printf.sprintf
               "tenant %S queue quota full (%d pending); retry later" tenant quota)
      | _ ->
          Queue.add req t.queue;
          stats.t_queued <- stats.t_queued + 1;
          `Admit (Queue.length t.queue)
  in
  (if match decision with `Reject _ -> true | `Admit _ -> false then
     stats.t_rejected <- stats.t_rejected + 1);
  Mutex.unlock t.queue_mutex;
  match decision with
  | `Admit depth ->
      M.Counter.inc t.admitted;
      if obs_on () then begin
        M.Counter.inc (tenant_counter t "admitted" tenant);
        M.Gauge.set t.queue_depth (float_of_int depth)
      end;
      None
  | `Reject message ->
      M.Counter.inc t.rejected;
      if obs_on () then M.Counter.inc (tenant_counter t "rejected" tenant);
      Some
        (Protocol.Rejected { id = Some req.id; reason = Protocol.Overloaded; message })

let drain_batch t =
  Mutex.lock t.queue_mutex;
  let n = min t.config.batch (Queue.length t.queue) in
  let batch =
    List.init n (fun _ ->
        let req = Queue.pop t.queue in
        let stats = tstats_for t (tenant_label req.Protocol.tenant) in
        stats.t_queued <- stats.t_queued - 1;
        req)
  in
  let depth = Queue.length t.queue in
  Mutex.unlock t.queue_mutex;
  if obs_on () then M.Gauge.set t.queue_depth (float_of_int depth);
  batch

let process_wave t =
  match drain_batch t with
  | [] -> []
  | batch ->
      let respond req =
        let t0 = Unix.gettimeofday () in
        let response = plan_request t req in
        let dt = Unix.gettimeofday () -. t0 in
        M.Histogram.observe t.latency dt;
        M.Counter.inc t.responses;
        (req, response)
      in
      (* Requests plan in submission order on the calling domain, each on
         its own optimizer over the shared cache. *)
      let wave = List.map respond batch in
      Mutex.lock t.queue_mutex;
      List.iter
        (fun ((req : Protocol.request), response) ->
          let stats = tstats_for t (tenant_label req.tenant) in
          if Protocol.is_ok response then stats.t_planned <- stats.t_planned + 1
          else stats.t_rejected <- stats.t_rejected + 1)
        wave;
      Mutex.unlock t.queue_mutex;
      if obs_on () then
        List.iter
          (fun ((req : Protocol.request), response) ->
            let tenant = tenant_label req.tenant in
            let event = if Protocol.is_ok response then "planned" else "rejected" in
            M.Counter.inc (tenant_counter t event tenant))
          wave;
      wave

let rec drain t =
  match process_wave t with [] -> [] | wave -> wave @ drain t
