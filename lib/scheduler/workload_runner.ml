module Schema = Raqo_catalog.Schema
module Relation = Raqo_catalog.Relation
module Join_tree = Raqo_plan.Join_tree
module Simulate = Raqo_execsim.Simulate
module Rng = Raqo_util.Rng

type submission = { arrival : float; relations : string list; data_scale : float }

type query_outcome = {
  submission : submission;
  started : float;
  finished : float;
  plan_ms : float;
  gb_seconds : float;
  failed : bool;
}

type summary = {
  completed : int;
  failed : int;
  makespan : float;
  mean_latency : float;
  p95_latency : float;
  mean_queue_time : float;
  total_tb_seconds : float;
  total_plan_ms : float;
}

type planner = Schema.t -> string list -> Join_tree.joint option

let generate rng ~n ~arrival_rate schema =
  ignore schema;
  let clock = ref 0.0 in
  List.init n (fun _ ->
      clock := !clock +. Rng.exponential rng ~mean:(1.0 /. arrival_rate);
      let _, relations =
        Rng.pick rng (Array.of_list Raqo_catalog.Tpch.evaluation_queries)
      in
      {
        arrival = !clock;
        relations;
        data_scale = Rng.float_in_range rng ~lo:0.1 ~hi:1.0;
      })

(* Scale the query's largest base relation by the submission's data scale —
   the stand-in for a per-query WHERE clause. *)
let scaled_schema schema submission =
  let largest =
    List.fold_left
      (fun best name ->
        let r = Schema.find schema name in
        match best with
        | Some b when Relation.size_gb b >= Relation.size_gb r -> best
        | Some _ | None -> Some r)
      None submission.relations
  in
  match largest with
  | Some r when submission.data_scale < 1.0 ->
      Schema.with_relation schema (Relation.scale r submission.data_scale)
  | Some _ | None -> schema

type planned = {
  planned_submission : submission;
  plan : Join_tree.joint option;
  planning_ms : float;
}

let m_workload_queries = Raqo_obs.Metrics.counter "raqo_workload_queries_total"

let plan_one ~planner schema submission =
  let span = Raqo_obs.Trace.start "workload/plan" in
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_workload_queries;
  let qschema = scaled_schema schema submission in
  let plan, planning_ms =
    Raqo_util.Timer.time_ms (fun () -> planner qschema submission.relations)
  in
  Raqo_obs.Trace.finish span;
  { planned_submission = submission; plan; planning_ms }

let execute engine schema planned =
  let free_at = ref 0.0 in
  let outcomes =
    List.map
      (fun { planned_submission = submission; plan; planning_ms = plan_ms } ->
        let qschema = scaled_schema schema submission in
        match plan with
        | None ->
            {
              submission;
              started = submission.arrival;
              finished = submission.arrival;
              plan_ms;
              gb_seconds = 0.0;
              failed = true;
            }
        | Some plan -> begin
            match
              Raqo_obs.Trace.with_ ~name:"workload/execute" (fun () ->
                  Simulate.run_joint engine qschema plan)
            with
            | Error _ ->
                {
                  submission;
                  started = submission.arrival;
                  finished = submission.arrival;
                  plan_ms;
                  gb_seconds = 0.0;
                  failed = true;
                }
            | Ok r ->
                let started = Float.max submission.arrival !free_at in
                let finished = started +. r.Simulate.seconds in
                free_at := finished;
                {
                  submission;
                  started;
                  finished;
                  plan_ms;
                  gb_seconds = r.Simulate.gb_seconds;
                  failed = false;
                }
          end)
      planned
  in
  let done_ = List.filter (fun (o : query_outcome) -> not o.failed) outcomes in
  let latencies =
    Array.of_list (List.map (fun o -> o.finished -. o.submission.arrival) done_)
  in
  let summary =
    {
      completed = List.length done_;
      failed = List.length outcomes - List.length done_;
      makespan = List.fold_left (fun acc o -> Float.max acc o.finished) 0.0 done_;
      mean_latency =
        (if Array.length latencies = 0 then 0.0 else Raqo_util.Stats.mean latencies);
      p95_latency =
        (if Array.length latencies = 0 then 0.0
         else Raqo_util.Stats.percentile latencies 95.0);
      mean_queue_time =
        (if done_ = [] then 0.0
         else
           Raqo_util.Stats.mean
             (Array.of_list (List.map (fun o -> o.started -. o.submission.arrival) done_)));
      total_tb_seconds = List.fold_left (fun acc o -> acc +. o.gb_seconds) 0.0 done_ /. 1024.0;
      total_plan_ms = List.fold_left (fun acc o -> acc +. o.plan_ms) 0.0 outcomes;
    }
  in
  (summary, outcomes)

let run engine schema submissions ~planner =
  execute engine schema (List.map (plan_one ~planner schema) submissions)

(* Selinger over the mask core, costing joins through [rp]'s resource
   search. *)
let plan_masked ~model rp schema relations =
  let ctx = Raqo_catalog.Interned.make schema relations in
  Option.map fst
    (Raqo_planner.Selinger.optimize_masked (Raqo_planner.Coster.raqo_masked model ctx rp) ctx)

let raqo_planner ?(cache_across_queries = true) ~model ~conditions () =
  let opt = ref None in
  fun schema relations ->
    (* The optimizer is schema-bound; rebuild per query, sharing the
       resource planner (and so the cache) across queries when asked. *)
    let planner =
      match !opt with
      | Some p when cache_across_queries -> p
      | Some _ | None ->
          let p = Raqo_resource.Resource_planner.create conditions in
          opt := Some p;
          p
    in
    plan_masked ~model planner schema relations

let default_planner engine ~resources =
  fun schema relations ->
    let plain = Raqo_planner.Heuristics.default_plan engine schema relations in
    Some (Join_tree.map_annot (fun impl -> (impl, resources)) plain)

(* Batch planning: queries are independent once each gets a private
   resource planner (cache sharing stays opt-in and single-domain via
   [raqo_planner ~cache_across_queries]), so the planning phase fans out
   across the pool while the FIFO execution phase stays sequential. *)
let optimize_batch ?pool ~model ~conditions schema submissions =
  let plan_query submission =
    let planner schema relations =
      plan_masked ~model (Raqo_resource.Resource_planner.create conditions) schema relations
    in
    plan_one ~planner schema submission
  in
  match pool with
  | None -> List.map plan_query submissions
  | Some pool -> Raqo_par.Pool.parallel_map pool plan_query submissions

let run_batch ?pool engine ~model ~conditions schema submissions =
  execute engine schema (optimize_batch ?pool ~model ~conditions schema submissions)
