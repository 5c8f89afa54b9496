module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions
module Operators = Raqo_execsim.Operators
module Simulate = Raqo_execsim.Simulate
module Remaining = Raqo_adaptive.Remaining

type policy = Wait of float option | Fail | Downscale | Reoptimize | Replan_remaining

type stage_report = {
  index : int;
  impl : Join_impl.t;
  resources : Resources.t;
  start : float;
  duration : float;
  waited : float;
  adapted : bool;
}

type outcome =
  | Completed of {
      finish : float;
      total_wait : float;
      gb_seconds : float;
      stages : stage_report list;
    }
  | Failed of { at_time : float; stage : int; reason : string }

type stage = {
  planned_impl : Join_impl.t;
  planned_resources : Resources.t;
  small_gb : float;
  big_gb : float;
}

let stages_of schema plan =
  List.rev
    (Join_tree.fold_joins
       (fun acc (impl, resources) left right ->
         let small_gb, big_gb = Simulate.join_inputs schema ~left ~right in
         { planned_impl = impl; planned_resources = resources; small_gb; big_gb } :: acc)
       [] plan)

(* Re-pick one stage's operator and resources under current conditions:
   per-operator adaptive RAQO (the planner's model-driven per-join search on
   a cache-less planner, then a simulator feasibility check). *)
let reoptimize_stage model conditions stage =
  Raqo_planner.Coster.best_choice model
    (Raqo_resource.Resource_planner.create ~cache:false conditions)
    ~small_gb:stage.small_gb

(* Re-plan the entire remaining join graph under the current conditions:
   collapse executed subtrees into measured pseudo-relations
   ({!Raqo_adaptive.Remaining}) and run the adaptive executor's joint bushy
   DP over what is left. [None] when nothing remains, only one leaf
   remains, the remainder outgrows the DP, or no feasible joint plan exists
   — callers fall back to the per-stage [Reoptimize] repair. *)
let replan_remaining model conditions schema plan ~executed =
  match Remaining.collapse ~truth:schema ~estimates:schema plan ~executed with
  | None -> None
  | Some rem ->
      let names =
        List.map (fun (l : Remaining.leaf) -> l.Remaining.name) rem.Remaining.leaves
      in
      Option.map
        (fun (plan', _) -> (rem.Remaining.schema, plan'))
        (Raqo_adaptive.Adaptive_exec.replan_remaining ~model ~conditions
           rem.Remaining.schema names)

let m_stages = Raqo_obs.Metrics.counter "raqo_executor_stages_total"
let m_adaptations = Raqo_obs.Metrics.counter "raqo_executor_adaptations_total"
let m_failures = Raqo_obs.Metrics.counter "raqo_executor_failures_total"
let m_replans = Raqo_obs.Metrics.counter "raqo_executor_replans_total"

let run ?(policy = Wait None) ?(submit = 0.0) engine ~model schema ~capacity plan =
  if not (Join_tree.valid plan) then invalid_arg "Executor.run: invalid plan";
  let span = Raqo_obs.Trace.start "executor/run" in
  let duration impl ~resources stage =
    Operators.join_time engine impl ~small_gb:stage.small_gb ~big_gb:stage.big_gb ~resources
  in
  (* [cur_schema]/[cur_plan] track the plan actually being executed — under
     [Replan_remaining] they are replaced mid-flight by the collapsed
     remainder and its re-planned tree, with [executed] counting the stages
     of [cur_plan] already run. [retried] breaks the loop where a freshly
     re-planned stage is still blocked: the second attempt at the same index
     repairs per-stage instead of re-planning again. *)
  let rec execute cur_schema cur_plan executed retried index now total_wait gb_seconds
      reports = function
    | [] ->
        Completed
          { finish = now; total_wait; gb_seconds; stages = List.rev reports }
    | stage :: rest ->
        let conditions = Capacity.at capacity now in
        let planned_runs =
          Capacity.fits conditions stage.planned_resources
          && duration stage.planned_impl ~resources:stage.planned_resources stage <> None
        in
        let launch ~impl ~resources ~waited ~adapted =
          match duration impl ~resources stage with
          | Some seconds ->
              let report =
                {
                  index;
                  impl;
                  resources;
                  start = now;
                  duration = seconds;
                  waited;
                  adapted;
                }
              in
              execute cur_schema cur_plan (executed + 1) false (index + 1) (now +. seconds)
                (total_wait +. waited)
                (gb_seconds +. Resources.gb_seconds resources seconds)
                (report :: reports) rest
          | None ->
              Failed
                {
                  at_time = now;
                  stage = index;
                  reason =
                    Printf.sprintf "%s out of memory at %s"
                      (Join_impl.to_string impl)
                      (Resources.to_string resources);
                }
        in
        let reoptimize_here () =
          match reoptimize_stage model conditions stage with
          | Some { Raqo_planner.Coster.impl; resources; _ } ->
              (* The model may still disagree with the simulator near the
                 OOM cliff; fall back to the simulator's choice. *)
              let impl, resources =
                if duration impl ~resources stage <> None then (impl, resources)
                else begin
                  match
                    Operators.best_impl engine ~small_gb:stage.small_gb
                      ~big_gb:stage.big_gb
                      ~resources:(Conditions.clamp conditions resources)
                  with
                  | Some (i, _) -> (i, Conditions.clamp conditions resources)
                  | None -> (impl, resources)
                end
              in
              launch ~impl ~resources ~waited:0.0 ~adapted:true
          | None ->
              Failed
                {
                  at_time = now;
                  stage = index;
                  reason = "no feasible operator under current conditions";
                }
        in
        if planned_runs then
          (* [retried] here means this stage was just installed by a
             remaining-graph re-plan — report it as adapted. *)
          launch ~impl:stage.planned_impl ~resources:stage.planned_resources ~waited:0.0
            ~adapted:retried
        else begin
          match policy with
          | Fail ->
              Failed
                { at_time = now; stage = index; reason = "requested resources unavailable" }
          | Wait timeout -> begin
              (* Walk capacity change points until the request fits. *)
              let deadline = Option.map (fun t -> now +. t) timeout in
              let rec seek t =
                match Capacity.next_change capacity ~after:t with
                | None -> None
                | Some t' ->
                    if Capacity.fits (Capacity.at capacity t') stage.planned_resources then
                      Some t'
                    else seek t'
              in
              match seek now with
              | Some t' when (match deadline with Some d -> t' <= d | None -> true) -> begin
                  let waited = t' -. now in
                  match duration stage.planned_impl ~resources:stage.planned_resources stage with
                  | Some seconds ->
                      let report =
                        {
                          index;
                          impl = stage.planned_impl;
                          resources = stage.planned_resources;
                          start = t';
                          duration = seconds;
                          waited;
                          adapted = false;
                        }
                      in
                      execute cur_schema cur_plan (executed + 1) false (index + 1)
                        (t' +. seconds) (total_wait +. waited)
                        (gb_seconds +. Resources.gb_seconds stage.planned_resources seconds)
                        (report :: reports) rest
                  | None ->
                      Failed
                        {
                          at_time = t';
                          stage = index;
                          reason = "operator infeasible at planned resources";
                        }
                end
              | Some _ | None ->
                  Failed
                    {
                      at_time = now;
                      stage = index;
                      reason =
                        (match timeout with
                        | Some t -> Printf.sprintf "capacity did not return within %.0f s" t
                        | None -> "capacity never returns to the requested level");
                    }
            end
          | Downscale ->
              let clamped = Conditions.clamp conditions stage.planned_resources in
              let impl =
                if duration stage.planned_impl ~resources:clamped stage <> None then
                  stage.planned_impl
                else begin
                  match
                    Operators.best_impl engine ~small_gb:stage.small_gb ~big_gb:stage.big_gb
                      ~resources:clamped
                  with
                  | Some (impl, _) -> impl
                  | None -> stage.planned_impl (* unreachable: SMJ always runs *)
                end
              in
              launch ~impl ~resources:clamped ~waited:0.0 ~adapted:true
          | Reoptimize -> reoptimize_here ()
          | Replan_remaining when retried -> reoptimize_here ()
          | Replan_remaining -> begin
              if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_replans;
              match
                Raqo_obs.Trace.with_ ~name:"executor/replan" (fun () ->
                    replan_remaining model conditions cur_schema cur_plan ~executed)
              with
              | Some (schema', plan') ->
                  (* Restart on the re-planned remainder; the global stage
                     index keeps counting, and a still-blocked first stage
                     falls through to the per-stage repair ([retried]). *)
                  execute schema' plan' 0 true index now total_wait gb_seconds reports
                    (stages_of schema' plan')
              | None -> reoptimize_here ()
            end
        end
  in
  let outcome = execute schema plan 0 false 1 submit 0.0 0.0 [] (stages_of schema plan) in
  (if Raqo_obs.Obs.enabled () then
     match outcome with
     | Completed { stages; _ } ->
         Raqo_obs.Metrics.Counter.add m_stages (List.length stages);
         Raqo_obs.Metrics.Counter.add m_adaptations
           (List.length (List.filter (fun (s : stage_report) -> s.adapted) stages))
     | Failed _ -> Raqo_obs.Metrics.Counter.inc m_failures);
  Raqo_obs.Trace.finish span;
  outcome
