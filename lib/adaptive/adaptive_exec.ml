module Schema = Raqo_catalog.Schema
module Interned = Raqo_catalog.Interned
module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Engine = Raqo_execsim.Engine
module Operators = Raqo_execsim.Operators
module Simulate = Raqo_execsim.Simulate
module Coster = Raqo_planner.Coster
module Dpsub = Raqo_planner.Dpsub
module Resource_planner = Raqo_resource.Resource_planner

type outcome =
  | Done of { seconds : float; gb_seconds : float }
  | Oom of { stage : int; reason : string }

type stage = {
  index : int;
  impl : Join_impl.t;
  resources : Resources.t;
  build : string list;
  probe : string list;
  small_gb : float;
  big_gb : float;
  seconds : float;
  est_rows : float;
  observed_rows : float;
  replanned : bool;
  switched : bool;
}

type report = {
  static_plan : Join_tree.joint;
  static_outcome : outcome;
  adaptive_plan : Join_tree.joint;
  adaptive_outcome : outcome;
  stages : stage list;
  replans : int;
  switches : int;
  failed_replans : int;
  replan_cost_s : float;
}

(* Plan installation on the critical path when a switch commits. The
   re-optimization itself (milliseconds on the kernel path) overlaps the
   materialization barrier the finished stage already paid for. *)
let default_replan_cost_s = 0.05

let latency = function Done { seconds; _ } -> seconds | Oom _ -> infinity

let pp_outcome fmt = function
  | Done { seconds; gb_seconds } ->
      Format.fprintf fmt "done in %.1f s (%.0f GB-s)" seconds gb_seconds
  | Oom { stage; reason } -> Format.fprintf fmt "failed at stage %d: %s" stage reason

(* The in-flight plan: executed subtrees are leaves carrying their base
   relation set (for true sizes) and the joint subtree they ran as (for
   stitching the executed plan back together). *)
type mat = { leaf : Remaining.leaf; built : Join_tree.joint }

type node =
  | Leaf of mat
  | Node of { annot : Join_impl.t * Resources.t; left : node; right : node }

let rec of_joint = function
  | Join_tree.Scan r ->
      Leaf { leaf = Remaining.leaf_of_bases [ r ]; built = Join_tree.Scan r }
  | Join_tree.Join (annot, l, r) -> Node { annot; left = of_joint l; right = of_joint r }

let rec to_joint = function
  | Leaf { built; _ } -> built
  | Node { annot; left; right } -> Join_tree.Join (annot, to_joint left, to_joint right)

(* Base relations under a node, in the executor's left-to-right order — the
   exact name sequence [Schema.join_rows]/[join_size_gb] will fold over, so
   projection and execution see bit-equal sizes. *)
let rec bases_of = function
  | Leaf { leaf; _ } -> leaf.Remaining.bases
  | Node { left; right; _ } -> bases_of left @ bases_of right

let rec leaves_of = function
  | Leaf m -> [ m ]
  | Node { left; right; _ } -> leaves_of left @ leaves_of right

(* One stage's simulated latency, replicating Simulate.simulate_tree:
   engines that keep containers across stages (Spark) pay startup and
   container launch once per run, so every stage but the first is
   amortized — including stages installed by a mid-flight re-plan. *)
let stage_seconds (engine : Engine.t) ~index impl ~small_gb ~big_gb ~resources =
  match Operators.join_time engine impl ~small_gb ~big_gb ~resources with
  | None -> None
  | Some seconds ->
      Some
        (if engine.reuses_containers && index > 0 then
           Float.max 0.0
             (seconds -. engine.startup_s
             -. (engine.task_overhead_s *. float_of_int resources.Resources.containers))
         else seconds)

(* Find the first executable join — post-order, so the first Node whose
   children are both leaves — and return its stage descriptor plus the tree
   with that join collapsed into a materialized leaf. *)
let rec step = function
  | Leaf _ -> None
  | Node { annot; left = Leaf l; right = Leaf r } ->
      let bases = l.leaf.Remaining.bases @ r.leaf.Remaining.bases in
      let joined =
        Leaf
          {
            leaf = Remaining.leaf_of_bases bases;
            built = Join_tree.Join (annot, l.built, r.built);
          }
      in
      Some ((annot, l.leaf.Remaining.bases, r.leaf.Remaining.bases, bases), joined)
  | Node ({ left; right; _ } as n) -> begin
      match step left with
      | Some (st, left') -> Some (st, Node { n with left = left' })
      | None -> begin
          match step right with
          | Some (st, right') -> Some (st, Node { n with right = right' })
          | None -> None
        end
    end

(* Project a remainder's completion time by re-playing the exact float
   additions execution will perform, starting from the actual running clock
   and stage index. [None] = some stage is infeasible under the true sizes.
   This is what makes never-worse a bitwise fact rather than a tolerance:
   the chosen remainder's projection IS its execution, float for float. *)
let project engine truth node ~index ~clock ~gb =
  let rec go node index clock gb =
    match node with
    | Leaf _ -> Some (index, clock, gb)
    | Node { annot = impl, resources; left; right } -> begin
        match go left index clock gb with
        | None -> None
        | Some (index, clock, gb) -> begin
            match go right index clock gb with
            | None -> None
            | Some (index, clock, gb) -> begin
                let small_gb, big_gb =
                  Simulate.join_inputs truth ~left:(bases_of left) ~right:(bases_of right)
                in
                match stage_seconds engine ~index impl ~small_gb ~big_gb ~resources with
                | None -> None
                | Some s ->
                    Some (index + 1, clock +. s, gb +. Resources.gb_seconds resources s)
              end
          end
      end
  in
  go node index clock gb

(* The remaining join graph never outgrows the mask-based DP here: DPsub
   itself caps at 20 relations, far below the 62-relation mask limit. *)
let max_replan_relations = min Interned.max_relations Dpsub.max_relations

let m_replans = Raqo_obs.Metrics.counter "raqo_adaptive_replans_total"
let m_switches = Raqo_obs.Metrics.counter "raqo_adaptive_switches_total"
let m_failed = Raqo_obs.Metrics.counter "raqo_adaptive_failed_replans_total"

let replan_remaining ?(kernel = true) ?(fault = Fun.id) ~model ~conditions schema names =
  let n = List.length names in
  if n < 2 || n > max_replan_relations then None
  else
    match Interned.make schema names with
    | exception Invalid_argument _ -> None
    | ctx ->
        let rp = Resource_planner.create ~kernel conditions in
        Dpsub.optimize_masked (fault (Coster.raqo_masked model ctx rp)) ctx

(* Re-optimize the in-flight tree's remainder: collapse its leaves into a
   remaining schema (true statistics on materialized intermediates,
   estimates elsewhere), re-plan it, and map the plan's leaves back to the
   materialized subtrees they stand for. *)
let replan ~kernel ~fault ~model ~conditions ~truth ~estimates tree =
  let leaves = leaves_of tree in
  let recs = List.map (fun m -> m.leaf) leaves in
  match Remaining.of_leaves ~truth ~estimates recs with
  | exception Invalid_argument _ -> None
  | schema -> (
      let names = List.map (fun (l : Remaining.leaf) -> l.Remaining.name) recs in
      match replan_remaining ~kernel ~fault ~model ~conditions schema names with
      | None -> None
      | Some (joint, _est_cost) ->
          let table = Hashtbl.create (2 * List.length leaves) in
          List.iter (fun m -> Hashtbl.replace table m.leaf.Remaining.name m) leaves;
          let rec to_node = function
            | Join_tree.Scan name -> Leaf (Hashtbl.find table name)
            | Join_tree.Join (annot, l, r) -> Node { annot; left = to_node l; right = to_node r }
          in
          Some (to_node joint))

let oom_reason impl ~small_gb ~resources =
  Printf.sprintf "%s out of memory: %.2f GB build side in %.1f GB containers"
    (Join_impl.to_string impl) small_gb resources.Resources.container_gb

(* Execute the in-flight tree to completion. [adapt] gates the boundary
   re-optimization; with it off this is exactly Simulate.run_joint's
   accounting, stage by stage, float by float. *)
let exec ~replan_cost_s ~kernel ~fault ~engine ~model ~conditions ~truth ~estimates
    ~adapt tree0 =
  let obs_on = Raqo_obs.Obs.enabled () in
  let rec loop tree index clock gb stages replans switches failed =
    match step tree with
    | None ->
        ( Done { seconds = clock; gb_seconds = gb },
          to_joint tree,
          List.rev stages,
          replans,
          switches,
          failed )
    | Some (((impl, resources), build, probe, joined_bases), tree') -> begin
        let small_gb, big_gb = Simulate.join_inputs truth ~left:build ~right:probe in
        match stage_seconds engine ~index impl ~small_gb ~big_gb ~resources with
        | None ->
            ( Oom { stage = index; reason = oom_reason impl ~small_gb ~resources },
              to_joint tree,
              List.rev stages,
              replans,
              switches,
              failed )
        | Some seconds -> begin
            let clock = clock +. seconds in
            let gb = gb +. Resources.gb_seconds resources seconds in
            let est_rows = Schema.join_rows estimates joined_bases in
            let observed_rows = Schema.join_rows truth joined_bases in
            let index = index + 1 in
            let remaining = match tree' with Leaf _ -> false | Node _ -> true in
            let stage ~replanned ~switched =
              {
                index = index - 1;
                impl;
                resources;
                build;
                probe;
                small_gb;
                big_gb;
                seconds;
                est_rows;
                observed_rows;
                replanned;
                switched;
              }
            in
            (* The materialization boundary: re-plan only when observation
               contradicts the estimate. Bit-equality is the trigger on
               purpose — under zero error both numbers come from the same
               arithmetic on the same schema, so no re-plan ever fires and
               the adaptive run stays bit-identical to the static one. *)
            if not (adapt && remaining && observed_rows <> est_rows) then
              loop tree' index clock gb (stage ~replanned:false ~switched:false :: stages)
                replans switches failed
            else begin
              if obs_on then Raqo_obs.Metrics.Counter.inc m_replans;
              let span = Raqo_obs.Trace.start "adaptive/replan" in
              let candidate, failed =
                match
                  replan ~kernel ~fault ~model ~conditions ~truth ~estimates tree'
                with
                | candidate -> (candidate, failed)
                | exception _ ->
                    (* A planner fault mid-re-optimization: fall back to the
                       remaining static plan; the next boundary re-plans on a
                       fresh resource planner. *)
                    if obs_on then Raqo_obs.Metrics.Counter.inc m_failed;
                    (None, failed + 1)
              in
              Raqo_obs.Trace.finish span;
              let replans = replans + 1 in
              match candidate with
              | None ->
                  loop tree' index clock gb
                    (stage ~replanned:true ~switched:false :: stages)
                    replans switches failed
              | Some cand -> begin
                  let incumbent = project engine truth tree' ~index ~clock ~gb in
                  let challenger =
                    project engine truth cand ~index ~clock:(clock +. replan_cost_s) ~gb
                  in
                  let switch =
                    match (challenger, incumbent) with
                    | Some (_, c, _), Some (_, i, _) -> c < i
                    | Some _, None -> true (* rescue: incumbent OOMs under truth *)
                    | None, _ -> false
                  in
                  if switch then begin
                    if obs_on then Raqo_obs.Metrics.Counter.inc m_switches;
                    loop cand index (clock +. replan_cost_s) gb
                      (stage ~replanned:true ~switched:true :: stages)
                      replans (switches + 1) failed
                  end
                  else
                    loop tree' index clock gb
                      (stage ~replanned:true ~switched:false :: stages)
                      replans switches failed
                end
            end
          end
      end
  in
  loop tree0 0 0.0 0.0 [] 0 0 0

let run ?(replan_cost_s = default_replan_cost_s) ?(kernel = true)
    ?(fault = fun (c : Coster.masked) -> c) ~engine ~model ~conditions ~truth ~estimates
    static =
  if not (Join_tree.valid static) then
    invalid_arg "Adaptive_exec.run: plan references a relation twice";
  List.iter
    (fun r ->
      if not (Schema.mem truth r) then
        invalid_arg ("Adaptive_exec.run: relation unknown to the truth schema: " ^ r);
      if not (Schema.mem estimates r) then
        invalid_arg ("Adaptive_exec.run: relation unknown to the estimate schema: " ^ r))
    (Join_tree.relations static);
  let span = Raqo_obs.Trace.start "adaptive/run" in
  let static_outcome, _, _, _, _, _ =
    exec ~replan_cost_s ~kernel ~fault ~engine ~model ~conditions ~truth ~estimates
      ~adapt:false (of_joint static)
  in
  let adaptive_outcome, adaptive_plan, stages, replans, switches, failed_replans =
    exec ~replan_cost_s ~kernel ~fault ~engine ~model ~conditions ~truth ~estimates
      ~adapt:true (of_joint static)
  in
  Raqo_obs.Trace.finish span;
  {
    static_plan = static;
    static_outcome;
    adaptive_plan;
    adaptive_outcome;
    stages;
    replans;
    switches;
    failed_replans;
    replan_cost_s;
  }
