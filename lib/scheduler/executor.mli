(** Executing a joint query/resource plan against a cluster whose capacity
    changes over time — the paper's "interaction with the DAG scheduler"
    question: when the exact requested resources are not available, "should
    it delay the job, should it fail it, or should it consider multiple
    query/resource plan alternatives and pick the most appropriate at
    runtime?"

    The executor walks the plan's join stages in execution (bottom-up)
    order; each stage requests its planned resources from the capacity
    trace. When a request does not fit, the chosen policy decides. *)

(** What to do when a stage's planned resources are unavailable. *)
type policy =
  | Wait of float option
      (** delay until capacity returns; optional timeout (seconds) after
          which the job fails *)
  | Fail  (** fail the job immediately *)
  | Downscale
      (** clamp the stage's resources into the available conditions, and if
          the planned operator cannot run there (BHJ OOM), fall back to the
          simulator-best feasible operator *)
  | Reoptimize
      (** re-consult the optimizer: re-pick every remaining stage's operator
          and resources under the current conditions (adaptive RAQO) *)
  | Replan_remaining
      (** re-plan the *entire remaining join graph* under the current
          conditions: executed subtrees collapse into measured
          pseudo-relations ({!Raqo_adaptive.Remaining}) and the joint bushy
          DP re-optimizes what is left — join order, operators, and
          resources together. Falls back to [Reoptimize]'s per-stage repair
          when the remainder cannot be re-planned (a single leaf, a graph
          beyond the DP's cap, or no feasible joint plan) or when the
          freshly re-planned stage is itself still blocked. *)

type stage_report = {
  index : int;  (** execution order, 1-based *)
  impl : Raqo_plan.Join_impl.t;  (** operator actually run *)
  resources : Raqo_cluster.Resources.t;  (** resources actually granted *)
  start : float;
  duration : float;
  waited : float;  (** seconds spent queued before this stage *)
  adapted : bool;  (** operator or resources changed from the plan *)
}

type outcome =
  | Completed of {
      finish : float;
      total_wait : float;
      gb_seconds : float;
      stages : stage_report list;
    }
  | Failed of { at_time : float; stage : int; reason : string }

(** [run ?policy ?submit engine ~model schema ~capacity plan] executes
    [plan]'s stages sequentially from [submit] time (default 0) under the
    capacity trace. [model] supplies the cost model [Reoptimize] and
    [Replan_remaining] plan with ([Wait], [Fail] and [Downscale] ignore
    it). Stage durations come from the execution simulator. *)
val run :
  ?policy:policy ->
  ?submit:float ->
  Raqo_execsim.Engine.t ->
  model:Raqo_cost.Op_cost.t ->
  Raqo_catalog.Schema.t ->
  capacity:Capacity.t ->
  Raqo_plan.Join_tree.joint ->
  outcome
