(** Runtime adaptive re-optimization: execute a joint plan stage by stage
    against the ground-truth schema, observe each materialized intermediate's
    true size at the stage boundary, and — whenever the observation diverges
    from the estimate — re-invoke the kernel-backed bushy DP
    ({!Raqo_planner.Dpsub}, over the interned masks of the remaining join
    graph) to
    re-plan everything not yet executed, flipping join implementations and
    re-sizing containers mid-flight.

    {2 The differential never-worse guard}

    A re-planned candidate replaces the incumbent remainder only when the
    switch provably helps: both remainders are costed by the same
    deterministic stage simulation the executor itself runs (true sizes,
    container-reuse amortization, accumulated onto the *actual* running
    clock in execution order), and the candidate must win strictly after
    absorbing [replan_cost_s] — the plan-installation charge a switch puts
    on the critical path. Re-planning itself runs on the driver during the
    materialization barrier the finished stage already paid for, so a
    rejected candidate costs nothing.

    Two theorems follow, and the {!Raqo_verify} oracle checks both bitwise:

    - {b Zero-error identity.} When [estimates] is [truth] (physically —
      {!Raqo_execsim.Estimation_error.Exact} guarantees it), every
      observation matches its estimate bit-for-bit, no re-plan ever fires,
      and the adaptive run is bit-identical to the static one: same plan,
      same latency float.
    - {b Never-worse.} The projected total latency (clock so far plus the
      incumbent remainder, summed in execution order) starts exactly at the
      static latency and only ever decreases — executing a stage re-plays
      the same float additions the projection made, and a switch strictly
      lowers the projection. Hence [adaptive.seconds <= static.seconds] as
      plain floats, re-planning cost included, on every seed. A failed
      static run (OOM under truth) counts as infinite latency; the adaptive
      run may rescue it by switching away before launching the doomed
      stage. *)

type outcome =
  | Done of { seconds : float; gb_seconds : float }
  | Oom of { stage : int; reason : string }
      (** the [stage]-th join (0-based, execution order) was infeasible
          under the true sizes *)

type stage = {
  index : int;  (** execution order, 0-based across the whole run *)
  impl : Raqo_plan.Join_impl.t;
  resources : Raqo_cluster.Resources.t;
  build : string list;  (** base relations under the left (build) input *)
  probe : string list;
  small_gb : float;  (** true input sizes, smaller side first *)
  big_gb : float;
  seconds : float;  (** simulated stage latency, amortization applied *)
  est_rows : float;  (** what the estimates predicted for this output *)
  observed_rows : float;  (** what materialization actually produced *)
  replanned : bool;  (** a re-optimization ran at the boundary after this stage *)
  switched : bool;  (** ... and its candidate beat the incumbent remainder *)
}

type report = {
  static_plan : Raqo_plan.Join_tree.joint;
  static_outcome : outcome;
      (** the plan executed as-is — bit-identical to
          {!Raqo_execsim.Simulate.run_joint} on the truth schema *)
  adaptive_plan : Raqo_plan.Join_tree.joint;
      (** the plan actually executed, re-planned subtrees stitched in *)
  adaptive_outcome : outcome;
  stages : stage list;  (** adaptive run, execution order *)
  replans : int;  (** re-optimizations attempted *)
  switches : int;  (** candidates that displaced the incumbent *)
  failed_replans : int;  (** re-optimizations that raised and fell back *)
  replan_cost_s : float;
}

val default_replan_cost_s : float

(** [run ~engine ~model ~conditions ~truth ~estimates static] simulates
    [static] (planned from [estimates]) twice against [truth]: once as-is
    and once adaptively.

    [kernel] (default true) is forwarded to the per-replan
    {!Raqo_resource.Resource_planner}. [fault] wraps every re-planning
    coster (the oracle's fault-injection seam): a coster that raises makes
    the re-plan fall back to the incumbent remainder, counted in
    [failed_replans]. [replan_cost_s] is the switch charge described above.

    Queries whose remaining join graph exceeds the DPsub cap simply stop
    re-planning (counted as attempts, never as switches).
    @raise Invalid_argument when [static] is invalid or mentions relations
    unknown to [truth] or [estimates]. *)
val run :
  ?replan_cost_s:float ->
  ?kernel:bool ->
  ?fault:(Raqo_planner.Coster.masked -> Raqo_planner.Coster.masked) ->
  engine:Raqo_execsim.Engine.t ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  truth:Raqo_catalog.Schema.t ->
  estimates:Raqo_catalog.Schema.t ->
  Raqo_plan.Join_tree.joint ->
  report

(** [replan_remaining ?kernel ?fault ~model ~conditions schema names] is
    the re-plan both this executor and {!Raqo_scheduler.Executor}'s
    [Replan_remaining] policy run on a remaining join graph: it interns
    [names] over [schema] (a {!Remaining} collapsed schema), builds a fresh
    resource planner ([kernel], default true) and runs masked DPsub over
    the joint coster, wrapped by [fault] (default the identity). [None]
    when fewer than two or more than DPsub's cap of relations remain, when
    [names] do not intern over [schema], or when no feasible joint plan
    exists. *)
val replan_remaining :
  ?kernel:bool ->
  ?fault:(Raqo_planner.Coster.masked -> Raqo_planner.Coster.masked) ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option

(** [latency outcome] is the outcome's seconds, [infinity] for a failure —
    the ordering the never-worse guarantee is stated in. *)
val latency : outcome -> float

val pp_outcome : Format.formatter -> outcome -> unit
