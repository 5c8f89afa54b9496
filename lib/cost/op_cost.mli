(** Per-operator cost models: f(data, resources) → estimated cost, one
    regression model per join implementation, plus the BHJ feasibility rule.
    This is the cost model cost-based RAQO plugs into query planners. *)

type t = {
  space : Feature.space;  (** which feature vector the regressions consume *)
  smj : Linreg.t;
  bhj : Linreg.t;
  scan : Linreg.t;  (** standalone full scan, in the smaller-input feature space *)
  oom_headroom : float;  (** BHJ feasible iff small side <= headroom x container GB *)
  floor : float;
      (** lower clamp on predictions; quadratic models extrapolate to negative
          costs outside the profiled region (the paper's published SMJ model
          already goes negative for large container counts), so
          quality-sensitive users set a small positive floor. [0.] keeps raw
          predictions, faithful to the paper's planner-overhead experiments. *)
}

(** The paper's published Hive coefficients (Section VI-A), verbatim, in the
    intercept-free 7-feature space. The scan model is a simple derived
    throughput model. *)
val paper : t

(** [predict t impl ~small_gb ~resources] estimates the cost of one join.
    [None] means the implementation is infeasible (BHJ out of memory). *)
val predict :
  t ->
  Raqo_plan.Join_impl.t ->
  small_gb:float ->
  resources:Raqo_cluster.Resources.t ->
  float option

(** [predict_exn] maps infeasible to [infinity] — the form planners consume. *)
val predict_exn :
  t ->
  Raqo_plan.Join_impl.t ->
  small_gb:float ->
  resources:Raqo_cluster.Resources.t ->
  float

(** [with_floor floor t] returns [t] clamping every prediction to at least
    [floor]. *)
val with_floor : float -> t -> t

(** [best_impl t ~small_gb ~resources] is the model-cheapest feasible
    implementation, or [None] when neither is feasible. *)
val best_impl :
  t ->
  small_gb:float ->
  resources:Raqo_cluster.Resources.t ->
  (Raqo_plan.Join_impl.t * float) option
