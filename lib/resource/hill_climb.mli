(** Resource planning by hill climbing — the paper's Algorithm 1.

    Starting from the smallest resource configuration (users of serverless
    clouds want minimal resources), repeatedly try one discrete step forward
    and backward along each resource dimension (number of containers, memory
    per container), greedily applying the per-dimension step that lowers the
    modelled cost, until no step improves — a local optimum. *)

(** [plan ?counters ?start conditions cost] returns the local-optimum
    configuration and its cost. [start] defaults to
    [Conditions.min_config conditions]; it is clamped into bounds. *)
val plan :
  ?counters:Counters.t ->
  ?start:Raqo_cluster.Resources.t ->
  Raqo_cluster.Conditions.t ->
  (Raqo_cluster.Resources.t -> float) ->
  Raqo_cluster.Resources.t * float

(** [plan_kernel ?counters ?start conditions kernel] is {!plan} run as
    {!Raqo_cost.Kernel.climb}: one loop over two unboxed coordinates that
    builds no configuration value, feature vector or boxed cost per probe,
    and records its evaluations once per climb. Kernel costs are
    bit-identical to the scalar model, so the climb's trajectory, result,
    cost, and evaluation count all match {!plan}'s on the same model. *)
val plan_kernel :
  ?counters:Counters.t ->
  ?start:Raqo_cluster.Resources.t ->
  Raqo_cluster.Conditions.t ->
  Raqo_cost.Kernel.t ->
  Raqo_cluster.Resources.t * float
