(** Current cluster conditions, as the resource manager reports them to the
    optimizer: the feasible, discretized resource space. The paper's
    evaluation default is 1..100 containers (step 1) of 1..10 GB (step 1 GB),
    scaled up to 100K containers of 100 GB in Figure 15(b). *)

type t = {
  min_containers : int;
  max_containers : int;
  container_step : int;  (** discrete allocation granularity *)
  min_gb : float;
  max_gb : float;
  gb_step : float;
}

(** [make ()] validates bounds and steps. All arguments default to the
    paper's evaluation cluster: 1..100 containers step 1, 1..10 GB step 1.
    @raise Invalid_argument when a minimum is not positive, a maximum is
    below its minimum, a step is not positive, or a memory bound or step is
    NaN or infinite. *)
val make :
  ?min_containers:int ->
  ?max_containers:int ->
  ?container_step:int ->
  ?min_gb:float ->
  ?max_gb:float ->
  ?gb_step:float ->
  unit ->
  t

(** The paper's default evaluation cluster (100 containers x 10 GB). *)
val default : t

(** [steps_containers t] is the number of grid points on the container axis. *)
val steps_containers : t -> int

(** [steps_gb t] is the number of grid points on the memory axis. *)
val steps_gb : t -> int

(** [n_configs t] is the size of the discrete resource space
    ([steps_containers * steps_gb]). *)
val n_configs : t -> int

(** [contains t r] is true when [r] lies on the grid within bounds. *)
val contains : t -> Resources.t -> bool

(** [clamp t r] projects [r] onto the bounds (not onto the grid). *)
val clamp : t -> Resources.t -> Resources.t

(** [min_config t] is the cheapest configuration — the hill-climb start. *)
val min_config : t -> Resources.t

(** [max_config t] is the largest configuration. *)
val max_config : t -> Resources.t

(** [all_configs t] enumerates the full grid (brute-force search space).
    Containers vary fastest. *)
val all_configs : t -> Resources.t list

(** [scale_capacity t ~containers ~gb] returns conditions with new maxima,
    for the Figure 15(b) cluster-size sweep. *)
val scale_capacity : t -> containers:int -> gb:float -> t

val pp : Format.formatter -> t -> unit
