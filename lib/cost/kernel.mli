(** Compiled cost kernels: the per-operator regression models specialised to
    a fixed (join implementation, [small_gb]) pair, so the
    (containers x container_gb) resource grid can be swept, hill-climbed or
    minimized in closed form in one allocation-free loop instead of one
    {!Feature.vector_of} array plus one {!Linreg.predict} closure dispatch
    per grid point.

    The polynomial splits into a data-only prefix and per-axis resource
    terms:

    {v cost = intercept + b0*ss + b1*ss^2          (precomputed once)
            + b2*cs + b3*cs^2                      (hoisted per grid row)
            + b4*nc + b5*nc^2 + b6*cs*nc           (inner loop)
            + b7/nc + b8*ss/nc + b9*ss*nc + b10*ss/cs
                                      (inner loop, extended space only)  v}

    Both feature spaces compile: the trained models ({!Feature.Extended},
    the default of the training pipeline) append their four terms to the
    chain in {!Feature.vector_of} order, and the paper's models stop at
    [cs*nc]. Every float operation replicates the exact association order of
    the scalar path ({!Linreg.predict} over {!Feature.vector_of}, i.e. a
    left-to-right dot product seeded at [0.] plus the intercept; quotients
    are computed as written), the BHJ OOM cliff is applied as an [infinity]
    mask before the polynomial, and the floor clamp is fused into the loop —
    so kernel costs are bit-identical to {!Op_cost.predict_exn}: same
    floats, hence same argmins and the same tie-breaks downstream. That
    identity is enforced by QCheck properties and differential fuzz-oracle
    arms over both spaces. *)

type t
(** A compiled kernel: one (model, impl, small_gb) triple. Immutable. *)

(** [make model impl ~small_gb] compiles the model for one join
    implementation and build-side size, in either feature space.
    @raise Invalid_argument when the model's coefficient count does not
    match its feature space (the scalar path would fail on every
    prediction). *)
val make : Op_cost.t -> Raqo_plan.Join_impl.t -> small_gb:float -> t

val impl : t -> Raqo_plan.Join_impl.t
val small_gb : t -> float

(** [predict t ~containers ~container_gb] is bit-identical to
    [Op_cost.predict_exn model impl ~small_gb ~resources] for the compiled
    triple ([infinity] on the infeasible BHJ side of the OOM cliff). *)
val predict : t -> containers:int -> container_gb:float -> float

(** [predict_resources t r] is {!predict} on an existing configuration. *)
val predict_resources : t -> Raqo_cluster.Resources.t -> float

(** The outcome of one {!climb}: the local optimum, its cost, and how many
    grid points were costed on the way. *)
type climb = { best : Raqo_cluster.Resources.t; cost : float; evaluations : int }

(** [climb t conditions ~start] is the paper's Algorithm 1 hill climb from
    [start] (expected in bounds), costed through the kernel. It follows the
    same probe order, in-place restore arithmetic and strict-improvement
    stop as [Raqo_resource.Hill_climb.plan], so it returns the same optimum,
    cost and evaluation count, and it allocates nothing per probe: the loop
    and the cost arithmetic live in this module, so no intermediate is
    boxed. *)
val climb : t -> Raqo_cluster.Conditions.t -> start:Raqo_cluster.Resources.t -> climb

(** [sweep t conditions buf] fills [buf.(j * steps_containers + i)] with
    {!predict} at grid cell (i, j) — containers index [i] varying fastest,
    matching {!Raqo_cluster.Conditions.all_configs} enumeration order — in
    one pass with zero allocation: the data prefix is compiled in, the [cs]
    monomials and the BHJ feasibility test are hoisted per row (an
    infeasible row is an [Array.fill] of [infinity]), and the floor clamp is
    fused into the store. [buf] must have at least
    {!Raqo_cluster.Conditions.n_configs} cells.
    @raise Invalid_argument if [buf] is too small. *)
val sweep : t -> Raqo_cluster.Conditions.t -> float array -> unit

(** The outcome of one {!minimum}: the grid's cheapest cell, its cost, how
    many cells were costed, and whether the grid was swept cell by cell
    because the closed form could not settle it. *)
type minimum = {
  best : Raqo_cluster.Resources.t;
  cost : float;
  evaluations : int;
  swept : bool;
}

(** [minimum t conditions] is the exact grid minimum: the same cell
    (earliest in {!sweep} order on ties), the same cost bits and the same
    NaN behaviour as an argmin scan over a full {!sweep}, from a few
    evaluations per memory row.

    For a fixed memory row every model's cost is [a + b*nc + c*nc^2 + d/nc]
    (clamped at the floor), so its interior minimum is next to a real root
    of [2c*nc^3 + b*nc^2 - d]. The search costs only the row's two ends and
    the cells around that root, then walks outward from each of them while
    a neighbour's cost is within the rows' rounding bound of the best, so
    rounding in the roots or the costs cannot move the answer. Rows below
    the BHJ OOM cut are skipped. The first row whose minimum is the model's
    floor ends the search at its first floor cell, located from a root of
    [c*nc^3 + b*nc^2 + (a - floor)*nc + d]. A kernel whose terms could
    overflow (or are NaN) is swept row by row instead: [swept] is set, and
    its rows are counted in [raqo_kernel_swept_rows_total] when
    observability is on.

    A warm search allocates its result only. *)
val minimum : t -> Raqo_cluster.Conditions.t -> minimum
