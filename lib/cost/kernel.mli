(** Compiled cost kernels: the per-operator regression models specialised to
    a fixed (join implementation, [small_gb]) pair, so the
    (containers x container_gb) resource grid can be swept — or hill-climbed
    — in one allocation-free loop instead of one {!Feature.vector_of} array
    plus one {!Linreg.predict} closure dispatch per grid point.

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

(** {1 Scratch buffers}

    Per-planner scratch so steady-state planning does zero grid allocation: the
    grid buffer is grown once to the largest grid ever swept and reused across
    every subsequent subplan of a Selinger/DPsub run. Reuse is instrumented —
    [allocs] counts buffer (re)allocations, [reuses] counts sweeps served by
    an already-large-enough buffer — so tests and benches can assert the
    steady state allocates nothing. Scratch is single-domain state; parallel
    searches keep their own. *)

type scratch

val create_scratch : unit -> scratch

(** [ensure scratch n] grows the buffer to at least [n] cells, bumping
    [allocs] on growth and [reuses] when already large enough. *)
val ensure : scratch -> int -> unit

(** [buffer scratch] is the current grid buffer (valid after {!ensure}). *)
val buffer : scratch -> float array

val allocs : scratch -> int
val reuses : scratch -> int
