(** Randomized query planning over bushy join trees, re-implementing the
    planner the paper evaluates against: iterative improvement with the
    associativity and exchange mutations of Steinbrunn et al., restarted a
    fixed number of times (the paper runs a default of 10 iterations),
    keeping the best plan found — and, for multi-objective use, the set of
    per-restart local optima (approximating Trummer–Koch's Pareto search). *)

type params = {
  iterations : int;  (** independent restarts *)
  max_no_improve : int;  (** consecutive rejected mutations before a restart ends *)
}

(** The paper's defaults: 10 restarts. *)
val default_params : params

(** The query's join graph over relation ids, from the schema's edges
    between query relations. Immutable: pooled restarts share it. *)
type graph

val graph : Raqo_catalog.Schema.t -> string list -> graph

(** [random_shape rng g] builds a uniform-ish random bushy join tree without
    cartesian products, by randomly merging joinable fragments.
    @raise Invalid_argument on an empty, duplicated or disconnected query. *)
val random_shape : Raqo_util.Rng.t -> graph -> Coster.shape

(** [checker g] allocates a restart's scratch and returns its check:
    every leaf is a query relation, none appears twice, and every join is
    crossed by a join edge, in O(n * degree * log n). One per restart:
    never share a checker across domains. *)
val checker : graph -> Coster.shape -> bool

(** [mutate rng valid shape] applies one random mutation (commutativity,
    associativity rotation, or subtree exchange); returns [None] when the
    drawn mutation does not apply or fails [valid] (a {!checker}). *)
val mutate :
  Raqo_util.Rng.t -> (Coster.shape -> bool) -> Coster.shape -> Coster.shape option

(** [optimize ?params rng coster schema relations] runs the randomized
    search and returns the cheapest joint plan found, or [None] when no
    feasible plan was encountered. *)
val optimize :
  ?params:params ->
  Raqo_util.Rng.t ->
  Coster.t ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option

(** [local_optima ?params rng coster schema relations] returns every
    restart's local optimum (at most [iterations] plans) — the candidate set
    a multi-objective planner filters to a Pareto front. Each restart runs on
    its own generator split off [rng] upfront, so restarts are independent. *)
val local_optima :
  ?params:params ->
  Raqo_util.Rng.t ->
  Coster.t ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) list

(** [local_optima_par ?params pool rng ~coster schema relations] is
    {!local_optima} with the restarts distributed across [pool]'s domains.
    [coster] is a factory invoked once per restart: the shipped costers hold
    non-thread-safe memo tables, so each restart needs its own instance. As
    long as the factory's costers compute the same values (true of every
    pure coster), the result — order included — is
    bit-identical to [local_optima rng (coster ())] for any pool size. *)
val local_optima_par :
  ?params:params ->
  Raqo_par.Pool.t ->
  Raqo_util.Rng.t ->
  coster:(unit -> Coster.t) ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) list

(** [optimize_par ?params pool rng ~coster schema relations] is {!optimize}
    over {!local_optima_par}: same ties-toward-earlier-restart fold, so the
    chosen plan and cost match the sequential [optimize] for a fixed seed
    at any pool size. *)
val optimize_par :
  ?params:params ->
  Raqo_par.Pool.t ->
  Raqo_util.Rng.t ->
  coster:(unit -> Coster.t) ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option

(** {2 Mask-based variants}

    Shape generation and mutations share the string seam's RNG streams;
    only tree costing goes through the masked coster. For a fixed seed the
    restarts therefore visit the same shapes, and results are bit-identical
    to the string variants whenever the costers compute the same values.
    The interned context caps queries at
    {!Raqo_catalog.Interned.max_relations}; larger queries stay on the
    string API. *)

val local_optima_masked :
  ?params:params ->
  Raqo_util.Rng.t ->
  Coster.masked ->
  Raqo_catalog.Interned.t ->
  (Raqo_plan.Join_tree.joint * float) list

val optimize_masked :
  ?params:params ->
  Raqo_util.Rng.t ->
  Coster.masked ->
  Raqo_catalog.Interned.t ->
  (Raqo_plan.Join_tree.joint * float) option

(** [local_optima_par_masked ?params pool rng ~coster ctx] distributes
    restarts across [pool]; [coster] is a factory invoked once per restart
    (masked memo tables are single-domain, the context itself is immutable
    and shared). *)
val local_optima_par_masked :
  ?params:params ->
  Raqo_par.Pool.t ->
  Raqo_util.Rng.t ->
  coster:(unit -> Coster.masked) ->
  Raqo_catalog.Interned.t ->
  (Raqo_plan.Join_tree.joint * float) list

val optimize_par_masked :
  ?params:params ->
  Raqo_par.Pool.t ->
  Raqo_util.Rng.t ->
  coster:(unit -> Coster.masked) ->
  Raqo_catalog.Interned.t ->
  (Raqo_plan.Join_tree.joint * float) option
