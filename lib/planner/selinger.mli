(** System R style bottom-up dynamic programming over left-deep join trees
    (Selinger et al. 1979) — the traditional planner the paper integrates
    cost-based RAQO with. Per-join costs come from the pluggable
    {!Coster.t}, so the same DP serves plain QO and RAQO. *)

(** [optimize coster schema relations] returns the cheapest left-deep joint
    plan for joining [relations], or [None] when every ordering hits an
    infeasible join. Avoids cartesian products (every extension must share a
    join edge with the current set).

    @raise Invalid_argument when [relations] is empty, contains unknown
    names, or has more than 20 relations (the DP is exponential; the
    paper's Selinger runs cover TPC-H's 8 tables — use {!Randomized} for
    large schemas). *)
val optimize :
  Coster.t ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option

(** {2 Mask-based core}

    {!optimize} runs on the interned, mask-based DP:
    relations are interned once at admission, DP tables are flat arrays
    indexed by subset masks, and connectivity is a single AND against the
    precomputed adjacency mask. The entry points below expose that core
    directly for callers that already hold a context, plus the historical
    string-list implementation as the differential-oracle reference. *)

(** [optimize_masked m ctx] plans over an interned context with a masked
    coster. Bit-identical results (plan, cost, coster invocations) to the
    reference string implementation.
    @raise Invalid_argument beyond 20 relations. *)
val optimize_masked :
  Coster.masked ->
  Raqo_catalog.Interned.t ->
  (Raqo_plan.Join_tree.joint * float) option

(** [optimize_reference coster schema relations] is the historical
    string-list DP, kept as the oracle baseline the mask-based core is
    differenced against. Same contract as {!optimize}. *)
val optimize_reference :
  Coster.t ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option
