(** Bushy join-order optimization by dynamic programming over connected
    subgraphs (DPsub): for every connected relation subset, the best plan is
    composed from the best plans of a connected complementary split. This
    explores the full bushy space the paper's randomized planner samples —
    the exact baseline for the "explore the query/resource search space"
    agenda item (Section VIII).

    O(3^n) over subsets; refuses more than {!max_relations} relations. *)

(** Hard cap on query size (20, matching {!Selinger}): the connectivity
    table is [2^n] bytes and the submask sweep [O(3^n)]. *)
val max_relations : int

(** [optimize coster schema relations] is the cheapest bushy,
    cartesian-product-free joint plan, or [None] when every split hits an
    infeasible join.
    @raise Invalid_argument on empty input, unknown relations, or more than
    {!max_relations} relations. *)
val optimize :
  Coster.t ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option

(** [optimize_masked m ctx] is the mask-based core {!optimize} runs on:
    adjacency from the interned context, the coster keyed on subset masks.
    Bit-identical results to the string reference.
    @raise Invalid_argument beyond {!max_relations} relations. *)
val optimize_masked :
  Coster.masked ->
  Raqo_catalog.Interned.t ->
  (Raqo_plan.Join_tree.joint * float) option

(** [optimize_reference coster schema relations] is the historical
    string-list bushy DP, kept as the oracle baseline. Same contract as
    {!optimize}. *)
val optimize_reference :
  Coster.t ->
  Raqo_catalog.Schema.t ->
  string list ->
  (Raqo_plan.Join_tree.joint * float) option
