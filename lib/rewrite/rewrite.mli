(** Logical rewrite memo: rule-driven simplification of a join query before
    physical enumeration.

    The engine is a group-based memo over one schema: every query relation
    starts as its own group, and absorption rules merge a redundant
    relation's group into a surviving neighbour's (a union-find recorded in
    the per-apply report as [absorbed]). The surviving groups — with their
    folded cardinalities and narrowed widths — are what the physical
    planners enumerate, so every rule that fires shrinks their DP lattice.

    Rule catalogue, applied in a deterministic order:

    + {b pushdown} — per-relation filter selectivities (from the SQL
      WHERE clause) are folded into scan cardinalities with exactly the
      resolver's formula [rows *. Float.max (1.0 /. rows) sel], so a
      rewritten filter-only query plans bit-identically to the historical
      resolver-scaled path. Runs once, in hint order.
    + {b constant absorption} — an unreferenced relation whose (filtered)
      cardinality is <= 1 row is removed and its row count times the
      selectivities of its in-query edges is folded into its lowest-index
      surviving neighbour; only fires when removal keeps the survivors
      connected. Saturated.
    + {b FK-leaf absorption} — an unreferenced degree-1 relation [d] with
      [rows(d) *. sel <= 1.0] (a key–foreign-key edge: joining [d] can
      never grow the result) is absorbed into its sole neighbour, which is
      scaled by [rows(d) *. sel]. Saturated interleaved with constant
      absorption, so each absorption can enable the next.
    + {b projection narrowing} — unreferenced survivors (kept only for
      their join edges) have [row_bytes] clamped to a 16-byte key stub,
      shrinking every intermediate size fed to [Op_cost]. Runs last, once.

    Equivalence: rules only ever {e shrink} per-relation rows/widths or
    remove a relation that appears as a singleton operand in every valid
    join tree, folding its cardinality contribution into a neighbour. Since
    [Schema.join_rows] and the cost model are monotone in those stats,
    contracting the removed leaves out of any unrewritten optimal tree
    yields a valid tree over the rewritten instance with pointwise-smaller
    intermediates — so the rewritten optimum is <= the unrewritten optimum
    as plain floats, for every planner. Gates are exact ([<= 1.0], no
    tolerance) so the argument never depends on rounding.

    Queries that admit no rewrite (no hints, duplicate or unknown
    relations, disconnected input) take a fast path that performs {e zero}
    allocations and returns the caller's schema and relation list
    physically unchanged. *)

type hints = {
  filters : (string * float) list;
      (** Per-relation predicate selectivities in (0, 1]; entries >= 1.0 or
          naming relations outside the query are ignored. *)
  referenced : string list option;
      (** Relations whose columns the query's output needs. [None] means
          all of them (conservative: disables removal and narrowing);
          [Some []] is a count-star query; unknown names are ignored. *)
}

(** No filters, everything referenced: [apply] is guaranteed a no-op. *)
val no_hints : hints

type t

(** [create schema] builds a reusable engine for queries over [schema].
    Scratch arrays are preallocated here so [apply] allocates nothing
    until a rule actually fires. Counters ([raqo_rewrite_*]) register in
    [registry] and record only while observability is enabled. *)
val create : ?registry:Raqo_obs.Metrics.registry -> Raqo_catalog.Schema.t -> t

val schema : t -> Raqo_catalog.Schema.t

(** [apply t ~hints relations] rewrites the query [relations]; returns
    [true] when at least one rule fired. The results are read back with
    {!schema_out} / {!relations_out}; when it returns [false] those are the
    arguments, physically unchanged. Relation order is preserved and the
    engine may be reused immediately for the next query. *)
val apply : t -> hints:hints -> string list -> bool

val schema_out : t -> Raqo_catalog.Schema.t
val relations_out : t -> string list

type report = {
  pushdown : int;  (** filters folded into scans *)
  constant : int;  (** constant-bound relations absorbed *)
  fk : int;  (** FK-leaf relations absorbed *)
  project : int;  (** widths narrowed to the key stub *)
  removed : int;  (** relations removed = constant + fk *)
  changed : bool;
  absorbed : (string * string) list;
      (** group merges, as (removed relation, absorbed into) *)
}

(** Report for the most recent [apply]. Allocates; keep off hot paths. *)
val last : t -> report

(** Nonzero per-rule fired counts in canonical order, e.g.
    [[("pushdown", 2); ("fk", 3)]]. *)
val fired : report -> (string * int) list

(** Width, in bytes, of the join-key stub left by projection narrowing. *)
val projected_row_bytes : float
