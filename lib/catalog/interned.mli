(** Dense relation ids and adjacency bitmasks for one query, fixed at
    admission. The mask-based planning core ({!Raqo_planner}) keys every DP
    table and memo on integer subsets of these ids instead of string lists;
    ids are assigned by position in the admitted relation list, so subset
    enumeration order matches the historical string-based planners exactly.

    A context is immutable after {!make} and safe to share across domains;
    costers keep their own memo tables. *)

type t

(** Masks must fit a native [int]: at most 62 relations per query. Larger
    queries stay on the string-based planner paths. *)
val max_relations : int

(** [make schema relations] interns [relations] (ids in list order) and
    precomputes per-relation adjacency masks from the schema's join graph,
    plus the size statistics {!join_size_gb} reads.
    @raise Invalid_argument on an empty list, more than {!max_relations}
    relations, or a name missing from [schema]. *)
val make : Schema.t -> string list -> t

val schema : t -> Schema.t

(** [n t] is the number of interned relations. *)
val n : t -> int

(** [name t i] is the relation name of id [i]. *)
val name : t -> int -> string

(** [relations t] is the admitted relation list, original order. *)
val relations : t -> string list

(** [adj t] is the adjacency table: [(adj t).(i)] is the mask of relations
    sharing a join edge with relation [i], restricted to the query. Treat as
    read-only. *)
val adj : t -> int array

(** [log_selectivity t i j] is the log selectivity of the join edge between
    ids [i] and [j], [0.0] when they share none. *)
val log_selectivity : t -> int -> int -> float

(** [full_mask t] is the mask containing every interned relation. *)
val full_mask : t -> int

(** [mask_of_name t r] is the singleton mask of [r].
    @raise Invalid_argument when [r] was not interned. *)
val mask_of_name : t -> string -> int

val mask_of_names : t -> string list -> int

(** [names_of_mask t mask] lists the members of [mask] in ascending id
    order — the order the string planners historically produced. *)
val names_of_mask : t -> int -> string list

(** [join_size_gb t mask] is
    [Schema.join_size_gb (schema t) (names_of_mask t mask)], bit for bit,
    computed from per-relation statistics and a pairwise log-selectivity
    table precomputed by {!make}: no name list, map lookup or tuple is built.
    @raise Invalid_argument on an empty mask. *)
val join_size_gb : t -> int -> float

(** [connected t mask] is true when the join sub-graph induced by [mask] is
    connected (BFS over the adjacency masks). *)
val connected : t -> int -> bool

(** {2 Subset enumeration}

    A pure bitmask helper for exhaustive shape generation. It is
    independent of any context; its enumeration order is part of the
    contract because the planners' first-wins tie-breaks depend on it, and
    DPsub issues its connected splits in the same order. *)

(** [fold_splits mask ~init ~f] folds over the canonical proper splits of
    [mask]: each unordered partition into non-empty [sub] and [rest] appears
    exactly once, with [sub] holding [mask]'s lowest set bit. [sub] values
    are visited in descending numeric order — the order the DP planners'
    historical inline loops used.
    @raise Invalid_argument on an empty mask. *)
val fold_splits : int -> init:'a -> f:('a -> sub:int -> rest:int -> 'a) -> 'a
