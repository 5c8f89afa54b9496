(** The join graph: which relations join with which, and how selective each
    join predicate is. The paper keeps TPC-H's join edges and selectivities
    and reuses "similar selectivities" for randomly generated schemas. *)

type edge = {
  left : string;
  right : string;
  selectivity : float;  (** fraction of the cross product surviving the predicate *)
}

type t

(** [make edges] builds a graph. Edge endpoints are unordered; duplicate
    (unordered) pairs are rejected.
    @raise Invalid_argument on self-edges, nonpositive selectivity, or
    duplicates. *)
val make : edge list -> t

val edges : t -> edge list

(** [selectivity t a b] is the selectivity of the edge between [a] and [b],
    or [None] if they are not directly joinable. Symmetric. *)
val selectivity : t -> string -> string -> float option

(** [peers t a] is every relation directly joinable with [a], with the
    selectivity of its edge, in the order of {!edges}. Built at {!make}. *)
val peers : t -> string -> (string * float) list

(** [neighbors t a] is the set of relations directly joinable with [a], in
    the order of {!edges}. *)
val neighbors : t -> string -> string list

(** [edges_between t xs ys] is every edge with one endpoint in [xs] and the
    other in [ys]. *)
val edges_between : t -> string list -> string list -> edge list

(** [connected t names] is true when the sub-graph induced by [names] is
    connected — i.e. [names] can be joined without a cartesian product. *)
val connected : t -> string list -> bool
