(** The resource-plan cache (paper Section VI-B3): for each cost model and
    sub-plan kind, an in-memory sorted index from data characteristics (the
    smaller input size) to the best resource configuration previously
    computed for them, backed by a sorted, auto-resizing array with binary
    search as in the paper's prototype ({!Ordered_index}). *)

type t

(** Cache lookup policies, in the paper's terms. Thresholds are in the data
    characteristic's unit (GB of smaller input). *)
type lookup =
  | Exact  (** hit only on an exactly matching data characteristic *)
  | Nearest_neighbor of float
      (** hit on the closest entry within the threshold (paper: HC+Caching_NN) *)
  | Weighted_average of float
      (** inverse-distance-weighted average of the entries within the
          threshold (paper: HC+Caching_WA) *)

(** [create ()] builds an empty cache. [capacity] bounds the total entry count
    across keys: inserting past it evicts least-recently-used entries (recency
    is refreshed by inserts and by every lookup that consults the entry —
    exact hits, the nearest-neighbor match, and each weighted-average
    contributor). The default keeps the paper's unbounded behaviour, with zero
    bookkeeping overhead on the lookup path.
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

(** [capacity t] is the bound [t] was created with, if any. *)
val capacity : t -> int option

(** [find t ~key ~data_gb lookup] queries the index for [key] (e.g.
    ["SMJ/join"]). Updates hit/miss counters in [counters] when given. *)
val find :
  ?counters:Counters.t ->
  t ->
  key:string ->
  data_gb:float ->
  lookup ->
  Raqo_cluster.Resources.t option

(** [insert t ~key ~data_gb resources] records a freshly planned
    configuration. Re-inserting an existing data characteristic overwrites.
    On a capacity-bounded cache, inserting a new entry past the bound evicts
    the least-recently-used entries (recorded in [counters] when given). *)
val insert :
  ?counters:Counters.t -> t -> key:string -> data_gb:float -> Raqo_cluster.Resources.t -> unit

(** [clear t] empties the cache (the evaluation clears it between queries
    unless measuring across-query caching). *)
val clear : t -> unit

(** [size t] is the total number of entries across keys. *)
val size : t -> int

(** [keys t] lists the distinct cache keys, sorted (verification hook). *)
val keys : t -> string list

(** [entries t ~key] is [key]'s index content in ascending data-characteristic
    order — the ground truth the verification layer checks lookups against. *)
val entries : t -> key:string -> (float * Raqo_cluster.Resources.t) list

(** [exact_epsilon ~data_gb] is the tolerance under which two data
    characteristics are treated as the same measurement (the weighted-average
    lookup returns such an entry outright instead of letting its near-zero
    distance swamp the inverse-distance weights). *)
val exact_epsilon : data_gb:float -> float
