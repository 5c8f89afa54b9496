(** The resource-plan cache (paper Section VI-B3): for each cost model and
    sub-plan kind, an in-memory sorted index from data characteristics (the
    smaller input size) to the best resource configuration previously
    computed for them, backed by a sorted, auto-resizing array with binary
    search as in the paper's prototype ({!Ordered_index}). *)

type t

(** What a search reads besides the data characteristic: the cost model, the
    cluster conditions it searched, and the join implementation. The model
    and the conditions are compared with [==], so a structurally equal copy
    only misses; it never returns another search's answer. *)
type key = {
  model : Raqo_cost.Op_cost.t;
  conditions : Raqo_cluster.Conditions.t;
  impl : Raqo_plan.Join_impl.t;
}

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
    contributor). Each index slot holds its last-touch stamp beside the
    configuration; an eviction scans the indexes for the oldest. The default
    keeps the paper's unbounded behaviour, with no recency bookkeeping.
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

(** [find t ~key ~data_gb lookup] queries [key]'s index. It counts
    nothing: the caller records the hit or miss. *)
val find :
  t ->
  key:key ->
  data_gb:float ->
  lookup ->
  Raqo_cluster.Resources.t option

(** [find_exact t ~model ~conditions ~impl ~data_gb] is the [Exact] lookup
    of the key with these fields, answering with the stored configuration
    and the cost stored with it ({!insert}'s [cost]). It builds no key, and
    the answer is its only allocation; the caller records the hit or miss.
    Refreshes the entry's recency like {!find}. *)
val find_exact :
  t ->
  model:Raqo_cost.Op_cost.t ->
  conditions:Raqo_cluster.Conditions.t ->
  impl:Raqo_plan.Join_impl.t ->
  data_gb:float ->
  (Raqo_cluster.Resources.t * float) option

(** [insert t ~key ~data_gb resources] records a freshly planned
    configuration, with its model cost [cost] stored unboxed beside it for
    {!find_exact}. Re-inserting an existing data
    characteristic overwrites both. Entries holding equal configurations
    share one stored copy, so a lookup may answer with a value physically
    equal to another entry's.
    On a capacity-bounded cache, inserting a new entry past the bound evicts
    the least-recently-used entries. The result is the number of entries
    this insert evicted: 0 on an unbounded cache and on an overwrite. *)
val insert :
  cost:float ->
  t ->
  key:key ->
  data_gb:float ->
  Raqo_cluster.Resources.t ->
  int

(** [clear t] empties the cache (the evaluation clears it between queries
    unless measuring across-query caching). *)
val clear : t -> unit

(** [size t] is the total number of entries across keys. *)
val size : t -> int

(** [keys t] lists the keys holding entries, oldest first (verification
    hook). *)
val keys : t -> key list

(** [entries t ~key] is [key]'s index content in ascending data-characteristic
    order — the ground truth the verification layer checks lookups against. *)
val entries : t -> key:key -> (float * Raqo_cluster.Resources.t) list

(** [exact_epsilon ~data_gb] is the tolerance under which two data
    characteristics are treated as the same measurement (the weighted-average
    lookup returns such an entry outright instead of letting its near-zero
    distance swamp the inverse-distance weights). *)
val exact_epsilon : data_gb:float -> float
