(** Ordered float-keyed index for the resource-plan cache.

    The paper's prototype "keeps a sorted array of keys, with automatic
    resizing ... and binary search for lookup"; this is that array. The
    paper's CSB+-tree alternative for larger workloads is not provided. A
    fresh optimizer's index grows to thousands of entries per key, and each
    insert shifts the array's tail. Only unboxed float arrays shift (keys,
    each key's slot in an append-only value pool, stamps), so the shift is
    one memory move with no write barrier per moved entry. With a boxed
    value array, join-large's 2,630 inserts per request took 7.5 us each,
    more than all its hill climbs together; they now take 0.8 us. Keys are
    unique; inserting an existing key overwrites.

    A stamped index also holds an integer stamp beside each value, unboxed,
    for callers that track recency ({!Plan_cache}'s LRU bound). Every entry
    also carries a float beside its value, unboxed in the value pool: the
    plan cache keeps each configuration's cost there, so an exact hit
    returns it without a boxed pair in the index. *)

type 'a t

(** [create ()] is an empty index. With [~stamped:true] each slot carries a
    stamp; otherwise every stamp reads as 0 and [stamp]/{!touch} are
    ignored, at no cost. *)
val create : ?stamped:bool -> unit -> 'a t
val size : 'a t -> int

(** [insert t key value] adds or overwrites, stamping the slot with [stamp]
    (default 0) and storing [cost] beside the value. *)
val insert : ?stamp:int -> cost:float -> 'a t -> float -> 'a -> unit

(** [find_exact t key] is the value at exactly [key]. *)
val find_exact : 'a t -> float -> 'a option

(** [find_costed t key] is the value at exactly [key] and the cost stored
    with it; the pair is the only allocation. *)
val find_costed : 'a t -> float -> ('a * float) option

(** [remove t key] deletes the entry at exactly [key], reporting whether one
    existed, by shifting the sorted arrays' tails; a later insert reuses the
    entry's pool slot. *)
val remove : 'a t -> float -> bool

(** [within t ~center ~radius] returns every [(key, value)] with
    [|key - center| <= radius], in ascending key order. *)
val within : 'a t -> center:float -> radius:float -> (float * 'a) list

(** [nearest t ~center ~radius] is the entry minimizing [|key - center|],
    provided that distance is at most [radius]; ties between equidistant
    neighbors go to the lower key. O(log n) — only the predecessor and
    successor of [center] are probed, never the whole radius band. *)
val nearest : 'a t -> center:float -> radius:float -> (float * 'a) option

(** [touch t key stamp] sets the stamp of the entry at exactly [key], if
    any. *)
val touch : 'a t -> float -> int -> unit

(** [oldest t] is the key with the smallest stamp, and that stamp (the
    lowest such key on ties); [None] when empty. *)
val oldest : 'a t -> (float * int) option

(** [pool_size t] is how many value-pool slots [t] has handed out: at most
    the largest size [t] has had, because removed entries' slots are reused
    (testing aid). *)
val pool_size : 'a t -> int

(** [to_list t] is all entries in ascending key order (testing aid). *)
val to_list : 'a t -> (float * 'a) list
