(** Ordered float-keyed index for the resource-plan cache.

    The paper's prototype "keeps a sorted array of keys, with automatic
    resizing ... and binary search for lookup"; this is that array. The
    paper's CSB+-tree alternative for larger workloads is not provided. A
    fresh optimizer's index grows to thousands of entries per key, and each
    insert shifts the array's tail (one write barrier per moved value): on
    the join-large benchmark inserts take about 15 ms per request, more than
    all the hill climbs together. Keys are unique; inserting an existing key
    overwrites.

    A stamped index also holds an integer stamp beside each value, unboxed,
    for callers that track recency ({!Plan_cache}'s LRU bound). *)

type 'a t

(** [create ()] is an empty index. With [~stamped:true] each slot carries a
    stamp; otherwise every stamp reads as 0 and [stamp]/{!touch} are
    ignored, at no cost. *)
val create : ?stamped:bool -> unit -> 'a t
val size : 'a t -> int

(** [insert t key value] adds or overwrites, stamping the slot with [stamp]
    (default 0). *)
val insert : ?stamp:int -> 'a t -> float -> 'a -> unit

(** [find_exact t key] is the value at exactly [key]. *)
val find_exact : 'a t -> float -> 'a option

(** [remove t key] deletes the entry at exactly [key], reporting whether one
    existed, by shifting the array's tail. *)
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

(** [to_list t] is all entries in ascending key order (testing aid). *)
val to_list : 'a t -> (float * 'a) list
