(** Ordered float-keyed index for the resource-plan cache.

    The paper's prototype "keeps a sorted array of keys, with automatic
    resizing ... and binary search for lookup"; this is that array. The
    paper's CSB+-tree alternative for larger workloads is not provided: a
    plan cache holds at most a few thousand entries, where the array's
    shifting inserts cost well under 1% of a request. Keys are unique;
    inserting an existing key overwrites. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int

(** [insert t key value] adds or overwrites. *)
val insert : 'a t -> float -> 'a -> unit

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

(** [to_list t] is all entries in ascending key order (testing aid). *)
val to_list : 'a t -> (float * 'a) list
