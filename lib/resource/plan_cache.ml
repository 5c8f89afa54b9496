module Resources = Raqo_cluster.Resources

type lookup = Exact | Nearest_neighbor of float | Weighted_average of float

(* LRU bookkeeping is engaged only for capacity-bounded caches: unbounded
   caches (the default, the paper's behaviour) skip every stamp update, so
   the hot lookup path is unchanged. Recency is a monotone clock stamped per
   touch; eviction scans the stamp table for the minimum — O(size) per
   eviction, which is fine at the small capacities batch runs bound
   themselves to, and keeps the sorted indexes free of intrusive links. *)
type t = {
  indexes : (string, Resources.t Ordered_index.t) Hashtbl.t;
  capacity : int option;
  stamps : (string * float, int) Hashtbl.t;
  mutable clock : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Plan_cache.create: capacity must be >= 1"
  | Some _ | None -> ());
  { indexes = Hashtbl.create 16; capacity; stamps = Hashtbl.create 16; clock = 0 }

let capacity t = t.capacity

let touch t key data_gb =
  match t.capacity with
  | None -> ()
  | Some _ ->
      t.clock <- t.clock + 1;
      Hashtbl.replace t.stamps (key, data_gb) t.clock

(* Two data characteristics closer than this are the same measurement: the
   sizes flowing in here are products of float cardinality estimates, so keys
   that should be equal often differ in the last few ulps. *)
let exact_epsilon ~data_gb = 1e-9 *. Float.max 1.0 (Float.abs data_gb)

(* Lookups report which stored entries they consulted (by stored key) so a
   bounded cache can refresh their recency: an entry that keeps answering
   nearest-neighbor or weighted-average probes is warm even if its exact key
   is never queried. *)
let find_in_index idx ~key ~data_gb lookup touch_entry =
  match lookup with
  | Exact -> begin
      match Ordered_index.find_exact idx data_gb with
      | Some plan ->
          touch_entry key data_gb;
          Some plan
      | None -> None
    end
  | Nearest_neighbor threshold -> begin
      (* Predecessor/successor probes, not a linear fold over the whole
         radius band; same answer, ties to the lower key either way. *)
      match Ordered_index.nearest idx ~center:data_gb ~radius:threshold with
      | Some (k, plan) ->
          touch_entry key k;
          Some plan
      | None -> None
    end
  | Weighted_average threshold -> begin
      match Ordered_index.within idx ~center:data_gb ~radius:threshold with
      | [] -> None
      | close ->
          List.iter (fun (k, _) -> touch_entry key k) close;
          (* Inverse-distance weights; a (near-)exact entry wins outright.
             The epsilon guard matters: a key float-unequal to [data_gb] by a
             few ulps would otherwise get weight 1/d with d near 0, swamping
             every other entry (and overflowing to inf/nan on denormal
             distances, which poisons the whole average). *)
          let eps = exact_epsilon ~data_gb in
          let exact = List.find_opt (fun (k, _) -> Float.abs (k -. data_gb) <= eps) close in
          (match exact with
          | Some (_, plan) -> Some plan
          | None ->
              let wsum = ref 0.0 and c = ref 0.0 and gb = ref 0.0 in
              List.iter
                (fun (k, (plan : Resources.t)) ->
                  let w = 1.0 /. Float.max eps (Float.abs (k -. data_gb)) in
                  wsum := !wsum +. w;
                  c := !c +. (w *. float_of_int plan.containers);
                  gb := !gb +. (w *. plan.container_gb))
                close;
              Some
                (Resources.make
                   ~containers:(max 1 (int_of_float (Float.round (!c /. !wsum))))
                   ~container_gb:(!gb /. !wsum)))
    end

let find ?counters t ~key ~data_gb lookup =
  let result =
    match Hashtbl.find_opt t.indexes key with
    | None -> None
    | Some idx -> find_in_index idx ~key ~data_gb lookup (touch t)
  in
  (match counters with
  | Some k -> begin
      match result with
      | Some _ -> Counters.record_hit k
      | None -> Counters.record_miss k
    end
  | None -> ());
  result

let size t = Hashtbl.fold (fun _ idx acc -> acc + Ordered_index.size idx) t.indexes 0

(* Drop the least-recently-touched entry. The stamp table is authoritative
   for bounded caches: every insert stamps, so every resident entry has a
   stamp. *)
let evict_lru ?counters t =
  let victim =
    Hashtbl.fold
      (fun entry stamp best ->
        match best with
        | Some (_, s) when s <= stamp -> best
        | Some _ | None -> Some (entry, stamp))
      t.stamps None
  in
  match victim with
  | None -> ()
  | Some (((key, data_gb) as entry), _) ->
      Hashtbl.remove t.stamps entry;
      (match Hashtbl.find_opt t.indexes key with
      | None -> ()
      | Some idx ->
          ignore (Ordered_index.remove idx data_gb);
          if Ordered_index.size idx = 0 then Hashtbl.remove t.indexes key);
      (match counters with Some k -> Counters.record_eviction k | None -> ())

let insert ?counters t ~key ~data_gb resources =
  let idx =
    match Hashtbl.find_opt t.indexes key with
    | Some idx -> idx
    | None ->
        let idx = Ordered_index.create () in
        Hashtbl.add t.indexes key idx;
        idx
  in
  Ordered_index.insert idx data_gb resources;
  touch t key data_gb;
  match t.capacity with
  | None -> ()
  | Some cap ->
      while size t > cap do
        evict_lru ?counters t
      done

let clear t =
  Hashtbl.reset t.indexes;
  Hashtbl.reset t.stamps;
  t.clock <- 0

let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.indexes [])

let entries t ~key =
  match Hashtbl.find_opt t.indexes key with
  | None -> []
  | Some idx -> Ordered_index.to_list idx
