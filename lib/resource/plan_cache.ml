module Resources = Raqo_cluster.Resources

type key = {
  model : Raqo_cost.Op_cost.t;
  conditions : Raqo_cluster.Conditions.t;
  impl : Raqo_plan.Join_impl.t;
}

type lookup = Exact | Nearest_neighbor of float | Weighted_average of float

(* A handful of keys (two implementations per model and conditions in
   play), so a linear scan over a short array finds an index. Recency is
   kept only for bounded caches: a monotone clock stamped into the touched
   index slot, beside its configuration. Eviction scans the indexes for the
   oldest stamp — O(size), which the batch and server bounds keep small —
   and unbounded caches (the paper's behaviour) never stamp. *)
module Configs = Hashtbl.Make (struct
  type t = Resources.t

  let equal = Resources.equal
  let hash = Hashtbl.hash
end)

(* Entries far outnumber the configurations they hold (a grid has at most
   a few thousand cells, and most searches end on a handful of them), so
   [configs] keeps one copy of each configuration stored, shared by every
   entry that holds it. Evicted configurations stay: at most one per grid
   cell seen. *)
type t = {
  mutable slots : (key * Resources.t Ordered_index.t) array;
  capacity : int option;
  mutable clock : int;
  configs : Resources.t Configs.t;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Plan_cache.create: capacity must be >= 1"
  | Some _ | None -> ());
  { slots = [||]; capacity; clock = 0; configs = Configs.create 64 }

(* The slot holding the key with these fields, or -1. A loop, not a local
   closure: an exact hit allocates only its answer. *)
let slot_of t ~model ~conditions ~impl =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length t.slots do
    let k = fst t.slots.(!i) in
    if k.model == model && k.conditions == conditions && k.impl == impl then found := !i;
    incr i
  done;
  !found

let slot t key = slot_of t ~model:key.model ~conditions:key.conditions ~impl:key.impl

let touch t idx data_gb =
  match t.capacity with
  | None -> ()
  | Some _ ->
      t.clock <- t.clock + 1;
      Ordered_index.touch idx data_gb t.clock

(* Two data characteristics closer than this are the same measurement: the
   sizes flowing in here are products of float cardinality estimates, so keys
   that should be equal often differ in the last few ulps. *)
let exact_epsilon ~data_gb = 1e-9 *. Float.max 1.0 (Float.abs data_gb)

(* The entry at exactly [data_gb] and its stored cost. *)
let find_costed t idx ~data_gb =
  let found = Ordered_index.find_costed idx data_gb in
  if Option.is_some found then touch t idx data_gb;
  found

(* Lookups touch every entry they consult, so an entry that keeps answering
   nearest-neighbor or weighted-average probes stays warm even if its exact
   key is never queried. *)
let find_in_index t idx ~data_gb lookup =
  match lookup with
  | Exact -> Option.map fst (find_costed t idx ~data_gb)
  | Nearest_neighbor threshold -> begin
      (* Predecessor/successor probes, not a linear fold over the whole
         radius band; same answer, ties to the lower key either way. *)
      match Ordered_index.nearest idx ~center:data_gb ~radius:threshold with
      | Some (k, plan) ->
          touch t idx k;
          Some plan
      | None -> None
    end
  | Weighted_average threshold -> begin
      match Ordered_index.within idx ~center:data_gb ~radius:threshold with
      | [] -> None
      | close ->
          List.iter (fun (k, _) -> touch t idx k) close;
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

let record_lookup counters found =
  match counters with
  | Some k -> if found then Counters.record_hit k else Counters.record_miss k
  | None -> ()

let find ?counters t ~key ~data_gb lookup =
  let result =
    match slot t key with
    | -1 -> None
    | i -> find_in_index t (snd t.slots.(i)) ~data_gb lookup
  in
  record_lookup counters (Option.is_some result);
  result

let find_exact t ~model ~conditions ~impl ~data_gb =
  match slot_of t ~model ~conditions ~impl with
  | -1 -> None
  | i -> find_costed t (snd t.slots.(i)) ~data_gb

let size t = Array.fold_left (fun acc (_, idx) -> acc + Ordered_index.size idx) 0 t.slots

(* Drop the least-recently-touched entry, and its key once emptied. *)
let evict_lru ?counters t =
  let victim =
    Array.fold_left
      (fun best (_, idx) ->
        match (Ordered_index.oldest idx, best) with
        | Some (_, stamp), Some (_, _, s) when stamp >= s -> best
        | Some (data_gb, stamp), _ -> Some (idx, data_gb, stamp)
        | None, _ -> best)
      None t.slots
  in
  match victim with
  | None -> ()
  | Some (idx, data_gb, _) ->
      ignore (Ordered_index.remove idx data_gb);
      if Ordered_index.size idx = 0 then
        t.slots <- Array.of_list (List.filter (fun (_, i) -> i != idx) (Array.to_list t.slots));
      (match counters with Some k -> Counters.record_eviction k | None -> ())

let insert ?counters ~cost t ~key ~data_gb resources =
  let idx =
    match slot t key with
    | -1 ->
        let idx = Ordered_index.create ~stamped:(Option.is_some t.capacity) () in
        t.slots <- Array.append t.slots [| (key, idx) |];
        idx
    | i -> snd t.slots.(i)
  in
  let resources =
    match Configs.find_opt t.configs resources with
    | Some shared -> shared
    | None ->
        Configs.add t.configs resources resources;
        resources
  in
  match t.capacity with
  | None -> Ordered_index.insert ~cost idx data_gb resources
  | Some cap ->
      t.clock <- t.clock + 1;
      Ordered_index.insert ~stamp:t.clock ~cost idx data_gb resources;
      while size t > cap do
        evict_lru ?counters t
      done

let clear t =
  t.slots <- [||];
  Configs.reset t.configs;
  t.clock <- 0

let keys t = Array.to_list (Array.map fst t.slots)

let entries t ~key =
  match slot t key with
  | -1 -> []
  | i -> Ordered_index.to_list (snd t.slots.(i))
