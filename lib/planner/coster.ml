module Join_impl = Raqo_plan.Join_impl
module Join_tree = Raqo_plan.Join_tree
module Schema = Raqo_catalog.Schema
module Op_cost = Raqo_cost.Op_cost

type choice = {
  impl : Join_impl.t;
  resources : Raqo_cluster.Resources.t;
  cost : float;
}

type t = {
  best_join : left:string list -> right:string list -> choice option;
  name : string;
}

type shape = unit Join_tree.t

let shape_of tree = Join_tree.map_annot (fun _ -> ()) tree

let cost_tree t shape =
  let exception Infeasible in
  let total = ref 0.0 in
  let annotate () left right =
    match t.best_join ~left ~right with
    | Some { impl; resources; cost } ->
        total := !total +. cost;
        (impl, resources)
    | None -> raise Infeasible
  in
  match Join_tree.map_joins annotate shape with
  | annotated -> Some (annotated, !total)
  | exception Infeasible -> None

let pick_cheaper a b =
  match (a, b) with
  | Some x, Some y -> if x.cost <= y.cost then Some x else Some y
  | (Some _ as x), None | None, (Some _ as x) -> x
  | None, None -> None

let finite_choice impl resources cost =
  if Float.is_finite cost then Some { impl; resources; cost } else None

(* Randomized planners re-cost near-identical subtrees thousands of times;
   cache intermediate-result sizes per relation set (statistics caching,
   as production optimizers do). On join-large's randomized queries above
   62 relations, the sort+concat key is now the larger cost: about 0.7-1 us
   per call against 8 us per miss ([Schema.join_size_gb] is linear in the
   set and its join edges), with about 37 calls per miss. *)
let memoized_size schema =
  let sizes = Hashtbl.create 512 in
  fun names ->
    let key = String.concat "\x00" (List.sort compare names) in
    match Hashtbl.find_opt sizes key with
    | Some s -> s
    | None ->
        let s = Schema.join_size_gb schema names in
        Hashtbl.add sizes key s;
        s

let fixed model schema resources =
  let size = memoized_size schema in
  let best_join ~left ~right =
    let small_gb = Float.min (size left) (size right) in
    List.fold_left
      (fun best impl ->
        let cost = Op_cost.predict_exn model impl ~small_gb ~resources in
        pick_cheaper best (finite_choice impl resources cost))
      None Join_impl.all
  in
  { best_join; name = "qo-fixed-resources" }

(* One join's best (implementation, resources) pair: resource-plan each
   implementation, keep the cheapest feasible one (SMJ on ties). *)
let best_choice model planner ~small_gb =
  List.fold_left
    (fun best impl ->
      match Raqo_resource.Resource_planner.plan planner ~model ~impl ~small_gb with
      | None -> best
      | Some (resources, cost) -> pick_cheaper best (finite_choice impl resources cost))
    None Join_impl.all

let raqo model schema planner =
  let size = memoized_size schema in
  let best_join ~left ~right =
    best_choice model planner ~small_gb:(Float.min (size left) (size right))
  in
  { best_join; name = "raqo" }

let counting inner =
  let count = ref 0 in
  let best_join ~left ~right =
    incr count;
    inner.best_join ~left ~right
  in
  ({ best_join; name = inner.name }, fun () -> !count)

let simulator engine schema resources =
  let size = memoized_size schema in
  let best_join ~left ~right =
    let l = size left and r = size right in
    let small_gb, big_gb = if l <= r then (l, r) else (r, l) in
    match Raqo_execsim.Operators.best_impl engine ~small_gb ~big_gb ~resources with
    | Some (impl, cost) -> Some { impl; resources; cost }
    | None -> None
  in
  { best_join; name = "simulator-ground-truth" }

(* ------------------------------------------------------------------ *)
(* Mask-based costers: the same seam keyed on interned relation masks.
   Field names are distinct from [t]'s so both records coexist in one
   scope without shadowing. *)

module Interned = Raqo_catalog.Interned

type masked = {
  best_join_masked : left:int -> right:int -> choice option;
  masked_name : string;
}

let of_strings ctx t =
  (* Memoize mask -> names: the DP hot path asks for the same subsets over
     and over, and list reconstruction is what interning exists to avoid. *)
  let names = Hashtbl.create 256 in
  let names_of mask =
    match Hashtbl.find_opt names mask with
    | Some l -> l
    | None ->
        let l = Interned.names_of_mask ctx mask in
        Hashtbl.add names mask l;
        l
  in
  let best_join_masked ~left ~right =
    t.best_join ~left:(names_of left) ~right:(names_of right)
  in
  { best_join_masked; masked_name = t.name }

let to_strings ctx m =
  let best_join ~left ~right =
    m.best_join_masked
      ~left:(Interned.mask_of_names ctx left)
      ~right:(Interned.mask_of_names ctx right)
  in
  { best_join; name = m.masked_name }

(* Statistics cache keyed on the subset mask — one Hashtbl probe on an int
   instead of sort + concat over the relation names; a miss reads the
   context's precomputed statistics instead of the schema's maps. *)
let memoized_size_masked ctx =
  let sizes = Hashtbl.create 512 in
  fun mask ->
    match Hashtbl.find_opt sizes mask with
    | Some s -> s
    | None ->
        let s = Interned.join_size_gb ctx mask in
        Hashtbl.add sizes mask s;
        s

let fixed_masked model ctx resources =
  let size = memoized_size_masked ctx in
  let best_join_masked ~left ~right =
    let small_gb = Float.min (size left) (size right) in
    List.fold_left
      (fun best impl ->
        let cost = Op_cost.predict_exn model impl ~small_gb ~resources in
        pick_cheaper best (finite_choice impl resources cost))
      None Join_impl.all
  in
  { best_join_masked; masked_name = "qo-fixed-resources" }

let raqo_masked model ctx planner =
  let size = memoized_size_masked ctx in
  let best_join_masked ~left ~right =
    best_choice model planner ~small_gb:(Float.min (size left) (size right))
  in
  { best_join_masked; masked_name = "raqo" }

let counting_masked inner =
  let count = ref 0 in
  let best_join_masked ~left ~right =
    incr count;
    inner.best_join_masked ~left ~right
  in
  ({ best_join_masked; masked_name = inner.masked_name }, fun () -> !count)

(* Mirrors [cost_tree]'s pinned left-then-right post-order, so effectful
   costers (counting, fault injectors) observe identical invocation
   sequences — including where an infeasible join aborts the walk. *)
let cost_tree_masked m ctx shape =
  let exception Infeasible in
  let total = ref 0.0 in
  let rec go = function
    | Join_tree.Scan name -> (Join_tree.Scan name, Interned.mask_of_name ctx name)
    | Join_tree.Join ((), l, r) -> (
        let l', lm = go l in
        let r', rm = go r in
        match m.best_join_masked ~left:lm ~right:rm with
        | Some { impl; resources; cost } ->
            total := !total +. cost;
            (Join_tree.Join ((impl, resources), l', r'), lm lor rm)
        | None -> raise Infeasible)
  in
  match go shape with
  | annotated, _mask -> Some (annotated, !total)
  | exception Infeasible -> None
