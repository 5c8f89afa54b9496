module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions
module Schema = Raqo_catalog.Schema
module Join_graph = Raqo_catalog.Join_graph
module Op_cost = Raqo_cost.Op_cost
module Plan_cache = Raqo_resource.Plan_cache
module D = Diagnostic

let names xs = String.concat " " xs

(* ----------------------------------------------------------------- trees *)

let check_shape ~schema ~expected tree =
  let leaves = Join_tree.relations tree in
  let sorted = List.sort compare leaves in
  let rec dups = function
    | a :: (b :: _ as rest) -> if a = b then a :: dups rest else dups rest
    | [ _ ] | [] -> []
  in
  let duplicated =
    List.map
      (fun r -> D.v ~invariant:"tree/duplicate-leaf" "relation %s appears more than once" r)
      (List.sort_uniq compare (dups sorted))
  in
  let expected_set = List.sort_uniq compare expected in
  let leaf_set = List.sort_uniq compare leaves in
  let missing =
    List.filter_map
      (fun r ->
        if List.mem r leaf_set then None
        else Some (D.v ~invariant:"tree/missing-leaf" "query relation %s has no leaf" r))
      expected_set
  in
  let extra =
    List.filter_map
      (fun r ->
        if List.mem r expected_set then None
        else Some (D.v ~invariant:"tree/extra-leaf" "leaf %s is not in the query" r))
      leaf_set
  in
  let unknown =
    List.filter_map
      (fun r ->
        if Schema.mem schema r then None
        else Some (D.v ~invariant:"tree/unknown-relation" "leaf %s is not in the schema" r))
      leaf_set
  in
  let graph = Schema.graph schema in
  let cartesian =
    Join_tree.fold_joins
      (fun acc _ left right ->
        if
          List.for_all (Schema.mem schema) (left @ right)
          && Join_graph.edges_between graph left right = []
        then
          D.v ~invariant:"tree/cartesian-join" "join [%s] x [%s] crosses no join edge"
            (names left) (names right)
          :: acc
        else acc)
      [] tree
  in
  duplicated @ missing @ extra @ unknown @ List.rev cartesian

(* ------------------------------------------------------------- resources *)

let check_resources ?(grid = false) ~conditions tree =
  let check acc (_, (r : Resources.t)) left right =
    let where = Printf.sprintf "join [%s] x [%s]" (names left) (names right) in
    let acc =
      if r.Resources.containers < conditions.Conditions.min_containers
         || r.Resources.containers > conditions.Conditions.max_containers
      then
        D.v ~invariant:"resources/containers-out-of-bounds" "%s: %d containers outside %d..%d"
          where r.Resources.containers conditions.Conditions.min_containers
          conditions.Conditions.max_containers
        :: acc
      else acc
    in
    let acc =
      if r.Resources.container_gb < conditions.Conditions.min_gb -. 1e-9
         || r.Resources.container_gb > conditions.Conditions.max_gb +. 1e-9
      then
        D.v ~invariant:"resources/memory-out-of-bounds" "%s: %.3f GB outside %.3f..%.3f"
          where r.Resources.container_gb conditions.Conditions.min_gb
          conditions.Conditions.max_gb
        :: acc
      else acc
    in
    if grid && not (Conditions.contains conditions r) then
      D.v ~invariant:"resources/off-grid" "%s: %s not on the condition grid" where
        (Resources.to_string r)
      :: acc
    else acc
  in
  List.rev (Join_tree.fold_joins check [] tree)

let check_bhj_memory ~model ~schema tree =
  let check acc (impl, resources) left right =
    match impl with
    | Join_impl.Smj -> acc
    | Join_impl.Bhj ->
        let small_gb =
          Float.min (Schema.join_size_gb schema left) (Schema.join_size_gb schema right)
        in
        if Option.is_some (Op_cost.predict model Join_impl.Bhj ~small_gb ~resources) then acc
        else
          D.v ~invariant:"resources/bhj-oom"
            "BHJ [%s] x [%s]: %.2f GB build side exceeds %.2f GB headroom of %s" (names left)
            (names right) small_gb
            (model.Op_cost.oom_headroom *. resources.Resources.container_gb)
            (Resources.to_string resources)
          :: acc
  in
  List.rev (Join_tree.fold_joins check [] tree)

(* ----------------------------------------------------------------- costs *)

let check_cost ?(what = "plan") cost =
  if not (Float.is_finite cost) then
    [ D.v ~invariant:"cost/non-finite" "%s cost is %f" what cost ]
  else if cost < 0.0 then [ D.v ~invariant:"cost/negative" "%s cost is %f" what cost ]
  else []

let check_joint ~model ~conditions ~schema ~expected (tree, cost) =
  check_shape ~schema ~expected tree
  @ check_resources ~conditions tree
  @ check_bhj_memory ~model ~schema tree
  @ check_cost cost

(* ---------------------------------------------------------------- pareto *)

let check_pareto ~objective ~describe items =
  let arr = Array.of_list items in
  let out = ref [] in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i <> j && Raqo_cost.Objective.dominates (objective a) (objective b) then
            out :=
              D.v ~invariant:"pareto/dominated" "%s is dominated by %s" (describe b)
                (describe a)
              :: !out)
        arr)
    arr;
  List.rev !out

(* ----------------------------------------------------------------- cache *)

let check_cache_lookup cache ~key ~data_gb lookup =
  let result = Plan_cache.find cache ~key ~data_gb lookup in
  let entries = Plan_cache.entries cache ~key in
  let label = Raqo_plan.Join_impl.to_string key.Plan_cache.impl in
  let dist k = Float.abs (k -. data_gb) in
  let in_radius radius = List.filter (fun (k, _) -> dist k <= radius) entries in
  let fail invariant fmt = D.v ~invariant fmt in
  match (lookup, result) with
  | Plan_cache.Exact, None ->
      if List.exists (fun (k, _) -> k = data_gb) entries then
        [ fail "cache/exact-missed" "%s: exact entry at %g not returned" label data_gb ]
      else []
  | Plan_cache.Exact, Some r ->
      if List.exists (fun (k, v) -> k = data_gb && Resources.equal v r) entries then []
      else
        [ fail "cache/exact-wrong" "%s: returned %s, no exact entry at %g matches" label
            (Resources.to_string r) data_gb ]
  | Plan_cache.Nearest_neighbor radius, None ->
      if in_radius radius = [] then []
      else [ fail "cache/nn-missed" "%s: entries within %g of %g but no answer" label radius data_gb ]
  | Plan_cache.Nearest_neighbor radius, Some r -> begin
      match in_radius radius with
      | [] ->
          [ fail "cache/nn-out-of-radius" "%s: answered %s with no entry within %g of %g" label
              (Resources.to_string r) radius data_gb ]
      | close ->
          let dmin = List.fold_left (fun acc (k, _) -> Float.min acc (dist k)) infinity close in
          if List.exists (fun (k, v) -> dist k = dmin && Resources.equal v r) close then []
          else
            [ fail "cache/nn-not-nearest" "%s: %s is not a nearest entry to %g (dmin %g)" label
                (Resources.to_string r) data_gb dmin ]
    end
  | Plan_cache.Weighted_average radius, None ->
      if in_radius radius = [] then []
      else [ fail "cache/wa-missed" "%s: entries within %g of %g but no answer" label radius data_gb ]
  | Plan_cache.Weighted_average radius, Some r -> begin
      match in_radius radius with
      | [] ->
          [ fail "cache/wa-out-of-radius" "%s: answered %s with no entry within %g of %g" label
              (Resources.to_string r) radius data_gb ]
      | close -> begin
          let eps = Plan_cache.exact_epsilon ~data_gb in
          match List.find_opt (fun (k, _) -> dist k <= eps) close with
          | Some (_, exact) ->
              if Resources.equal r exact then []
              else
                [ fail "cache/wa-not-exact" "%s: near-exact entry %s at %g, got %s" label
                    (Resources.to_string exact) data_gb (Resources.to_string r) ]
          | None ->
              (* The weighted average is a convex combination: every field must
                 lie inside the hull of the contributing entries (containers
                 rounded, and floored at 1 by [Resources.make]). *)
              let fold f init = List.fold_left (fun acc (_, v) -> f acc v) init close in
              let min_c = fold (fun a (v : Resources.t) -> min a v.containers) max_int in
              let max_c = fold (fun a (v : Resources.t) -> max a v.containers) min_int in
              let min_gb = fold (fun a (v : Resources.t) -> Float.min a v.container_gb) infinity in
              let max_gb =
                fold (fun a (v : Resources.t) -> Float.max a v.container_gb) neg_infinity
              in
              let ok_c = r.Resources.containers >= max 1 (min_c - 1) && r.Resources.containers <= max_c + 1 in
              let ok_gb =
                r.Resources.container_gb >= min_gb -. 1e-9
                && r.Resources.container_gb <= max_gb +. 1e-9
              in
              if ok_c && ok_gb then []
              else
                [ fail "cache/wa-outside-hull"
                    "%s: %s outside hull [%d..%d] x [%.3f..%.3f] of in-radius entries" label
                    (Resources.to_string r) min_c max_c min_gb max_gb ]
        end
    end
