module String_map = Map.Make (String)

type t = {
  relations : Relation.t list;
  by_name : Relation.t String_map.t;
  graph : Join_graph.t;
}

let make relations graph =
  let by_name =
    List.fold_left
      (fun acc (r : Relation.t) ->
        if String_map.mem r.name acc then
          invalid_arg ("Schema.make: duplicate relation " ^ r.name);
        String_map.add r.name r acc)
      String_map.empty relations
  in
  List.iter
    (fun (e : Join_graph.edge) ->
      if not (String_map.mem e.left by_name) then
        invalid_arg ("Schema.make: edge references unknown relation " ^ e.left);
      if not (String_map.mem e.right by_name) then
        invalid_arg ("Schema.make: edge references unknown relation " ^ e.right))
    (Join_graph.edges graph);
  { relations; by_name; graph }

let relations t = t.relations
let graph t = t.graph

let find t name =
  match String_map.find_opt name t.by_name with
  | Some r -> r
  | None -> raise Not_found

let mem t name = String_map.mem name t.by_name
let relation_names t = List.map (fun (r : Relation.t) -> r.name) t.relations

let with_relation t (r : Relation.t) =
  if not (mem t r.name) then invalid_arg ("Schema.with_relation: unknown " ^ r.name);
  let relations =
    List.map (fun (old : Relation.t) -> if old.name = r.name then r else old) t.relations
  in
  { t with relations; by_name = String_map.add r.name r t.by_name }

(* Log of the product of internal edge selectivities: each unordered pair
   counted once. Log space keeps 100-way joins finite — the raw product of
   cardinalities overflows a float around 40 relations.

   The sum is [here.(0) +. (here.(1) +. (... +. here.(k-1)))], where
   [here.(i)] folds [log s] over the members after position [i] that join
   with it, in list order. Position [j] hands its term to each earlier peer
   as [j] ascends, so every [here.(i)] adds the same terms in the same order
   as a nested fold over the list, at O(k + edges) lookups instead of
   O(k^2). A repeated name has one position per occurrence. *)
let log_internal_selectivity t names =
  let names = Array.of_list names in
  let k = Array.length names in
  let here = Array.make k 0.0 in
  let earlier = Hashtbl.create k in
  Array.iteri
    (fun j y ->
      List.iter
        (fun (x, s) ->
          List.iter (fun i -> here.(i) <- here.(i) +. log s) (Hashtbl.find_all earlier x))
        (Join_graph.peers t.graph y);
      Hashtbl.add earlier y j)
    names;
  let total = ref 0.0 in
  for i = k - 1 downto 0 do
    total := here.(i) +. !total
  done;
  !total

let join_rows t names =
  match names with
  | [] -> invalid_arg "Schema.join_rows: empty set"
  | _ ->
      let log_base =
        List.fold_left (fun acc name -> acc +. log (find t name).rows) 0.0 names
      in
      let log_rows = log_base +. log_internal_selectivity t names in
      (* exp overflows past ~709; cap at a huge finite estimate. *)
      if log_rows > 700.0 then 1e304 else Float.max 1.0 (exp log_rows)

let join_row_bytes t names =
  List.fold_left (fun acc name -> acc +. (find t name).row_bytes) 0.0 names

let join_size_gb t names =
  Raqo_util.Units.gb_of_bytes (join_rows t names *. join_row_bytes t names)

let joinable t names = Join_graph.connected t.graph names
