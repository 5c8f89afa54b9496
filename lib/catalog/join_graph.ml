type edge = { left : string; right : string; selectivity : float }

(* Unordered pair key, stored with the lower name first: comparing two keys
   is at most two [String.compare]s and allocates nothing. *)
module Pair = struct
  type t = string * string

  let normalize a b = if String.compare a b <= 0 then (a, b) else (b, a)

  let compare (a, b) (c, d) =
    let first = String.compare a c in
    if first <> 0 then first else String.compare b d
end

module Pair_map = Map.Make (Pair)
module String_map = Map.Make (String)

type t = {
  edge_list : edge list;
  by_pair : float Pair_map.t;
  peers : (string * float) list String_map.t;  (** per relation, in edge-list order *)
}

let make edges =
  let by_pair =
    List.fold_left
      (fun acc e ->
        if e.left = e.right then invalid_arg "Join_graph.make: self-edge";
        if e.selectivity <= 0.0 || e.selectivity > 1.0 then
          invalid_arg "Join_graph.make: selectivity out of (0,1]";
        let key = Pair.normalize e.left e.right in
        if Pair_map.mem key acc then invalid_arg "Join_graph.make: duplicate edge";
        Pair_map.add key e.selectivity acc)
      Pair_map.empty edges
  in
  let add name peer acc =
    String_map.update name
      (fun l -> Some (peer :: Option.value l ~default:[]))
      acc
  in
  let peers =
    List.fold_right
      (fun e acc ->
        add e.left (e.right, e.selectivity) (add e.right (e.left, e.selectivity) acc))
      edges String_map.empty
  in
  { edge_list = edges; by_pair; peers }

let edges t = t.edge_list
let selectivity t a b = Pair_map.find_opt (Pair.normalize a b) t.by_pair
let peers t a = Option.value (String_map.find_opt a t.peers) ~default:[]
let neighbors t a = List.map fst (peers t a)

let edges_between t xs ys =
  let in_list l name = List.mem name l in
  List.filter
    (fun e ->
      (in_list xs e.left && in_list ys e.right)
      || (in_list xs e.right && in_list ys e.left))
    t.edge_list

let connected t names =
  match names with
  | [] -> true
  | first :: _ ->
      let module S = Set.Make (String) in
      let universe = S.of_list names in
      let rec grow frontier seen =
        if S.is_empty frontier then seen
        else begin
          let next =
            S.fold
              (fun name acc ->
                List.fold_left
                  (fun acc n ->
                    if S.mem n universe && not (S.mem n seen) then S.add n acc else acc)
                  acc (neighbors t name))
              frontier S.empty
          in
          grow next (S.union seen next)
        end
      in
      let start = S.singleton first in
      S.equal (grow start start) universe
