(* Dense relation ids for one query, fixed at admission: id = position in the
   relation list, so every mask-based planner enumerates subsets in exactly
   the order the string-based planners enumerate name lists. The structure is
   immutable after [make]; per-coster memo tables live in the costers, which
   keeps one context shareable across domains. *)

type t = {
  schema : Schema.t;
  rels : string array;  (* id -> name, in caller list order *)
  index : (string, int) Hashtbl.t;
  n : int;
  adj : int array;  (* adj.(i) = mask of peers of relation i within the query *)
  (* Size statistics for [join_size_gb], read from [schema] once: *)
  log_rows : float array;  (* log rows of relation i *)
  row_bytes : float array;
  log_sel : float array;  (* log selectivity of edge (i, j) at i * n + j, if adjacent *)
}

let max_relations = 62 (* masks must fit a native OCaml int *)

let make schema relations =
  let rels = Array.of_list relations in
  let n = Array.length rels in
  if n = 0 then invalid_arg "Interned.make: empty relation set";
  if n > max_relations then invalid_arg "Interned.make: more than 62 relations";
  Array.iter
    (fun r -> if not (Schema.mem schema r) then invalid_arg ("Interned.make: unknown " ^ r))
    rels;
  let index = Hashtbl.create (2 * n) in
  (* Duplicate names are tolerated (the string planners never rejected them):
     each occurrence keeps its own id and joins every peer of its name;
     lookups resolve to the first, the binding added last. *)
  for i = n - 1 downto 0 do
    Hashtbl.add index rels.(i) i
  done;
  (* Edges from each relation's join peers: O(n * degree), where looking up
     every pair of positions was O(n^2). *)
  let graph = Schema.graph schema in
  let adj = Array.make n 0 and log_sel = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    List.iter
      (fun (peer, s) ->
        List.iter
          (fun j ->
            adj.(i) <- adj.(i) lor (1 lsl j);
            log_sel.((i * n) + j) <- log s)
          (Hashtbl.find_all index peer))
      (Join_graph.peers graph rels.(i))
  done;
  let rel i = Schema.find schema rels.(i) in
  let log_rows = Array.init n (fun i -> log (rel i).Relation.rows) in
  let row_bytes = Array.init n (fun i -> (rel i).Relation.row_bytes) in
  { schema; rels; index; n; adj; log_rows; row_bytes; log_sel }

let schema t = t.schema
let n t = t.n
let name t i = t.rels.(i)
let relations t = Array.to_list t.rels
let adj t = t.adj
let log_selectivity t i j = t.log_sel.((i * t.n) + j)
let full_mask t = (1 lsl t.n) - 1

let id_of_name t r =
  match Hashtbl.find_opt t.index r with
  | Some i -> i
  | None -> invalid_arg ("Interned.id_of_name: unknown " ^ r)

let mask_of_name t r = 1 lsl id_of_name t r

let mask_of_names t names =
  List.fold_left (fun mask r -> mask lor mask_of_name t r) 0 names

(* Ascending id order — the same order the string planners' [names_of]
   produced, so shimmed costers see byte-identical argument lists. *)
let names_of_mask t mask =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if mask land (1 lsl i) <> 0 then t.rels.(i) :: acc else acc)
  in
  go (t.n - 1) []

(* [Schema.join_size_gb] over [names_of_mask t mask], from the arrays built
   at [make]: the same doubles combined in the same order, so the result is
   bit-identical. [Schema.join_rows] left-folds [log rows] over the members
   in ascending id order, then adds the pair term, a right fold
   [here_i +. (here_next +. (... +. 0.))] where [here_i] left-folds the log
   selectivities of the edges from member i to the later members. *)
let join_size_gb t mask =
  if mask = 0 then invalid_arg "Interned.join_size_gb: empty mask";
  let n = t.n in
  let log_base = ref 0.0 and bytes = ref 0.0 in
  for i = 0 to n - 1 do
    if mask land (1 lsl i) <> 0 then begin
      log_base := !log_base +. t.log_rows.(i);
      bytes := !bytes +. t.row_bytes.(i)
    end
  done;
  let log_sel = ref 0.0 in
  for i = n - 1 downto 0 do
    if mask land (1 lsl i) <> 0 then begin
      (* Later peers only, ascending; the scan stops past the last one. *)
      let later = ref ((t.adj.(i) land mask) lsr (i + 1)) and j = ref (i + 1) in
      let here = ref 0.0 in
      while !later <> 0 do
        if !later land 1 <> 0 then here := !here +. t.log_sel.((i * n) + !j);
        later := !later lsr 1;
        incr j
      done;
      log_sel := !here +. !log_sel
    end
  done;
  let log_rows = !log_base +. !log_sel in
  (* Schema.join_rows's cap: exp overflows past ~709. *)
  let rows = if log_rows > 700.0 then 1e304 else Float.max 1.0 (exp log_rows) in
  Raqo_util.Units.gb_of_bytes (rows *. !bytes)

(* ---- subset enumeration helpers -----------------------------------------
   Pure bit manipulation for exhaustive shape enumeration. Its descending
   split order is also the order DPsub issues its connected splits in. *)

let fold_splits mask ~init ~f =
  (* Canonical proper splits of [mask]: [sub] keeps the lowest set bit (so
     each unordered {sub, rest} pair appears exactly once) and [rest] is the
     non-empty complement. Submasks are visited in descending numeric order —
     the order the planners' historical inline loops used, which their
     first-wins tie-breaks depend on. *)
  if mask = 0 then invalid_arg "Interned.fold_splits: empty mask";
  let low = mask land -mask in
  let acc = ref init in
  let sub = ref ((mask - 1) land mask) in
  while !sub <> 0 do
    if !sub land low <> 0 then acc := f !acc ~sub:!sub ~rest:(mask lxor !sub);
    sub := (!sub - 1) land mask
  done;
  !acc

let connected t mask =
  if mask = 0 then false
  else begin
    let seed = mask land -mask in
    let reach = ref seed in
    let frontier = ref seed in
    while !frontier <> 0 do
      let next = ref 0 in
      for i = 0 to t.n - 1 do
        if !frontier land (1 lsl i) <> 0 then next := !next lor (t.adj.(i) land mask)
      done;
      frontier := !next land lnot !reach;
      reach := !reach lor !next
    done;
    !reach = mask
  end
