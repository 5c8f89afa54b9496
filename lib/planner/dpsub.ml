module Join_tree = Raqo_plan.Join_tree
module Schema = Raqo_catalog.Schema
module Interned = Raqo_catalog.Interned

(* Connectivity tables are 2^n bytes and the DP is O(3^n): 20 relations
   (Selinger's cap) is where both stay interactive on sparse join graphs. *)
let max_relations = 20

let validate schema relations =
  let n = List.length relations in
  if n = 0 then invalid_arg "Dpsub.optimize: empty relation set";
  if n > max_relations then invalid_arg "Dpsub.optimize: too many relations for bushy DP";
  List.iter
    (fun r -> if not (Schema.mem schema r) then invalid_arg ("Dpsub.optimize: unknown " ^ r))
    relations

let m_expansions = Raqo_obs.Metrics.counter "raqo_dpsub_expansions_total"

(* The reference bushy DP over string lists, kept verbatim as the
   differential-oracle baseline for the mask-based core below. *)
let optimize_reference (coster : Coster.t) schema relations =
  validate schema relations;
  let span = Raqo_obs.Trace.start "dpsub/dp-reference" in
  let n = List.length relations in
  let rels = Array.of_list relations in
  let graph = Schema.graph schema in
  (* Adjacency bitmasks: adj.(i) = peers of relation i within the query. *)
  let adj =
    Array.init n (fun i ->
        let mask = ref 0 in
        for j = 0 to n - 1 do
          if
            i <> j
            && Option.is_some (Raqo_catalog.Join_graph.selectivity graph rels.(i) rels.(j))
          then mask := !mask lor (1 lsl j)
        done;
        !mask)
  in
  let size = 1 lsl n in
  (* Connectivity of a subset, by BFS over bitmasks. *)
  let connected = Array.make size false in
  for mask = 1 to size - 1 do
    let seed = mask land -mask in
    let reach = ref seed in
    let frontier = ref seed in
    while !frontier <> 0 do
      let next = ref 0 in
      for i = 0 to n - 1 do
        if !frontier land (1 lsl i) <> 0 then next := !next lor (adj.(i) land mask)
      done;
      frontier := !next land lnot !reach;
      reach := !reach lor !next
    done;
    connected.(mask) <- !reach = mask
  done;
  let names_of mask =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (if mask land (1 lsl i) <> 0 then rels.(i) :: acc else acc)
    in
    go (n - 1) []
  in
  let crossing_edge a b =
    let rec any i =
      i < n
      && ((a land (1 lsl i) <> 0 && adj.(i) land b <> 0) || any (i + 1))
    in
    any 0
  in
  let best : (Join_tree.joint * float) option array = Array.make size None in
  for i = 0 to n - 1 do
    best.(1 lsl i) <- Some (Join_tree.Scan rels.(i), 0.0)
  done;
  for mask = 1 to size - 1 do
    if connected.(mask) && best.(mask) = None then begin
      (* Enumerate proper submasks containing the lowest bit (each unordered
         split once); the costers order build/probe sides by size, so
         mirrored splits cost the same. *)
      let low = mask land -mask in
      let sub = ref ((mask - 1) land mask) in
      while !sub <> 0 do
        let rest = mask lxor !sub in
        if
          !sub land low <> 0 && rest <> 0 && connected.(!sub) && connected.(rest)
          && crossing_edge !sub rest
        then begin
          match (best.(!sub), best.(rest)) with
          | Some (lt, lc), Some (rt, rc) -> begin
              match coster.Coster.best_join ~left:(names_of !sub) ~right:(names_of rest) with
              | Some { impl; resources; cost } ->
                  let total = lc +. rc +. cost in
                  let better =
                    match best.(mask) with
                    | Some (_, c) -> total < c
                    | None -> true
                  in
                  if better then
                    best.(mask) <- Some (Join_tree.Join ((impl, resources), lt, rt), total)
              | None -> ()
            end
          | None, _ | _, None -> ()
        end;
        sub := (!sub - 1) land mask
      done
    end
  done;
  Raqo_obs.Trace.finish span;
  best.(size - 1)

(* Connectivity of every subset for the mask core. nb.(mask) = union of
   adjacency over the members of [mask], tabulated in one O(2^n) pass;
   connected subsets are then marked by forward expansion instead of a
   per-mask BFS: a set is connected iff it is a singleton or a smaller
   connected set plus one adjacent relation (drop a spanning-tree leaf), and
   that smaller set is numerically below it, so one ascending sweep marks
   every superset before visiting it. Identical table to the reference's
   BFS. *)
let connectivity ctx =
  let n = Interned.n ctx in
  let adj = Interned.adj ctx in
  let size = 1 lsl n in
  let bit_index bit =
    let rec go b i = if b = 1 then i else go (b lsr 1) (i + 1) in
    go bit 0
  in
  let nb = Array.make size 0 in
  for mask = 1 to size - 1 do
    let low = mask land -mask in
    nb.(mask) <- nb.(mask lxor low) lor adj.(bit_index low)
  done;
  let connected = Bytes.make size '\000' in
  for i = 0 to n - 1 do
    Bytes.unsafe_set connected (1 lsl i) '\001'
  done;
  for mask = 1 to size - 1 do
    if Bytes.unsafe_get connected mask <> '\000' then begin
      let ext = ref (nb.(mask) land lnot mask) in
      while !ext <> 0 do
        let bit = !ext land - !ext in
        Bytes.unsafe_set connected (mask lor bit) '\001';
        ext := !ext lxor bit
      done
    end
  done;
  fun mask -> Bytes.unsafe_get connected mask <> '\000'

let crossing_edge n adj a b =
  let rec any i =
    i < n && ((a land (1 lsl i) <> 0 && adj.(i) land b <> 0) || any (i + 1))
  in
  any 0

(* Mask-based bushy DP: adjacency comes precomputed from the interned
   context and the coster is the mask-keyed seam, so the O(3^n) submask
   sweep touches no strings. Enumeration order and tie-breaks mirror
   [optimize_reference] exactly. *)
let optimize_masked (m : Coster.masked) ctx =
  let n = Interned.n ctx in
  if n > max_relations then invalid_arg "Dpsub.optimize: too many relations for bushy DP";
  let span = Raqo_obs.Trace.start "dpsub/dp" in
  let adj = Interned.adj ctx in
  let size = 1 lsl n in
  let connected = connectivity ctx in
  let is_none o = match o with None -> true | Some _ -> false in
  let crossing_edge a b = crossing_edge n adj a b in
  let best : (Join_tree.joint * float) option array = Array.make size None in
  for i = 0 to n - 1 do
    best.(1 lsl i) <- Some (Join_tree.Scan (Interned.name ctx i), 0.0)
  done;
  for mask = 1 to size - 1 do
    if connected mask && is_none best.(mask) then
      Interned.iter_splits mask (fun ~sub ~rest ->
          if connected sub && connected rest && crossing_edge sub rest then
            match (best.(sub), best.(rest)) with
            | Some (lt, lc), Some (rt, rc) -> begin
                if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_expansions;
                match m.Coster.best_join_masked ~left:sub ~right:rest with
                | Some { impl; resources; cost } ->
                    let total = lc +. rc +. cost in
                    let better =
                      match best.(mask) with
                      | Some (_, c) -> total < c
                      | None -> true
                    in
                    if better then
                      best.(mask) <- Some (Join_tree.Join ((impl, resources), lt, rt), total)
                | None -> ()
              end
            | None, _ | _, None -> ())
  done;
  Raqo_obs.Trace.finish span;
  best.(size - 1)

let optimize coster schema relations =
  validate schema relations;
  let ctx = Interned.make schema relations in
  optimize_masked (Coster.of_strings ctx coster) ctx
