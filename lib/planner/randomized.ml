module Join_tree = Raqo_plan.Join_tree
module Schema = Raqo_catalog.Schema
module Rng = Raqo_util.Rng

type params = { iterations : int; max_no_improve : int }

let default_params = { iterations = 10; max_no_improve = 30 }

(* The query's join graph, built once per planner call: relation ids by
   list position, the catalog's edges between query relations (catalog
   order, as id pairs) and each relation's neighbours inside the query.
   Immutable after [graph], so pooled restarts share it. *)
type graph = {
  names : string array;
  ids : (string, int) Hashtbl.t;
  edges : (int * int) array;
  adj : int array array;
}

let graph schema relations =
  let names = Array.of_list relations in
  let ids = Hashtbl.create (Array.length names) in
  (* A duplicate's first slot gets no edges, so [random_shape] refuses it. *)
  Array.iteri (fun i r -> Hashtbl.replace ids r i) names;
  let edges =
    Raqo_catalog.Join_graph.edges (Schema.graph schema)
    |> List.filter_map (fun (e : Raqo_catalog.Join_graph.edge) ->
           match (Hashtbl.find_opt ids e.left, Hashtbl.find_opt ids e.right) with
           | Some a, Some b -> Some (a, b)
           | _ -> None)
    |> Array.of_list
  in
  let adj = Array.make (Array.length names) [] in
  Array.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  { names; ids; edges; adj = Array.map Array.of_list adj }

(* Random bushy tree by randomized Kruskal: shuffle the join edges internal
   to the query and union fragments along them. Every merge crosses a real
   join edge, so the tree is cartesian-free; edge-order randomness gives
   shape randomness. Near-linear, which matters for 100-relation queries. *)
let random_shape rng g =
  let n = Array.length g.names in
  if n = 0 then invalid_arg "Randomized.random_shape: empty relation set";
  let edges = Array.copy g.edges in
  Rng.shuffle rng edges;
  (* Union-find over ids, each root holding its fragment. *)
  let parent = Array.init n Fun.id in
  let fragment = Array.map (fun r -> (Join_tree.Scan r : Coster.shape)) g.names in
  let rec find i =
    if parent.(i) <> i then parent.(i) <- find parent.(i);
    parent.(i)
  in
  let merges = ref 0 in
  Array.iter
    (fun (l, r) ->
      let a = find l and b = find r in
      if a <> b then begin
        incr merges;
        (* Random orientation so neither side is systematically outer. *)
        fragment.(a) <-
          (if Rng.bool rng then Join_tree.Join ((), fragment.(a), fragment.(b))
           else Join_tree.Join ((), fragment.(b), fragment.(a)));
        parent.(b) <- a
      end)
    edges;
  if !merges <> n - 1 then invalid_arg "Randomized.random_shape: relations not joinable";
  fragment.(find 0)

(* One post-order pass numbers the leaves left to right, so every subtree
   covers a contiguous range of positions; a join is cartesian-free iff a
   leaf on its smaller side has a neighbour in the other side's range. A
   leaf is on the smaller side at most log2 n times: O(n * degree * log n)
   per shape, with no catalog scan, string compare or list append. *)
let checker g =
  let n = Array.length g.names in
  (* Each relation's leaf position (-1 when absent); each position's id. *)
  let pos = Array.make n (-1) and at = Array.make n 0 in
  let rec crosses p hi lo' hi' =
    p < hi
    && (Array.exists (fun nb -> pos.(nb) >= lo' && pos.(nb) < hi') g.adj.(at.(p))
       || crosses (p + 1) hi lo' hi')
  in
  let next = ref 0 in
  let rec go = function
    | Join_tree.Scan r -> begin
        (* A leaf outside the query, or seen before, fails the shape. *)
        match Hashtbl.find_opt g.ids r with
        | Some id when pos.(id) < 0 ->
            pos.(id) <- !next;
            at.(!next) <- id;
            incr next;
            true
        | Some _ | None -> false
      end
    | Join_tree.Join (_, l, r) ->
        let lo = !next in
        go l
        &&
        let mid = !next in
        go r
        &&
        let hi = !next in
        if mid - lo <= hi - mid then crosses lo mid mid hi else crosses mid hi lo mid
  in
  fun shape ->
    Array.fill pos 0 n (-1);
    next := 0;
    go shape

(* Paths identify nodes, listed in pre-order: [] is the root, 0 descends
   left, 1 right. *)
let rec paths ~leaves prefix = function
  | Join_tree.Scan _ -> if leaves then [ List.rev prefix ] else []
  | Join_tree.Join (_, l, r) ->
      List.rev prefix :: (paths ~leaves (0 :: prefix) l @ paths ~leaves (1 :: prefix) r)

let rec subtree_at t path =
  match (t, path) with
  | _, [] -> t
  | Join_tree.Join (_, l, _), 0 :: rest -> subtree_at l rest
  | Join_tree.Join (_, _, r), 1 :: rest -> subtree_at r rest
  | Join_tree.Scan _, _ :: _ -> invalid_arg "Randomized.subtree_at: path into a leaf"
  | Join_tree.Join _, _ :: _ -> invalid_arg "Randomized.subtree_at: bad path step"

let rec replace_at t path replacement =
  match (t, path) with
  | _, [] -> replacement
  | Join_tree.Join (a, l, r), 0 :: rest -> Join_tree.Join (a, replace_at l rest replacement, r)
  | Join_tree.Join (a, l, r), 1 :: rest -> Join_tree.Join (a, l, replace_at r rest replacement)
  | Join_tree.Scan _, _ :: _ -> invalid_arg "Randomized.replace_at: path into a leaf"
  | Join_tree.Join _, _ :: _ -> invalid_arg "Randomized.replace_at: bad path step"

(* A uniformly drawn join node: its path and subtree. *)
let pick_join rng shape =
  match Array.of_list (paths ~leaves:false [] shape) with
  | [||] -> None
  | joins ->
      let path = Rng.pick rng joins in
      Some (path, subtree_at shape path)

let commute rng shape =
  match pick_join rng shape with
  | Some (path, Join_tree.Join (a, l, r)) -> Some (replace_at shape path (Join_tree.Join (a, r, l)))
  | Some (_, Join_tree.Scan _) | None -> None

(* (A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C), and its mirror. *)
let associate rng shape =
  match pick_join rng shape with
  | Some (path, Join_tree.Join (a, Join_tree.Join (b, x, y), z)) when Rng.bool rng ->
      Some (replace_at shape path (Join_tree.Join (a, x, Join_tree.Join (b, y, z))))
  | Some (path, Join_tree.Join (a, x, Join_tree.Join (b, y, z))) ->
      Some (replace_at shape path (Join_tree.Join (a, Join_tree.Join (b, x, y), z)))
  | Some (path, Join_tree.Join (a, Join_tree.Join (b, x, y), z)) ->
      Some (replace_at shape path (Join_tree.Join (a, x, Join_tree.Join (b, y, z))))
  | Some (_, (Join_tree.Join (_, Join_tree.Scan _, Join_tree.Scan _) | Join_tree.Scan _)) | None
    ->
      None

(* Swap two disjoint subtrees (neither a prefix of the other). *)
let exchange rng shape =
  let nodes = Array.of_list (List.filter (fun p -> p <> []) (paths ~leaves:true [] shape)) in
  if Array.length nodes < 2 then None
  else begin
    let rec is_prefix a b =
      match (a, b) with
      | [], _ -> true
      | x :: xs, y :: ys -> x = y && is_prefix xs ys
      | _ :: _, [] -> false
    in
    let p1 = Rng.pick rng nodes and p2 = Rng.pick rng nodes in
    if is_prefix p1 p2 || is_prefix p2 p1 then None
    else begin
      let s1 = subtree_at shape p1 and s2 = subtree_at shape p2 in
      let shape = replace_at shape p1 s2 in
      Some (replace_at shape p2 s1)
    end
  end

let mutate rng valid shape =
  let mutation =
    match Rng.int rng 3 with
    | 0 -> commute rng shape
    | 1 -> associate rng shape
    | _ -> exchange rng shape
  in
  match mutation with
  | Some shape' when valid shape' -> Some shape'
  | Some _ | None -> None

(* Iterative improvement parameterized over tree costing, so the string and
   mask-based costing seams share one search loop (and one RNG stream:
   shape generation and validation go through the query's [graph] either
   way, which is what makes the two seams produce identical shapes for a
   fixed seed). *)
let improve_costed ~params rng valid cost shape0 =
  let best = ref (cost shape0) in
  let shape = ref shape0 in
  let stale = ref 0 in
  while !stale < params.max_no_improve do
    match mutate rng valid !shape with
    | None -> incr stale
    | Some candidate -> begin
        let costed = cost candidate in
        match (costed, !best) with
        | (Some (_, c) as improved), Some (_, b) when c < b ->
            best := improved;
            shape := candidate;
            stale := 0
        | (Some _ as improved), None ->
            best := improved;
            shape := candidate;
            stale := 0
        | Some _, Some _ | None, _ -> incr stale
      end
  done;
  !best

(* Each restart gets its own generator split off the caller's, all splits
   drawn upfront in restart order. The restarts are then independent: running
   them on one domain or many yields bit-identical streams, which is what
   makes [local_optima_par] equal to [local_optima] for a fixed seed. *)
let restart_rngs rng n = List.init n (fun _ -> Rng.split rng)

let m_restarts = Raqo_obs.Metrics.counter "raqo_randomized_restarts_total"

(* One span per restart — the unit of work the pool scatters across domains,
   so a trace shows restart spans fanning out under the submitting planner
   span (Pool installs the submitter's span as their parent). The graph is
   shared; the checker's scratch is the restart's own. *)
let run_restart ~params g cost rng =
  let span = Raqo_obs.Trace.start "randomized/restart" in
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_restarts;
  let shape = random_shape rng g in
  let result = improve_costed ~params rng (checker g) cost shape in
  Raqo_obs.Trace.finish span;
  result

let run_restarts ~params g cost rng =
  List.filter_map (run_restart ~params g cost) (restart_rngs rng params.iterations)

(* [cost ()] is called once per restart, on the domain that runs it. *)
let run_restarts_par ~params pool g cost rng =
  Raqo_par.Pool.parallel_map pool
    (fun restart_rng -> run_restart ~params g (cost ()) restart_rng)
    (restart_rngs rng params.iterations)
  |> List.filter_map Fun.id

let local_optima ?(params = default_params) rng coster schema relations =
  if relations = [] then invalid_arg "Randomized.local_optima: empty relation set";
  run_restarts ~params (graph schema relations) (Coster.cost_tree coster) rng

let local_optima_par ?(params = default_params) pool rng ~coster schema relations =
  if relations = [] then invalid_arg "Randomized.local_optima_par: empty relation set";
  run_restarts_par ~params pool (graph schema relations)
    (fun () -> Coster.cost_tree (coster ()))
    rng

let pick_best optima =
  List.fold_left
    (fun best ((_, c) as cand) ->
      match best with
      | Some (_, b) when b <= c -> best
      | Some _ | None -> Some cand)
    None optima

let optimize ?(params = default_params) rng coster schema relations =
  pick_best (local_optima ~params rng coster schema relations)

let optimize_par ?(params = default_params) pool rng ~coster schema relations =
  pick_best (local_optima_par ~params pool rng ~coster schema relations)

(* Mask-based variants: the search (shape generation, mutations, RNG
   splitting) is shared with the string seam above; only tree costing goes
   through the masked coster, so for a fixed seed the restarts visit the
   same shapes and the results are bit-identical when the costers agree. *)

module Interned = Raqo_catalog.Interned

let masked_graph ctx = graph (Interned.schema ctx) (Interned.relations ctx)

let local_optima_masked ?(params = default_params) rng m ctx =
  run_restarts ~params (masked_graph ctx) (Coster.cost_tree_masked m ctx) rng

let local_optima_par_masked ?(params = default_params) pool rng ~coster ctx =
  run_restarts_par ~params pool (masked_graph ctx)
    (fun () -> Coster.cost_tree_masked (coster ()) ctx)
    rng

let optimize_masked ?(params = default_params) rng m ctx =
  pick_best (local_optima_masked ~params rng m ctx)

let optimize_par_masked ?(params = default_params) pool rng ~coster ctx =
  pick_best (local_optima_par_masked ~params pool rng ~coster ctx)
