module Join_tree = Raqo_plan.Join_tree
module Schema = Raqo_catalog.Schema
module Interned = Raqo_catalog.Interned

let validate schema relations =
  let n = List.length relations in
  if n = 0 then invalid_arg "Selinger.optimize: empty relation set";
  if n > 20 then invalid_arg "Selinger.optimize: too many relations for exhaustive DP";
  List.iter
    (fun r -> if not (Schema.mem schema r) then invalid_arg ("Selinger.optimize: unknown " ^ r))
    relations

(* Observability. True per-level spans are impossible here — both DP cores
   enumerate subsets in mask order, interleaving levels — so the per-level
   view is a histogram of the subset size at each coster expansion, next to
   a whole-DP span and an expansion counter. All gated on Obs.enabled. *)
let m_expansions = Raqo_obs.Metrics.counter "raqo_selinger_expansions_total"

let m_level =
  Raqo_obs.Metrics.histogram
    ~buckets:[| 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18.; 20. |]
    "raqo_selinger_level"

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

(* The reference DP core over string lists, kept verbatim as the
   differential-oracle baseline for the mask-based core below. Returns the
   best full plan and the number of coster invocations. *)
let dp (coster : Coster.t) schema relations =
  validate schema relations;
  let span = Raqo_obs.Trace.start "selinger/dp-reference" in
  let n = List.length relations in
  let invocations = ref 0 in
  let rels = Array.of_list relations in
  let graph = Schema.graph schema in
  let adjacent i j =
    Option.is_some (Raqo_catalog.Join_graph.selectivity graph rels.(i) rels.(j))
  in
  let names_of mask =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (if mask land (1 lsl i) <> 0 then rels.(i) :: acc else acc)
    in
    go (n - 1) []
  in
  let size = 1 lsl n in
  (* best.(mask) = cheapest left-deep joint plan joining exactly [mask]. *)
  let best : (Join_tree.joint * float) option array = Array.make size None in
  for i = 0 to n - 1 do
    best.(1 lsl i) <- Some (Join_tree.Scan rels.(i), 0.0)
  done;
  for mask = 1 to size - 1 do
    if best.(mask) = None then begin
      for r = 0 to n - 1 do
        if mask land (1 lsl r) <> 0 then begin
          let rest = mask lxor (1 lsl r) in
          match best.(rest) with
          | None -> ()
          | Some (left_tree, left_cost) ->
              (* No cartesian products: r must join something already in. *)
              let connected =
                let rec any j =
                  j < n && ((rest land (1 lsl j) <> 0 && adjacent r j) || any (j + 1))
                in
                any 0
              in
              if connected then begin
                let left = names_of rest and right = [ rels.(r) ] in
                incr invocations;
                match coster.Coster.best_join ~left ~right with
                | None -> ()
                | Some { impl; resources; cost } ->
                    let total = left_cost +. cost in
                    let better =
                      match best.(mask) with
                      | Some (_, c) -> total < c
                      | None -> true
                    in
                    if better then
                      best.(mask) <-
                        Some
                          ( Join_tree.Join
                              ((impl, resources), left_tree, Join_tree.Scan rels.(r)),
                            total )
              end
        end
      done
    end
  done;
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.add m_expansions !invocations;
  Raqo_obs.Trace.finish span;
  (best.(size - 1), !invocations)

(* The mask-based DP core: subsets stay integers end to end, connectivity is
   one AND against the precomputed adjacency mask, and the coster is the
   mask-keyed seam — no list allocation or per-edge graph rescans on the hot
   path. Dead subsets are skipped by forward candidate marking: every alive
   subset marks its one-relation adjacent extensions, and only marked masks
   are expanded — a mask the reference loop could issue a coster call for is
   exactly a marked one, so on sparse graphs (chains) the bulk of the 2^n
   sweep costs one byte load per mask. Enumeration order and tie-breaks
   mirror [dp] exactly, so (plan, cost, invocation count) are
   bit-identical. *)
let dp_masked (m : Coster.masked) ctx =
  let n = Interned.n ctx in
  if n > 20 then invalid_arg "Selinger.optimize: too many relations for exhaustive DP";
  let span = Raqo_obs.Trace.start "selinger/dp" in
  let invocations = ref 0 in
  let adj = Interned.adj ctx in
  let size = 1 lsl n in
  let best : (Join_tree.joint * float) option array = Array.make size None in
  (* nb.(mask) = union of adjacency over the members of [mask]; maintained
     only for alive masks (any decomposition yields the same union). *)
  let nb = Array.make size 0 in
  let candidate = Bytes.make size '\000' in
  for i = 0 to n - 1 do
    best.(1 lsl i) <- Some (Join_tree.Scan (Interned.name ctx i), 0.0);
    nb.(1 lsl i) <- adj.(i)
  done;
  let is_none o = match o with None -> true | Some _ -> false in
  for mask = 1 to size - 1 do
    if Bytes.unsafe_get candidate mask <> '\000' && is_none best.(mask) then begin
      for r = 0 to n - 1 do
        if mask land (1 lsl r) <> 0 then begin
          let rest = mask lxor (1 lsl r) in
          match best.(rest) with
          | None -> ()
          | Some (left_tree, left_cost) ->
              (* No cartesian products: r must join something already in. *)
              if adj.(r) land rest <> 0 then begin
                incr invocations;
                if Raqo_obs.Obs.enabled () then
                  Raqo_obs.Metrics.Histogram.observe m_level (float_of_int (popcount mask));
                match m.Coster.best_join_masked ~left:rest ~right:(1 lsl r) with
                | None -> ()
                | Some { impl; resources; cost } ->
                    let total = left_cost +. cost in
                    let better =
                      match best.(mask) with
                      | Some (_, c) -> total < c
                      | None -> true
                    in
                    if better then begin
                      best.(mask) <-
                        Some
                          ( Join_tree.Join
                              ( (impl, resources),
                                left_tree,
                                Join_tree.Scan (Interned.name ctx r) ),
                            total );
                      nb.(mask) <- nb.(rest) lor adj.(r)
                    end
              end
        end
      done
    end;
    (* Alive (including the singleton seeds, swept before any supermask):
       mark the adjacent one-relation extensions as worth expanding. *)
    if not (is_none best.(mask)) then begin
      let ext = ref (nb.(mask) land lnot mask) in
      while !ext <> 0 do
        let bit = !ext land - !ext in
        Bytes.unsafe_set candidate (mask lor bit) '\001';
        ext := !ext lxor bit
      done
    end
  done;
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.add m_expansions !invocations;
  Raqo_obs.Trace.finish span;
  (best.(size - 1), !invocations)

let optimize_masked m ctx = fst (dp_masked m ctx)

let optimize coster schema relations =
  validate schema relations;
  let ctx = Interned.make schema relations in
  optimize_masked (Coster.of_strings ctx coster) ctx

let optimize_reference coster schema relations = fst (dp coster schema relations)
