module Kernel = Raqo_cost.Kernel

(* Observability (recorded only when Raqo_obs.Obs.enabled): how much of the
   grid the branch-and-bound searches never had to touch. *)
let m_pruned_boxes = Raqo_obs.Metrics.counter "raqo_resource_pruned_boxes_total"
let m_pruned_cells = Raqo_obs.Metrics.counter "raqo_resource_pruned_cells_total"

let record_pruned ~n_configs ~evals =
  if Raqo_obs.Obs.enabled () then
    Raqo_obs.Metrics.Counter.add m_pruned_cells (n_configs - evals)

(* Cheapest config in [configs], ties toward the earlier one, plus the
   evaluation count. *)
let fold_best cost configs =
  List.fold_left
    (fun (best, evals) r ->
      let c = cost r in
      let best =
        match best with
        | Some (_, bc) when bc <= c -> best
        | Some _ | None -> Some (r, c)
      in
      (best, evals + 1))
    (None, 0) configs

let search ?counters conditions cost =
  let best, evals = fold_best cost (Raqo_cluster.Conditions.all_configs conditions) in
  (match counters with
  | Some k ->
      Counters.record_evaluations k evals;
      Counters.record_invocation k
  | None -> ());
  match best with
  | Some result -> result
  | None -> invalid_arg "Brute_force.search: empty resource space"

(* Kernel-compiled exhaustive search: one allocation-free sweep into the
   scratch buffer, then an argmin scan. The scan replicates [fold_best]'s
   comparison — keep the incumbent iff [bc <= c], which keeps the earlier
   index on ties and (like the fold) lets a NaN cost displace the incumbent —
   so the winning cell, its cost, and the recorded evaluation count are
   bit-identical to [search] on the same model. *)
let search_kernel ?counters (conditions : Raqo_cluster.Conditions.t) ~kernel ~scratch =
  let n = Raqo_cluster.Conditions.n_configs conditions in
  Kernel.ensure scratch n;
  let buf = Kernel.buffer scratch in
  Kernel.sweep kernel conditions buf;
  let best_idx = ref 0 and best_cost = ref buf.(0) in
  for idx = 1 to n - 1 do
    let c = buf.(idx) in
    if not (!best_cost <= c) then begin
      best_idx := idx;
      best_cost := c
    end
  done;
  (match counters with
  | Some k ->
      Counters.record_evaluations k n;
      Counters.record_invocation k
  | None -> ());
  let nc = Raqo_cluster.Conditions.steps_containers conditions in
  let i = !best_idx mod nc and j = !best_idx / nc in
  ( Raqo_cluster.Resources.make
      ~containers:(conditions.min_containers + (i * conditions.container_step))
      ~container_gb:(conditions.min_gb +. (float_of_int j *. conditions.gb_step)),
    !best_cost )

(* Pruned grid search: a coarse seed lattice tightens an incumbent, then
   branch-and-bound over grid-aligned boxes discards every box that cannot
   hold a lexicographically smaller (cost, enumeration index) pair than the
   incumbent: lb > cost is out, and so is lb = cost when even the box's
   smallest index loses the tie-break. That second clause matters on cost
   plateaus — a floored model flattens whole regions to one constant, where
   a cost-only test would force enumerating every tied cell — and keeps the
   result exactly [search]'s, tie winner included: any cell that would win
   the tie has an index below the incumbent's, so its box survives. *)
let search_pruned ?counters (conditions : Raqo_cluster.Conditions.t) ~bound cost =
  let nc = Raqo_cluster.Conditions.steps_containers conditions in
  let ngb = Raqo_cluster.Conditions.steps_gb conditions in
  let config i j =
    Raqo_cluster.Resources.make
      ~containers:(conditions.min_containers + (i * conditions.container_step))
      ~container_gb:(conditions.min_gb +. (float_of_int j *. conditions.gb_step))
  in
  let evals = ref 0 in
  let memo = Hashtbl.create 64 in
  let eval i j =
    let idx = (j * nc) + i in
    match Hashtbl.find_opt memo idx with
    | Some c -> c
    | None ->
        incr evals;
        let c = cost (config i j) in
        Hashtbl.add memo idx c;
        c
  in
  let best_cost = ref Float.infinity and best_idx = ref max_int in
  let consider i j =
    let idx = (j * nc) + i in
    let c = eval i j in
    if c < !best_cost || (c = !best_cost && idx < !best_idx) then begin
      best_cost := c;
      best_idx := idx
    end
  in
  (* Seed lattice, including index 0 so the all-infeasible grid degenerates
     to [search]'s answer (first config, infinite cost). *)
  let stride_i = max 1 ((nc + 7) / 8) and stride_j = max 1 ((ngb + 3) / 4) in
  for j = 0 to (ngb - 1) / stride_j do
    for i = 0 to (nc - 1) / stride_i do
      consider (i * stride_i) (j * stride_j)
    done;
    consider (nc - 1) (j * stride_j)
  done;
  for i = 0 to (nc - 1) / stride_i do
    consider (i * stride_i) (ngb - 1)
  done;
  consider (nc - 1) (ngb - 1);
  let box_bound i0 i1 j0 j1 = bound ~lo:(config i0 j0) ~hi:(config i1 j1) in
  let rec descend i0 i1 j0 j1 =
    let lb = box_bound i0 i1 j0 j1 in
    if lb < !best_cost || (lb = !best_cost && (j0 * nc) + i0 < !best_idx) then begin
      if (i1 - i0 + 1) * (j1 - j0 + 1) <= 8 then
        for j = j0 to j1 do
          for i = i0 to i1 do
            consider i j
          done
        done
      else if i1 - i0 >= j1 - j0 then begin
        let mid = (i0 + i1) / 2 in
        (* Cheaper-bounded half first: a tight incumbent prunes its sibling. *)
        if box_bound i0 mid j0 j1 <= box_bound (mid + 1) i1 j0 j1 then begin
          descend i0 mid j0 j1;
          descend (mid + 1) i1 j0 j1
        end
        else begin
          descend (mid + 1) i1 j0 j1;
          descend i0 mid j0 j1
        end
      end
      else begin
        let mid = (j0 + j1) / 2 in
        if box_bound i0 i1 j0 mid <= box_bound i0 i1 (mid + 1) j1 then begin
          descend i0 i1 j0 mid;
          descend i0 i1 (mid + 1) j1
        end
        else begin
          descend i0 i1 (mid + 1) j1;
          descend i0 i1 j0 mid
        end
      end
    end
    else if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_pruned_boxes
  in
  descend 0 (nc - 1) 0 (ngb - 1);
  record_pruned ~n_configs:(nc * ngb) ~evals:!evals;
  (match counters with
  | Some k ->
      Counters.record_evaluations k !evals;
      Counters.record_invocation k
  | None -> ());
  (config (!best_idx mod nc) (!best_idx / nc), !best_cost)

(* Pruned search on the compiled kernel. Same lattice, same recursion, same
   lexicographic (cost, index) incumbent test as [search_pruned]; the only
   changes are mechanical: point costs come from [Kernel.point_at] memoised
   in the scratch buffer (a seen-bitmap replaces the Hashtbl, so the
   distinct-evaluation count is identical), and box bounds come from
   [Kernel.bound_at], which is bit-identical to the scalar
   [Op_cost.region_lower_bound] closure — so every pruning decision, the
   winner, its cost, and the counters all match [search_pruned] exactly,
   with zero allocation once the scratch has grown to the grid. *)
let search_pruned_kernel ?counters (conditions : Raqo_cluster.Conditions.t) ~kernel ~scratch =
  let nc = Raqo_cluster.Conditions.steps_containers conditions in
  let ngb = Raqo_cluster.Conditions.steps_gb conditions in
  Kernel.ensure scratch (nc * ngb);
  Kernel.reset_seen scratch (nc * ngb);
  let buf = Kernel.buffer scratch and seen = Kernel.seen scratch in
  let evals = ref 0 in
  let eval i j =
    let idx = (j * nc) + i in
    if Bytes.get seen idx = '\001' then buf.(idx)
    else begin
      incr evals;
      let c = Kernel.point_at kernel conditions ~i ~j in
      buf.(idx) <- c;
      Bytes.set seen idx '\001';
      c
    end
  in
  let best_cost = ref Float.infinity and best_idx = ref max_int in
  let consider i j =
    let idx = (j * nc) + i in
    let c = eval i j in
    if c < !best_cost || (c = !best_cost && idx < !best_idx) then begin
      best_cost := c;
      best_idx := idx
    end
  in
  let stride_i = max 1 ((nc + 7) / 8) and stride_j = max 1 ((ngb + 3) / 4) in
  for j = 0 to (ngb - 1) / stride_j do
    for i = 0 to (nc - 1) / stride_i do
      consider (i * stride_i) (j * stride_j)
    done;
    consider (nc - 1) (j * stride_j)
  done;
  for i = 0 to (nc - 1) / stride_i do
    consider (i * stride_i) (ngb - 1)
  done;
  consider (nc - 1) (ngb - 1);
  let box_bound i0 i1 j0 j1 = Kernel.bound_at kernel conditions ~i0 ~i1 ~j0 ~j1 in
  let rec descend i0 i1 j0 j1 =
    let lb = box_bound i0 i1 j0 j1 in
    if lb < !best_cost || (lb = !best_cost && (j0 * nc) + i0 < !best_idx) then begin
      if (i1 - i0 + 1) * (j1 - j0 + 1) <= 8 then
        for j = j0 to j1 do
          for i = i0 to i1 do
            consider i j
          done
        done
      else if i1 - i0 >= j1 - j0 then begin
        let mid = (i0 + i1) / 2 in
        if box_bound i0 mid j0 j1 <= box_bound (mid + 1) i1 j0 j1 then begin
          descend i0 mid j0 j1;
          descend (mid + 1) i1 j0 j1
        end
        else begin
          descend (mid + 1) i1 j0 j1;
          descend i0 mid j0 j1
        end
      end
      else begin
        let mid = (j0 + j1) / 2 in
        if box_bound i0 i1 j0 mid <= box_bound i0 i1 (mid + 1) j1 then begin
          descend i0 i1 j0 mid;
          descend i0 i1 (mid + 1) j1
        end
        else begin
          descend i0 i1 (mid + 1) j1;
          descend i0 i1 j0 mid
        end
      end
    end
    else if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_pruned_boxes
  in
  descend 0 (nc - 1) 0 (ngb - 1);
  record_pruned ~n_configs:(nc * ngb) ~evals:!evals;
  (match counters with
  | Some k ->
      Counters.record_evaluations k !evals;
      Counters.record_invocation k
  | None -> ());
  ( Raqo_cluster.Resources.make
      ~containers:(conditions.min_containers + (!best_idx mod nc * conditions.container_step))
      ~container_gb:(conditions.min_gb +. (float_of_int (!best_idx / nc) *. conditions.gb_step)),
    !best_cost )
