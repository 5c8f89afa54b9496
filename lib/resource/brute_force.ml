module Kernel = Raqo_cost.Kernel

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
