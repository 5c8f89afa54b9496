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

(* The exact grid minimum through the kernel: the same cell and cost as
   [search] on the same model (earliest cell on ties, NaN included), from
   the evaluations the closed form actually made. *)
let search_kernel ?counters conditions ~kernel =
  let m = Kernel.minimum kernel conditions in
  (match counters with
  | Some k ->
      Counters.record_evaluations k m.Kernel.evaluations;
      Counters.record_invocation k
  | None -> ());
  (m.Kernel.best, m.Kernel.cost)
