module Conditions = Raqo_cluster.Conditions
module Resources = Raqo_cluster.Resources
module Join_tree = Raqo_plan.Join_tree
module Join_impl = Raqo_plan.Join_impl
module Op_cost = Raqo_cost.Op_cost
module Kernel = Raqo_cost.Kernel
module Plan_cost = Raqo_cost.Plan_cost
module M = Raqo_obs.Metrics

type t = {
  name : string;
  relations : string list;
  min_cap : int;
  cap_step : int;
  caps : int array;
  latency : float array;
  gb_seconds : float array;
}

let m_surfaces = M.counter "raqo_alloc_surfaces_total"

let name t = t.name
let relations t = t.relations
let caps t = Array.copy t.caps
let latencies t = Array.copy t.latency
let gb_seconds_curve t = Array.copy t.gb_seconds
let cap_step t = t.cap_step
let min_cap t = t.min_cap
let max_cap t = t.caps.(Array.length t.caps - 1)

(* Index of the largest cap <= [containers], or -1 below the grid. *)
let cap_index t containers =
  if containers < t.min_cap then -1
  else min ((containers - t.min_cap) / t.cap_step) (Array.length t.caps - 1)

let latency_at t containers =
  let i = cap_index t containers in
  if i < 0 then Float.infinity else t.latency.(i)

let gb_seconds_at t containers =
  let i = cap_index t containers in
  if i < 0 then Float.infinity else t.gb_seconds.(i)

let cap_floor t containers =
  let i = cap_index t containers in
  if i < 0 then t.min_cap else t.caps.(i)

(* The smallest cap already achieving the surface's best latency — what a
   query would ask for if it were planned alone (prefix-min curves make the
   last entry the global minimum, reached by exact float propagation). *)
let preferred_cap t =
  let best = t.latency.(Array.length t.latency - 1) in
  let i = ref 0 in
  while t.latency.(!i) > best do incr i done;
  t.caps.(!i)

let build ?(use_kernel = true) ~model ~conditions ~schema ~name plan =
  Raqo_obs.Trace.with_ ~name:"alloc/surface" @@ fun () ->
  let sc = Conditions.steps_containers conditions in
  let sg = Conditions.steps_gb conditions in
  let caps =
    Array.init sc (fun i ->
        conditions.Conditions.min_containers + (i * conditions.Conditions.container_step))
  in
  let gbs =
    Array.init sg (fun j ->
        conditions.Conditions.min_gb +. (float_of_int j *. conditions.Conditions.gb_step))
  in
  let latency = Array.make sc 0.0 and gb_seconds = Array.make sc 0.0 in
  let buf = Array.make (Conditions.n_configs conditions) 0.0 in
  let col_cost = Array.make sc Float.infinity and col_gbs = Array.make sc 0.0 in
  let stages =
    Join_tree.fold_joins
      (fun acc _annot left right -> Plan_cost.join_small_gb schema ~left ~right :: acc)
      [] plan
  in
  List.iter
    (fun small_gb ->
      Array.fill col_cost 0 sc Float.infinity;
      Array.fill col_gbs 0 sc 0.0;
      List.iter
        (fun impl ->
          if use_kernel then Kernel.sweep (Kernel.make model impl ~small_gb) conditions buf
          else
            for j = 0 to sg - 1 do
              for i = 0 to sc - 1 do
                let resources = Resources.make ~containers:caps.(i) ~container_gb:gbs.(j) in
                buf.((j * sc) + i) <- Op_cost.predict_exn model impl ~small_gb ~resources
              done
            done;
          (* Column minimum over memory sizes: ascending [j] with a strict
             improvement test keeps the first (smallest-memory) argmin, and
             SMJ before BHJ in {!Join_impl.all} breaks impl ties — all
             deterministic. *)
          for i = 0 to sc - 1 do
            for j = 0 to sg - 1 do
              let c = buf.((j * sc) + i) in
              if c < col_cost.(i) then begin
                col_cost.(i) <- c;
                col_gbs.(i) <-
                  Resources.gb_seconds
                    (Resources.make ~containers:caps.(i) ~container_gb:gbs.(j))
                    c
              end
            done
          done)
        Join_impl.all;
      (* Prefix-min over the container axis: best per-stage config whose
         container count fits under each cap, so curves are monotone
         nonincreasing by construction. *)
      let best = ref Float.infinity and best_gbs = ref 0.0 in
      for i = 0 to sc - 1 do
        if col_cost.(i) < !best then begin
          best := col_cost.(i);
          best_gbs := col_gbs.(i)
        end;
        latency.(i) <- latency.(i) +. !best;
        gb_seconds.(i) <- gb_seconds.(i) +. !best_gbs
      done)
    stages;
  if Raqo_obs.Obs.enabled () then M.Counter.inc m_surfaces;
  {
    name;
    relations = Join_tree.relations plan;
    min_cap = conditions.Conditions.min_containers;
    cap_step = conditions.Conditions.container_step;
    caps;
    latency;
    gb_seconds;
  }
