module Conditions = Raqo_cluster.Conditions
module Resources = Raqo_cluster.Resources

(* The two resource dimensions, represented generically as in Algorithm 1:
   currRes[0] = containers, currRes[1] = container memory (GB). *)
let to_vec (r : Resources.t) = [| float_of_int r.containers; r.container_gb |]

let of_vec v =
  Resources.make ~containers:(int_of_float (Float.round v.(0))) ~container_gb:v.(1)

let start_of ?start conditions =
  match start with
  | Some s -> Conditions.clamp conditions s
  | None -> Conditions.min_config conditions

(* The scalar climb. [Raqo_cost.Kernel.climb] is the same loop over two
   unboxed coordinates; any change to the probe order, the restore
   arithmetic or the stopping rule here must be made there too. *)
let plan ?counters ?start (conditions : Conditions.t) cost =
  let eval v =
    (match counters with
    | Some k -> Counters.record_evaluation k
    | None -> ());
    cost (of_vec v)
  in
  (match counters with
  | Some k -> Counters.record_invocation k
  | None -> ());
  let step_size =
    [| float_of_int conditions.container_step; conditions.gb_step |]
  in
  let minimum = to_vec (Conditions.min_config conditions) in
  let maximum = to_vec (Conditions.max_config conditions) in
  let candidate = [| -1.0; 1.0 |] in
  let curr_res = to_vec (start_of ?start conditions) in
  let dims = Array.length curr_res in
  let rec climb () =
    let curr_cost = eval curr_res in
    let best_cost = ref curr_cost in
    for i = 0 to dims - 1 do
      let best = ref (-1) in
      for j = 0 to Array.length candidate - 1 do
        let ival = step_size.(i) *. candidate.(j) in
        let stepped = curr_res.(i) +. ival in
        if stepped <= maximum.(i) +. 1e-9 && stepped >= minimum.(i) -. 1e-9 then begin
          curr_res.(i) <- stepped;
          let temp = eval curr_res in
          curr_res.(i) <- curr_res.(i) -. ival;
          if temp < !best_cost then begin
            best_cost := temp;
            best := j
          end
        end
      done;
      if !best <> -1 then curr_res.(i) <- curr_res.(i) +. (step_size.(i) *. candidate.(!best))
    done;
    (* Continue only on strict improvement; this also terminates when the
       cost model returns NaN (all comparisons false). *)
    if !best_cost < curr_cost then climb () else (of_vec curr_res, curr_cost)
  in
  climb ()

let plan_kernel ?counters ?start conditions kernel =
  (match counters with
  | Some k -> Counters.record_invocation k
  | None -> ());
  let r = Raqo_cost.Kernel.climb kernel conditions ~start:(start_of ?start conditions) in
  (match counters with
  | Some k -> Counters.record_evaluations k r.Raqo_cost.Kernel.evaluations
  | None -> ());
  (r.Raqo_cost.Kernel.best, r.Raqo_cost.Kernel.cost)
