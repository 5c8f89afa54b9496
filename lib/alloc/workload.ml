module Queue_sim = Raqo_cluster.Queue_sim

type spec = {
  name : string;
  relations : string list;
  tenant : string;
  weight : float;
  arrival : float;
  slo : float option;
}

let query ~model ~conditions ~schema ~plan spec =
  Option.map
    (fun joint ->
      Allocator.query ~tenant:spec.tenant ~weight:spec.weight ~arrival:spec.arrival
        ?slo:spec.slo ~name:spec.name
        (Surface.build ~model ~conditions ~schema ~name:spec.name joint))
    (plan spec.relations)

let queries ~model ~conditions ~schema ~plan specs =
  Array.of_list (List.filter_map (query ~model ~conditions ~schema ~plan) specs)

(* Heavy-tailed arrival process reused verbatim from the queue simulation:
   only the arrival instants matter here (runtimes come from the response
   surfaces), so demands and runtimes are discarded. *)
let arrivals rng ~n ~rate ~capacity =
  let workload =
    {
      Queue_sim.jobs = n;
      arrival_rate = rate;
      mean_demand = 4;
      runtime_shape = 2.5;
      runtime_scale = 5.0;
    }
  in
  Queue_sim.generate rng workload ~capacity
  |> List.map (fun (j : Queue_sim.job) -> j.arrival)
  |> Array.of_list
