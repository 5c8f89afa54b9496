type t = {
  min_containers : int;
  max_containers : int;
  container_step : int;
  min_gb : float;
  max_gb : float;
  gb_step : float;
}

let make ?(min_containers = 1) ?(max_containers = 100) ?(container_step = 1) ?(min_gb = 1.0)
    ?(max_gb = 10.0) ?(gb_step = 1.0) () =
  if min_containers <= 0 || max_containers < min_containers then
    invalid_arg "Conditions.make: bad container bounds";
  if container_step <= 0 then invalid_arg "Conditions.make: bad container step";
  (* Written so NaN fails too: every comparison with NaN is false. *)
  if not (min_gb > 0.0 && max_gb >= min_gb && Float.is_finite max_gb) then
    invalid_arg "Conditions.make: bad memory bounds";
  if not (gb_step > 0.0 && Float.is_finite gb_step) then
    invalid_arg "Conditions.make: bad memory step";
  { min_containers; max_containers; container_step; min_gb; max_gb; gb_step }

let default = make ()

let steps_containers t = ((t.max_containers - t.min_containers) / t.container_step) + 1

let steps_gb t =
  int_of_float (floor (((t.max_gb -. t.min_gb) /. t.gb_step) +. 1e-9)) + 1

let n_configs t = steps_containers t * steps_gb t

let contains t (r : Resources.t) =
  r.containers >= t.min_containers
  && r.containers <= t.max_containers
  && (r.containers - t.min_containers) mod t.container_step = 0
  && r.container_gb >= t.min_gb -. 1e-9
  && r.container_gb <= t.max_gb +. 1e-9
  &&
  let k = (r.container_gb -. t.min_gb) /. t.gb_step in
  Float.abs (k -. Float.round k) < 1e-6

let clamp t (r : Resources.t) =
  Resources.make
    ~containers:(max t.min_containers (min t.max_containers r.containers))
    ~container_gb:(Float.max t.min_gb (Float.min t.max_gb r.container_gb))

let min_config t = Resources.make ~containers:t.min_containers ~container_gb:t.min_gb
let max_config t = Resources.make ~containers:t.max_containers ~container_gb:t.max_gb

let all_configs t =
  let ngb = steps_gb t and nc = steps_containers t in
  List.concat
    (List.init ngb (fun j ->
         let gb = t.min_gb +. (float_of_int j *. t.gb_step) in
         List.init nc (fun i ->
             Resources.make
               ~containers:(t.min_containers + (i * t.container_step))
               ~container_gb:gb)))

let scale_capacity t ~containers ~gb =
  make ~min_containers:t.min_containers ~max_containers:containers
    ~container_step:t.container_step ~min_gb:t.min_gb ~max_gb:gb ~gb_step:t.gb_step ()

let pp fmt t =
  Format.fprintf fmt "containers %d..%d step %d, memory %.1f..%.1f GB step %.1f"
    t.min_containers t.max_containers t.container_step t.min_gb t.max_gb t.gb_step
