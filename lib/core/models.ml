module Profile_runs = Raqo_workload.Profile_runs

let train ?(seed = 7) (engine : Raqo_execsim.Engine.t) =
  let rng = Raqo_util.Rng.create seed in
  let small_sizes, configs = Join_dt.training_grid engine ~big_gb:77.0 in
  let grid = Profile_runs.sweep engine ~big_gb:77.0 ~small_sizes ~configs in
  (* Extra random draws densify the grid so the quadratic fit is stable. *)
  let extra =
    Profile_runs.random_sweep rng engine Raqo_cluster.Conditions.default ~big_gb:77.0
      ~n:500
  in
  Profile_runs.train_cost_model ~oom_headroom:engine.oom_headroom (grid @ extra)

let memo = Hashtbl.create 4

let memoized name engine =
  match Hashtbl.find_opt memo name with
  | Some model -> model
  | None ->
      let model = train engine in
      Hashtbl.add memo name model;
      model

let hive () = memoized "hive" Raqo_execsim.Engine.hive
let spark () = memoized "spark" Raqo_execsim.Engine.spark

let for_engine = function
  | "spark" -> (spark (), Raqo_execsim.Engine.spark)
  | _ -> (hive (), Raqo_execsim.Engine.hive)
