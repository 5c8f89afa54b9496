module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources

type t = {
  space : Feature.space;
  smj : Linreg.t;
  bhj : Linreg.t;
  scan : Linreg.t;
  oom_headroom : float;
  floor : float;
}

(* The coefficient vectors printed in the paper, feature order
   [ss; ss2; cs; cs2; nc; nc2; cs*nc]. *)
let paper_smj_coefficients =
  [|
    1.62643613e+01;
    9.68774888e-01;
    1.33866542e-02;
    1.60639851e-01;
    -7.82618920e-03;
    -3.91309460e-01;
    1.10387975e-01;
  |]

let paper_bhj_coefficients =
  [|
    1.00739509e+04;
    -6.72184592e+02;
    -1.37392901e+01;
    -1.64871481e+02;
    2.44721676e-02;
    1.22360838e+00;
    -1.37319484e+02;
  |]

(* Scan: throughput model, cost ~ size / parallelism; expressed in the same
   linear feature space as a plain per-GB term (the evaluation's single scan
   implementation carries no resource trade-off of its own). *)
let paper_scan_coefficients = [| 30.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |]

let paper =
  {
    space = Feature.Paper;
    smj = Linreg.of_coefficients paper_smj_coefficients;
    bhj = Linreg.of_coefficients paper_bhj_coefficients;
    scan = Linreg.of_coefficients paper_scan_coefficients;
    oom_headroom = 1.15;
    floor = 0.0;
  }

let with_floor floor t =
  if floor < 0.0 then invalid_arg "Op_cost.with_floor: negative floor";
  { t with floor }

let bhj_feasible t ~small_gb ~resources =
  small_gb <= t.oom_headroom *. resources.Resources.container_gb

let predict t impl ~small_gb ~resources =
  let x = Feature.vector_of t.space ~small_gb ~resources in
  let clamp c = if t.floor > 0.0 then Float.max t.floor c else c in
  match impl with
  | Join_impl.Smj -> Some (clamp (Linreg.predict t.smj x))
  | Join_impl.Bhj ->
      if bhj_feasible t ~small_gb ~resources then Some (clamp (Linreg.predict t.bhj x))
      else None

let predict_exn t impl ~small_gb ~resources =
  match predict t impl ~small_gb ~resources with
  | Some c -> c
  | None -> Float.infinity

let best_impl t ~small_gb ~resources =
  List.fold_left
    (fun best impl ->
      match (predict t impl ~small_gb ~resources, best) with
      | Some c, Some (_, bc) when c >= bc -> best
      | Some c, _ -> Some (impl, c)
      | None, _ -> best)
    None Join_impl.all
