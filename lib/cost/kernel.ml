module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions

(* Bit-identity contract. The scalar path computes

     intercept +. ((((((0. +. b0*.x0) +. b1*.x1) +. b2*.x2) +. b3*.x3)
                    +. b4*.x4) +. b5*.x5) +. b6*.x6

   over x = [| ss; ss*.ss; cs; cs*.cs; nc; nc*.nc; cs*.nc |] (Linalg.dot is a
   left-to-right fold seeded at 0.). Float addition is not associative, but
   hoisting a *prefix* of a left-to-right chain preserves the parse tree:
   acc0 below is the first two additions, row_acc the next two, and the inner
   loop finishes the chain — the grouping is unchanged, so every intermediate
   is the same IEEE double the scalar path produces. *)

type t = {
  impl : Join_impl.t;
  small_gb : float;
  intercept : float;
  acc0 : float;  (* (0. +. b0*.ss) +. b1*.(ss*.ss): data-only dot prefix *)
  b_cs : float;
  b_cs2 : float;
  b_nc : float;
  b_nc2 : float;
  b_csnc : float;
  floor : float;
  bhj : bool;  (* apply the OOM cliff: infeasible below small_gb/headroom *)
  oom_headroom : float;
}

let make (model : Op_cost.t) impl ~small_gb =
  match model.Op_cost.space with
  | Feature.Extended -> None
  | Feature.Paper ->
      let lin =
        match impl with Join_impl.Smj -> model.Op_cost.smj | Join_impl.Bhj -> model.Op_cost.bhj
      in
      let b = lin.Linreg.coefficients in
      let ss = small_gb in
      Some
        {
          impl;
          small_gb;
          intercept = lin.Linreg.intercept;
          acc0 = 0.0 +. (b.(0) *. ss) +. (b.(1) *. (ss *. ss));
          b_cs = b.(2);
          b_cs2 = b.(3);
          b_nc = b.(4);
          b_nc2 = b.(5);
          b_csnc = b.(6);
          floor = model.Op_cost.floor;
          bhj = (match impl with Join_impl.Bhj -> true | Join_impl.Smj -> false);
          oom_headroom = model.Op_cost.oom_headroom;
        }

let impl t = t.impl
let small_gb t = t.small_gb

let predict t ~containers ~container_gb =
  if t.bhj && not (t.small_gb <= t.oom_headroom *. container_gb) then Float.infinity
  else begin
    let cs = container_gb in
    let nc = float_of_int containers in
    let acc =
      t.acc0
      +. (t.b_cs *. cs)
      +. (t.b_cs2 *. (cs *. cs))
      +. (t.b_nc *. nc)
      +. (t.b_nc2 *. (nc *. nc))
      +. (t.b_csnc *. (cs *. nc))
    in
    let c = t.intercept +. acc in
    if t.floor > 0.0 then Float.max t.floor c else c
  end

let predict_resources t (r : Resources.t) =
  predict t ~containers:r.Resources.containers ~container_gb:r.Resources.container_gb

let m_sweeps = Raqo_obs.Metrics.counter "raqo_kernel_sweeps_total"
let m_cells = Raqo_obs.Metrics.counter "raqo_kernel_cells_total"

let sweep t (c : Conditions.t) buf =
  let nc_steps = Conditions.steps_containers c in
  let ngb = Conditions.steps_gb c in
  if Array.length buf < nc_steps * ngb then invalid_arg "Kernel.sweep: scratch buffer too small";
  (* Disabled probe = one atomic load and a branch: the warm sweep must stay
     at zero minor words (the bench Gc probe pins this). *)
  let span =
    if not (Raqo_obs.Obs.enabled ()) then Raqo_obs.Trace.none
    else begin
      Raqo_obs.Metrics.Counter.inc m_sweeps;
      Raqo_obs.Metrics.Counter.add m_cells (nc_steps * ngb);
      Raqo_obs.Trace.start "kernel/sweep"
    end
  in
  (* Local unboxed copies: the inner loop is pure float arithmetic into a
     float array, no allocation. *)
  let acc0 = t.acc0 in
  let b_cs = t.b_cs and b_cs2 = t.b_cs2 in
  let b_nc = t.b_nc and b_nc2 = t.b_nc2 and b_csnc = t.b_csnc in
  let intercept = t.intercept and floor = t.floor in
  let is_bhj = t.bhj and headroom = t.oom_headroom and small = t.small_gb in
  let min_containers = c.Conditions.min_containers and cstep = c.Conditions.container_step in
  for j = 0 to ngb - 1 do
    let cs = c.Conditions.min_gb +. (float_of_int j *. c.Conditions.gb_step) in
    let base = j * nc_steps in
    if is_bhj && not (small <= headroom *. cs) then
      Array.fill buf base nc_steps Float.infinity
    else begin
      let row_acc = acc0 +. (b_cs *. cs) +. (b_cs2 *. (cs *. cs)) in
      for i = 0 to nc_steps - 1 do
        let nc = float_of_int (min_containers + (i * cstep)) in
        let acc = row_acc +. (b_nc *. nc) +. (b_nc2 *. (nc *. nc)) +. (b_csnc *. (cs *. nc)) in
        let cost = intercept +. acc in
        (* Manual Float.max keeps the loop call-free; for floor > 0. (finite,
           nonzero) the branch returns the same double, NaN included. *)
        buf.(base + i) <- (if floor > 0.0 && cost <= floor then floor else cost)
      done
    end
  done;
  Raqo_obs.Trace.finish span

(* Scratch: amortised-growth grid buffer, instrumented so callers can prove
   the steady state allocates nothing. *)

type scratch = {
  mutable buf : float array;
  mutable allocs : int;
  mutable reuses : int;
}

let create_scratch () = { buf = [||]; allocs = 0; reuses = 0 }

let ensure s n =
  if Array.length s.buf >= n then s.reuses <- s.reuses + 1
  else begin
    s.allocs <- s.allocs + 1;
    s.buf <- Array.make n 0.0
  end

let buffer s = s.buf
let allocs s = s.allocs
let reuses s = s.reuses
