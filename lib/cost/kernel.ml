module Join_impl = Raqo_plan.Join_impl
module Resources = Raqo_cluster.Resources
module Conditions = Raqo_cluster.Conditions

(* Bit-identity contract. The scalar path computes

     intercept +. ((((((0. +. b0*.x0) +. b1*.x1) +. b2*.x2) +. b3*.x3)
                    +. b4*.x4) +. b5*.x5) +. b6*.x6   [... +. b10*.x10]

   over x = [| ss; ss*.ss; cs; cs*.cs; nc; nc*.nc; cs*.nc |], extended with
   [| 1./.nc; ss/.nc; ss*.nc; ss/.cs |] in the extended space (Linalg.dot is
   a left-to-right fold seeded at 0.). Float addition is not associative, but
   hoisting a *prefix* of a left-to-right chain preserves the parse tree:
   acc0 below is the first two additions, row_acc the next two, and the inner
   loop finishes the chain — the grouping is unchanged, so every intermediate
   is the same IEEE double the scalar path produces. The extended terms come
   last in the chain, so they are added after [cs*nc] even when (like
   [ss/cs]) their value depends on the row only; each quotient is computed
   as written, never as a reciprocal multiply. *)

(* The float fields sit in an all-float record, which OCaml stores flat:
   compiling a kernel (once per resource-plan cache miss) allocates two small blocks
   rather than one box per coefficient. *)
type coefs = {
  small_gb : float;
  intercept : float;
  acc0 : float;  (* (0. +. b0*.ss) +. b1*.(ss*.ss): data-only dot prefix *)
  b_cs : float;
  b_cs2 : float;
  b_nc : float;
  b_nc2 : float;
  b_csnc : float;
  b_inv_nc : float;  (* extended space only, like the three below *)
  b_ss_nc : float;
  b_ss_x_nc : float;
  b_ss_cs : float;
  floor : float;
  oom_headroom : float;
}

type t = {
  impl : Join_impl.t;
  bhj : bool;  (* apply the OOM cliff: infeasible below small_gb/headroom *)
  extended : bool;  (* the b_inv_nc .. b_ss_cs terms are part of the chain *)
  k : coefs;
}

let make (model : Op_cost.t) impl ~small_gb =
  let lin =
    match impl with Join_impl.Smj -> model.Op_cost.smj | Join_impl.Bhj -> model.Op_cost.bhj
  in
  let b = lin.Linreg.coefficients in
  let space = model.Op_cost.space in
  if Array.length b <> Feature.dims space then
    invalid_arg "Kernel.make: coefficient count does not match the feature space";
  let extended = match space with Feature.Extended -> true | Feature.Paper -> false in
  let ext i = if extended then b.(i) else 0.0 in
  let ss = small_gb in
  {
    impl;
    bhj = (match impl with Join_impl.Bhj -> true | Join_impl.Smj -> false);
    extended;
    k =
      {
        small_gb;
        intercept = lin.Linreg.intercept;
        acc0 = 0.0 +. (b.(0) *. ss) +. (b.(1) *. (ss *. ss));
        b_cs = b.(2);
        b_cs2 = b.(3);
        b_nc = b.(4);
        b_nc2 = b.(5);
        b_csnc = b.(6);
        b_inv_nc = ext 7;
        b_ss_nc = ext 8;
        b_ss_x_nc = ext 9;
        b_ss_cs = ext 10;
        floor = model.Op_cost.floor;
        oom_headroom = model.Op_cost.oom_headroom;
      };
  }

let impl t = t.impl
let small_gb t = t.k.small_gb

(* One grid point, call-free so that [climb] below keeps every intermediate
   unboxed once this is inlined into it. The manual floor clamp returns the
   same double as [Float.max floor c] for floor > 0. (finite, nonzero), NaN
   included. *)
let[@inline] cost_at t ~nc ~cs =
  let k = t.k in
  if t.bhj && not (k.small_gb <= k.oom_headroom *. cs) then Float.infinity
  else begin
    let acc =
      k.acc0
      +. (k.b_cs *. cs)
      +. (k.b_cs2 *. (cs *. cs))
      +. (k.b_nc *. nc)
      +. (k.b_nc2 *. (nc *. nc))
      +. (k.b_csnc *. (cs *. nc))
    in
    let acc =
      if t.extended then begin
        let ss = k.small_gb in
        acc
        +. (k.b_inv_nc *. (1.0 /. nc))
        +. (k.b_ss_nc *. (ss /. nc))
        +. (k.b_ss_x_nc *. (ss *. nc))
        +. (k.b_ss_cs *. (ss /. cs))
      end
      else acc
    in
    let c = k.intercept +. acc in
    if k.floor > 0.0 && c <= k.floor then k.floor else c
  end

let predict t ~containers ~container_gb =
  cost_at t ~nc:(float_of_int containers) ~cs:container_gb

let predict_resources t (r : Resources.t) =
  predict t ~containers:r.Resources.containers ~container_gb:r.Resources.container_gb

(* Algorithm 1 over two unboxed coordinates: x0 = containers, x1 = container
   memory. The probe order (containers before memory, the backward step
   before the forward one), the in-place restore [(x +. ival) -. ival] —
   which need not give back x exactly, and the next probe starts from what
   it does give — and the strict-improvement stop all follow the generic
   array formulation in [Hill_climb.plan], so the trajectory, result, cost
   and evaluation count are the same. *)
type climb = { best : Resources.t; cost : float; evaluations : int }

let climb t (c : Conditions.t) ~(start : Resources.t) =
  let step0 = float_of_int c.Conditions.container_step and step1 = c.Conditions.gb_step in
  let lo0 = float_of_int c.Conditions.min_containers -. 1e-9
  and hi0 = float_of_int c.Conditions.max_containers +. 1e-9 in
  let lo1 = c.Conditions.min_gb -. 1e-9 and hi1 = c.Conditions.max_gb +. 1e-9 in
  let x0 = ref (float_of_int start.Resources.containers) in
  let x1 = ref start.Resources.container_gb in
  let evaluations = ref 0 in
  let curr_cost = ref 0.0 in
  let climbing = ref true in
  while !climbing do
    incr evaluations;
    let cost0 = cost_at t ~nc:(float_of_int (int_of_float (Float.round !x0))) ~cs:!x1 in
    curr_cost := cost0;
    let best_cost = ref cost0 in
    (* Dimension 0: containers. [best] is -1 (none), 0 (back) or 1 (fwd). *)
    let best = ref (-1) in
    for j = 0 to 1 do
      let ival = step0 *. (if j = 0 then -1.0 else 1.0) in
      let stepped = !x0 +. ival in
      if stepped <= hi0 && stepped >= lo0 then begin
        x0 := stepped;
        incr evaluations;
        let temp = cost_at t ~nc:(float_of_int (int_of_float (Float.round stepped))) ~cs:!x1 in
        x0 := !x0 -. ival;
        if temp < !best_cost then begin
          best_cost := temp;
          best := j
        end
      end
    done;
    if !best <> -1 then x0 := !x0 +. (step0 *. (if !best = 0 then -1.0 else 1.0));
    (* Dimension 1: container memory, probed from the updated x0. *)
    let best = ref (-1) in
    let nc = float_of_int (int_of_float (Float.round !x0)) in
    for j = 0 to 1 do
      let ival = step1 *. (if j = 0 then -1.0 else 1.0) in
      let stepped = !x1 +. ival in
      if stepped <= hi1 && stepped >= lo1 then begin
        x1 := stepped;
        incr evaluations;
        let temp = cost_at t ~nc ~cs:stepped in
        x1 := !x1 -. ival;
        if temp < !best_cost then begin
          best_cost := temp;
          best := j
        end
      end
    done;
    if !best <> -1 then x1 := !x1 +. (step1 *. (if !best = 0 then -1.0 else 1.0));
    (* Continue only on strict improvement; this also terminates when the
       cost model returns NaN (all comparisons false). *)
    climbing := !best_cost < cost0
  done;
  {
    best =
      Resources.make ~containers:(int_of_float (Float.round !x0)) ~container_gb:!x1;
    cost = !curr_cost;
    evaluations = !evaluations;
  }

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
  let k = t.k in
  let acc0 = k.acc0 in
  let b_cs = k.b_cs and b_cs2 = k.b_cs2 in
  let b_nc = k.b_nc and b_nc2 = k.b_nc2 and b_csnc = k.b_csnc in
  let b_inv_nc = k.b_inv_nc and b_ss_nc = k.b_ss_nc and b_ss_x_nc = k.b_ss_x_nc in
  let intercept = k.intercept and floor = k.floor in
  let is_bhj = t.bhj and extended = t.extended in
  let headroom = k.oom_headroom and small = k.small_gb in
  let min_containers = c.Conditions.min_containers and cstep = c.Conditions.container_step in
  for j = 0 to ngb - 1 do
    let cs = c.Conditions.min_gb +. (float_of_int j *. c.Conditions.gb_step) in
    let base = j * nc_steps in
    if is_bhj && not (small <= headroom *. cs) then
      Array.fill buf base nc_steps Float.infinity
    else begin
      let row_acc = acc0 +. (b_cs *. cs) +. (b_cs2 *. (cs *. cs)) in
      (* The ss/cs term's value is per row; its addition stays last. *)
      let row_ss_cs = k.b_ss_cs *. (small /. cs) in
      for i = 0 to nc_steps - 1 do
        let nc = float_of_int (min_containers + (i * cstep)) in
        let acc = row_acc +. (b_nc *. nc) +. (b_nc2 *. (nc *. nc)) +. (b_csnc *. (cs *. nc)) in
        let acc =
          if extended then
            acc
            +. (b_inv_nc *. (1.0 /. nc))
            +. (b_ss_nc *. (small /. nc))
            +. (b_ss_x_nc *. (small *. nc))
            +. row_ss_cs
          else acc
        in
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
