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
   acc0 below is the first two additions, [row_prefix] the next two, and
   [row_cost] finishes the chain — the grouping is unchanged, so every
   intermediate is the same IEEE double the scalar path produces. The extended terms come
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

(* The chain, written once. A memory row hoists its prefix (the first four
   additions) and its [ss/cs] term, whose addition stays last in the chain;
   [row_cost] finishes the chain for one cell of a feasible row, so a
   hoisting caller performs the same operations on the same operands as
   [cost_at] and gets the same bits. Everything here is inlined, so [climb],
   [sweep] and [minimum] keep every intermediate unboxed. The manual floor
   clamp returns the same double as [Float.max floor c] for floor > 0.
   (finite, nonzero), NaN included. *)
let[@inline] below_cut t ~cs = t.bhj && not (t.k.small_gb <= t.k.oom_headroom *. cs)
let[@inline] row_prefix t ~cs = t.k.acc0 +. (t.k.b_cs *. cs) +. (t.k.b_cs2 *. (cs *. cs))
let[@inline] row_ss_cs t ~cs = if t.extended then t.k.b_ss_cs *. (t.k.small_gb /. cs) else 0.0

let[@inline] row_cost t ~row_acc ~row_ss_cs ~cs ~nc =
  let k = t.k in
  let acc = row_acc +. (k.b_nc *. nc) +. (k.b_nc2 *. (nc *. nc)) +. (k.b_csnc *. (cs *. nc)) in
  let acc =
    if t.extended then begin
      let ss = k.small_gb in
      acc
      +. (k.b_inv_nc *. (1.0 /. nc))
      +. (k.b_ss_nc *. (ss /. nc))
      +. (k.b_ss_x_nc *. (ss *. nc))
      +. row_ss_cs
    end
    else acc
  in
  let c = k.intercept +. acc in
  if k.floor > 0.0 && c <= k.floor then k.floor else c

(* One grid point. *)
let[@inline] cost_at t ~nc ~cs =
  if below_cut t ~cs then Float.infinity
  else row_cost t ~row_acc:(row_prefix t ~cs) ~row_ss_cs:(row_ss_cs t ~cs) ~cs ~nc

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
  (* The inner loop is inlined float arithmetic into a float array: no
     allocation. *)
  let min_containers = c.Conditions.min_containers and cstep = c.Conditions.container_step in
  for j = 0 to ngb - 1 do
    let cs = c.Conditions.min_gb +. (float_of_int j *. c.Conditions.gb_step) in
    let base = j * nc_steps in
    if below_cut t ~cs then Array.fill buf base nc_steps Float.infinity
    else begin
      let row_acc = row_prefix t ~cs and row_ss_cs = row_ss_cs t ~cs in
      for i = 0 to nc_steps - 1 do
        let nc = float_of_int (min_containers + (i * cstep)) in
        buf.(base + i) <- row_cost t ~row_acc ~row_ss_cs ~cs ~nc
      done
    end
  done;
  Raqo_obs.Trace.finish span

(* Exact grid minimum in closed form.

   Fix a memory row (cs). In real arithmetic the kernel's unclamped cost is
     h(nc) = a + b*nc + c*nc^2 + d/nc
   with a = intercept + acc0 + b_cs*cs + b_cs2*cs^2 + b_ss_cs*ss/cs,
        b = b_nc + b_csnc*cs + b_ss_x_nc*ss,  c = b_nc2,  d = b_inv_nc + b_ss_nc*ss,
   and the stored cost is F = max(floor, h). Its slope is h' = p/nc^2 with
   p(x) = 2c*x^3 + b*x^2 - d, a cubic with at most two positive roots, so h
   has at most one interior local minimum on the row. Take as candidates the
   row's two ends and the grid cells on either side of that minimum: between
   two neighbouring candidates F has no interior local minimum (it is
   monotone or single-peaked), so on every cell between two cells of that
   stretch it is at least the smaller of their two values.

   The float cost g of a cell differs from F by less than err, a bound on the
   rounding of the row's terms (about 13 unit roundoffs of their absolute
   sum). A cell with g > best + band (band >= 2 err) has F > best + err. So
   the search evaluates the candidates, then walks outward from every
   candidate inside the band until a cell leaves it. Every cell it leaves
   out lies, on one stretch, between two cells with F > best + err (walk
   exits, or candidates outside the band), so it computes strictly above
   the minimum; what it evaluates it compares exactly, earliest cell first
   on ties. Rounding in the root brackets can lengthen a walk but not move
   the answer.

   Floor plateaus. g >= floor always, so the first row whose minimum is the
   floor ends the search, at that row's first floor cell. Walking left
   through a plateau would visit every cell on it; instead the plateau's
   left edge is located on q(x) = x*(h(x) - floor) = c*x^3 + b*x^2 +
   (a - floor)*x + d by bisection over the stretch's cells, and the walk
   starts from the first floor cell found there.

   A kernel whose terms could overflow (or are NaN) anywhere on the grid is
   not solved: every row is swept in order with the sweep's exact argmin
   scan, NaN behaviour included, and the result says so. *)

type minimum = {
  best : Resources.t;
  cost : float;
  evaluations : int;
  swept : bool;
}

let m_swept_rows = Raqo_obs.Metrics.counter "raqo_kernel_swept_rows_total"

(* [x] in the extended space, else 0. *)
let[@inline] ext_on t x = if t.extended then x else 0.0

let[@inline] grid_nc (c : Conditions.t) i =
  float_of_int (c.Conditions.min_containers + (i * c.Conditions.container_step))

(* x^2 * h'(x). *)
let[@inline] slope_poly ~b ~c ~d x = ((((2.0 *. c) *. x) +. b) *. x *. x) -. d

(* The first cell k of a bracket (k, k+1) on which [slope_poly] turns
   positive, by bisection over cells [lo, hi]; the caller has seen it <= 0 at
   [lo] and > 0 at [hi]. *)
let[@inline] rising_crossing cond ~b ~c ~d lo hi =
  let lo = ref lo and hi = ref hi in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if slope_poly ~b ~c ~d (grid_nc cond mid) > 0.0 then hi := mid else lo := mid
  done;
  !lo

(* Candidate slot [q] of a row: its start, the two cells of each bracket,
   and its end; -1 when the slot is empty or repeats an earlier one. *)
let[@inline] slot ~s1 ~s2 ~s3 ~s4 ~s5 q =
  match q with 0 -> 0 | 1 -> s1 | 2 -> s2 | 3 -> s3 | 4 -> s4 | _ -> s5

let[@inline] is_candidate ~s1 ~s2 ~s3 ~s4 ~s5 i =
  i = 0 || i = s1 || i = s2 || i = s3 || i = s4 || i = s5

(* [g] may still compute at or below [best]: inside the rounding band, the
   band's own rounding included. *)
let[@inline] within_band ~band best g = g <= best +. (band +. (Float.abs best *. Float.epsilon))

let minimum t (cond : Conditions.t) =
  let n = Conditions.steps_containers cond and ngb = Conditions.steps_gb cond in
  let k = t.k in
  let ss = k.small_gb and floor = k.floor in
  let floored = floor > 0.0 in
  let x0 = grid_nc cond 0 and xn = grid_nc cond (n - 1) in
  let cs0 = cond.Conditions.min_gb in
  let csn = cs0 +. (float_of_int (ngb - 1) *. cond.Conditions.gb_step) in
  let ass = Float.abs ss in
  (* Every term's magnitude over the whole grid, and the raw products the
     kernel forms: below 1e300 nothing overflows, so no cell is NaN or
     infinite (the BHJ cut aside). NaN anywhere fails the test. *)
  let guard =
    Float.abs k.intercept +. Float.abs k.acc0
    +. (Float.abs k.b_cs *. csn)
    +. (Float.abs k.b_cs2 *. csn *. csn)
    +. ((Float.abs k.b_nc +. (Float.abs k.b_csnc *. csn)) *. xn)
    +. (Float.abs k.b_nc2 *. xn *. xn)
    +. ext_on t
         ((Float.abs k.b_inv_nc /. x0)
         +. (Float.abs k.b_ss_nc *. ass /. x0)
         +. (Float.abs k.b_ss_x_nc *. ass *. xn)
         +. (Float.abs k.b_ss_cs *. ass /. cs0))
    +. (csn *. xn) +. (csn *. csn) +. (ass *. xn) +. (ass *. ass) +. (ass /. cs0)
  in
  let evaluations = ref 0 and swept = not (guard < 1e300) in
  let best = ref Float.infinity and best_idx = ref 0 in
  if swept then begin
    (* The sweep's argmin scan, cell by cell in sweep order. *)
    for j = 0 to ngb - 1 do
      let cs = cs0 +. (float_of_int j *. cond.Conditions.gb_step) in
      for i = 0 to n - 1 do
        let g = cost_at t ~nc:(grid_nc cond i) ~cs in
        if (i = 0 && j = 0) || not (!best <= g) then begin
          best := g;
          best_idx := (j * n) + i
        end
      done
    done;
    evaluations := n * ngb
  end
  else begin
    (* No term depends on nc: every cell of a row computes the same bits. *)
    let flat =
      k.b_nc = 0.0 && k.b_nc2 = 0.0 && k.b_csnc = 0.0
      && ((not t.extended) || (k.b_inv_nc = 0.0 && k.b_ss_nc = 0.0 && k.b_ss_x_nc = 0.0))
    in
    let j = ref 0 in
    while !j < ngb do
      let cs = cs0 +. (float_of_int !j *. cond.Conditions.gb_step) in
      let base = !j * n in
      if below_cut t ~cs then () (* below the OOM cut *)
      else if flat then begin
        let g = cost_at t ~nc:x0 ~cs in
        incr evaluations;
        if g < !best then begin
          best := g;
          best_idx := base
        end
      end
      else begin
        let row_acc = row_prefix t ~cs and row_ss_cs = row_ss_cs t ~cs in
        let a = k.intercept +. (row_acc +. row_ss_cs) in
        let b = k.b_nc +. (k.b_csnc *. cs) +. ext_on t (k.b_ss_x_nc *. ss) in
        let c = k.b_nc2 in
        let d = ext_on t (k.b_inv_nc +. (k.b_ss_nc *. ss)) in
        let band =
          (32.0 *. Float.epsilon
          *. (Float.abs k.intercept +. Float.abs k.acc0
             +. Float.abs (k.b_cs *. cs)
             +. Float.abs (k.b_cs2 *. (cs *. cs))
             +. ((Float.abs k.b_nc +. Float.abs (k.b_csnc *. cs)) *. xn)
             +. (Float.abs c *. xn *. xn)
             +. ext_on t
                  ((Float.abs k.b_inv_nc /. x0)
                  +. (Float.abs k.b_ss_nc *. ass /. x0)
                  +. (Float.abs k.b_ss_x_nc *. ass *. xn)
                  +. Float.abs row_ss_cs)))
          +. 1e-300
        in
        (* Brackets of h's interior minimum: [kb] from a rising crossing of
           p on the piece where p increases, [sb] around p's own turning
           point xc when p may cross upward, or nearly touch zero, between
           the two cells around xc. *)
        let kb = ref (-1) and sb = ref (-1) in
        if n >= 3 then begin
          let xc = if c <> 0.0 then -.b /. (3.0 *. c) else Float.nan in
          let inside = xc > x0 && xc < xn in
          let ic = ref (-1) in
          if inside then begin
            ic :=
              max 0
                (min (n - 2)
                   (int_of_float ((xc -. x0) /. float_of_int cond.Conditions.container_step)));
            while !ic > 0 && grid_nc cond !ic > xc do
              decr ic
            done;
            while !ic < n - 2 && grid_nc cond (!ic + 1) <= xc do
              incr ic
            done;
            let pa = slope_poly ~b ~c ~d (grid_nc cond !ic)
            and pc = slope_poly ~b ~c ~d xc
            and pb = slope_poly ~b ~c ~d (grid_nc cond (!ic + 1)) in
            let tol =
              32.0 *. Float.epsilon
              *. ((Float.abs (2.0 *. c) *. xc *. xc *. xc) +. (Float.abs b *. xc *. xc)
                 +. Float.abs d)
            in
            if (pa <= tol && pc >= -.tol) || (pc <= tol && pb >= -.tol) then sb := !ic
          end;
          (* The cells where p increases: after xc when c > 0, before it
             when c < 0, everywhere when p is a rising parabola. *)
          let rising_everywhere =
            if c > 0.0 then xc <= x0 else if c < 0.0 then xc >= xn else b > 0.0
          in
          let lo = if inside && c > 0.0 then !ic + 1 else 0 in
          let hi =
            if inside && c < 0.0 then !ic
            else if (inside && c > 0.0) || rising_everywhere then n - 1
            else -1
          in
          if hi > lo
             && slope_poly ~b ~c ~d (grid_nc cond lo) <= 0.0
             && slope_poly ~b ~c ~d (grid_nc cond hi) > 0.0
          then kb := rising_crossing cond ~b ~c ~d lo hi
        end;
        (* The distinct candidate cells, in slot order. *)
        let kb = !kb and sb = !sb in
        let s1 = if kb > 0 then kb else -1 in
        let s2 = if kb >= 0 then kb + 1 else -1 in
        let s3 = if sb > 0 && sb <> s1 && sb <> s2 then sb else -1 in
        let s4 = if sb >= 0 && sb + 1 <> s1 && sb + 1 <> s2 then sb + 1 else -1 in
        let last = n - 1 in
        let s5 =
          if last > 0 && last <> s1 && last <> s2 && last <> s3 && last <> s4 then last else -1
        in
        (* Pass 1: every distinct candidate, unless the row's first cell is
           already on the floor. *)
        let g0 = ref 0.0 and g1 = ref 0.0 and g2 = ref 0.0 in
        let g3 = ref 0.0 and g4 = ref 0.0 and g5 = ref 0.0 in
        for q = 0 to 5 do
          let i = slot ~s1 ~s2 ~s3 ~s4 ~s5 q in
          if i >= 0 && not (floored && !best = floor && !best_idx = base) then begin
            let g = row_cost t ~row_acc ~row_ss_cs ~cs ~nc:(grid_nc cond i) in
            incr evaluations;
            if g < !best || (g = !best && base + i < !best_idx) then begin
              best := g;
              best_idx := base + i
            end;
            match q with
            | 0 -> g0 := g
            | 1 -> g1 := g
            | 2 -> g2 := g
            | 3 -> g3 := g
            | 4 -> g4 := g
            | _ -> g5 := g
          end
        done;
        (* On the floor: only cells before the first floor candidate can
           still win, and that candidate's plateau is entered from its edge
           below. *)
        let on_floor = floored && !best = floor in
        let first_floor = if on_floor then !best_idx - base else n in
        (* Pass 2: walk out from every candidate inside the band. *)
        for q = 0 to 5 do
          let c = slot ~s1 ~s2 ~s3 ~s4 ~s5 q in
          let gq =
            match q with 0 -> !g0 | 1 -> !g1 | 2 -> !g2 | 3 -> !g3 | 4 -> !g4 | _ -> !g5
          in
          if c >= 0 && c < first_floor && within_band ~band !best gq then
            for side = 0 to 1 do
              let dir = if side = 0 then -1 else 1 in
              let i = ref (c + dir) and walking = ref true in
              while !walking do
                let ii = !i in
                if ii < 0 || ii >= first_floor || ii >= n || is_candidate ~s1 ~s2 ~s3 ~s4 ~s5 ii
                then
                  walking := false
                else begin
                  let g = row_cost t ~row_acc ~row_ss_cs ~cs ~nc:(grid_nc cond ii) in
                  incr evaluations;
                  if g < !best || (g = !best && base + ii < !best_idx) then begin
                    best := g;
                    best_idx := base + ii
                  end;
                  (* Right of a floor cell nothing can win a tie. *)
                  if (not (within_band ~band !best g)) || (dir > 0 && floored && g = floor)
                  then walking := false
                  else i := ii + dir
                end
              done
            done
        done;
        if on_floor && first_floor > 0 then begin
          (* The candidate just before the first floor candidate. *)
          let prev = ref 0 in
          for q = 0 to 5 do
            let c = slot ~s1 ~s2 ~s3 ~s4 ~s5 q in
            if c < first_floor && c > !prev then prev := c
          done;
          let prev = !prev in
          if first_floor - prev > 1 then begin
            let am = a -. floor in
            let lo = ref prev and hi = ref first_floor in
            while !hi - !lo > 1 do
              let mid = (!lo + !hi) / 2 in
              let x = grid_nc cond mid in
              if ((((c *. x) +. b) *. x) +. am) *. x +. d > 0.0 then lo := mid else hi := mid
            done;
            (* Forward from the predicted edge to the first floor cell ... *)
            let i = ref !hi and found = ref false in
            while (not !found) && !i < first_floor do
              let g = row_cost t ~row_acc ~row_ss_cs ~cs ~nc:(grid_nc cond !i) in
              incr evaluations;
              if g = floor then found := true else incr i
            done;
            if !i < !best_idx - base then best_idx := base + !i;
            (* ... then back through the band for any earlier one. *)
            let i = ref (!i - 1) and walking = ref true in
            while !walking do
              if !i <= prev then walking := false
              else begin
                let g = row_cost t ~row_acc ~row_ss_cs ~cs ~nc:(grid_nc cond !i) in
                incr evaluations;
                if g = floor && base + !i < !best_idx then best_idx := base + !i;
                if within_band ~band floor g then decr i else walking := false
              end
            done
          end
        end
      end;
      if floored && !best = floor then j := ngb else incr j
    done
  end;
  if swept && Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.add m_swept_rows ngb;
  let i = !best_idx mod n and j = !best_idx / n in
  {
    best =
      Resources.make
        ~containers:(cond.Conditions.min_containers + (i * cond.Conditions.container_step))
        ~container_gb:(cs0 +. (float_of_int j *. cond.Conditions.gb_step));
    cost = !best;
    evaluations = !evaluations;
    swept;
  }
