module Pricing = Raqo_cluster.Pricing
module Queue_sim = Raqo_cluster.Queue_sim
module Rng = Raqo_util.Rng
module M = Raqo_obs.Metrics

type query = {
  name : string;
  tenant : string;
  weight : float;
  arrival : float;
  slo : float option;
  surface : Surface.t;
}

type point = { alloc : int array; makespan : float; dollars : float; violations : int }
type mode = Exact | Randomized

type outcome = {
  mode : mode;
  frontier : point list;
  equal_split : point;
  evaluated : int;
}

let mode_name = function Exact -> "exact" | Randomized -> "randomized"

let m_evaluations = M.counter "raqo_alloc_evaluations_total"
let m_exact_states = M.counter "raqo_alloc_exact_states_total"
let m_moves = M.counter "raqo_alloc_moves_total"
let m_frontier = M.counter "raqo_alloc_frontier_points_total"

let obs_on () = Raqo_obs.Obs.enabled ()

(* Weak (<= everywhere) and strict Pareto dominance over the three
   objectives; allocations are compared on exact floats — every objective is
   a deterministic function of the allocation. *)
let covers a b = a.makespan <= b.makespan && a.dollars <= b.dollars && a.violations <= b.violations
let dominates a b = covers a b && (a.makespan < b.makespan || a.dollars < b.dollars || a.violations < b.violations)

let query ?(tenant = "default") ?(weight = 1.0) ?(arrival = 0.0) ?slo ~name surface =
  if weight <= 0.0 then invalid_arg "Allocator.query: weight must be positive";
  if arrival < 0.0 then invalid_arg "Allocator.query: arrival must be >= 0";
  (match slo with
  | Some s when s <= 0.0 -> invalid_arg "Allocator.query: slo must be positive"
  | _ -> ());
  { name; tenant; weight; arrival; slo; surface }

let evaluate ?(pricing = Pricing.flat Pricing.default) queries alloc =
  if Array.length alloc <> Array.length queries then
    invalid_arg "Allocator.evaluate: allocation arity mismatch";
  if obs_on () then M.Counter.inc m_evaluations;
  let makespan = ref 0.0 and dollars = ref 0.0 and violations = ref 0 in
  Array.iteri
    (fun i q ->
      let latency = Surface.latency_at q.surface alloc.(i) in
      let finish = q.arrival +. latency in
      if finish > !makespan then makespan := finish;
      dollars :=
        !dollars
        +. Pricing.spot_cost pricing
             ~gb_seconds:(Surface.gb_seconds_at q.surface alloc.(i))
             ~start:q.arrival ~finish;
      match q.slo with Some s when latency > s -> incr violations | _ -> ())
    queries;
  { alloc = Array.copy alloc; makespan = !makespan; dollars = !dollars; violations = !violations }

(* ---------- fairness floors ---------- *)

(* Each query is guaranteed [fairness] x its weight share of the budget
   (rounded down onto its cap grid, never below the grid minimum):
   [fairness = 0] is pure efficiency, [fairness = 1] a full weighted
   max-min split. *)
let floors ~budget ~fairness queries =
  if fairness < 0.0 || fairness > 1.0 then
    invalid_arg "Allocator: fairness must be in [0, 1]";
  if budget < 1 then invalid_arg "Allocator: budget must be >= 1";
  let total_weight = Array.fold_left (fun acc q -> acc +. q.weight) 0.0 queries in
  let floors =
    Array.map
      (fun q ->
        let share = fairness *. q.weight /. total_weight *. float_of_int budget in
        Surface.cap_floor q.surface (int_of_float share))
      queries
  in
  if Array.fold_left ( + ) 0 floors > budget then
    invalid_arg "Allocator: budget below the minimum per-query allocations";
  floors

(* Round-robin one grid step per query per pass until neither budget nor cap
   headroom lets anyone grow — the naive "equal split" every-query-alike
   baseline (and the randomized search's first start). *)
let equal_split_alloc ~budget ~floors queries =
  let alloc = Array.copy floors in
  let remaining = ref (budget - Array.fold_left ( + ) 0 alloc) in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iteri
      (fun i q ->
        let step = Surface.cap_step q.surface in
        if alloc.(i) + step <= Surface.max_cap q.surface && step <= !remaining then begin
          alloc.(i) <- alloc.(i) + step;
          remaining := !remaining - step;
          progressed := true
        end)
      queries
  done;
  alloc

let equal_split ?pricing ~budget ~fairness queries =
  let floors = floors ~budget ~fairness queries in
  evaluate ?pricing queries (equal_split_alloc ~budget ~floors queries)

(* ---------- frontier filtering ---------- *)

let compare_points a b =
  let c = Float.compare a.makespan b.makespan in
  if c <> 0 then c
  else
    let c = Float.compare a.dollars b.dollars in
    if c <> 0 then c
    else
      let c = compare a.violations b.violations in
      if c <> 0 then c else compare a.alloc b.alloc

(* Non-dominated subset, duplicates (same objective vector) collapsed onto
   the lexicographically-smallest allocation, sorted by makespan. One sweep
   in [compare_points] order: every point that covers [p] sorts before it
   (an equal-vector twin only when its allocation is smaller), and every
   earlier point already has makespan <= p's, so [p] is dropped exactly when
   some earlier point with at most [p]'s violations has dollars <= p's.
   [least.(v)] is the least dollars seen at [v] violations; [nan] (no point
   yet) fails every [<=]. *)
let frontier_of points =
  let sorted = List.sort_uniq compare_points points in
  let vmax = List.fold_left (fun acc p -> max acc p.violations) 0 sorted in
  let least = Array.make (vmax + 1) Float.nan in
  let sweep kept p =
    let covered = ref false in
    for v = 0 to p.violations do
      if least.(v) <= p.dollars then covered := true
    done;
    if not (least.(p.violations) <= p.dollars) then least.(p.violations) <- p.dollars;
    if !covered then kept else p :: kept
  in
  let front = List.rev (List.fold_left sweep [] sorted) in
  if obs_on () then M.Counter.add m_frontier (List.length front);
  front

(* ---------- exact Pareto DP ---------- *)

exception Too_large

(* A surviving partial allocation: its objective vector so far, the caps
   chosen (last query first), and when it entered its cell ([seq] grows with
   every accepted insert). *)
type partial = { pm : float; pd : float; pv : int; seq : int; chosen : int list }

(* Per-(query, cap) contribution, precomputed so the DP inner loop is pure
   arithmetic. *)
let choices ?(pricing = Pricing.flat Pricing.default) ~budget ~floor q =
  Surface.caps q.surface
  |> Array.to_list
  |> List.filter_map (fun c ->
         if c < floor || c > budget then None
         else
           let latency = Surface.latency_at q.surface c in
           let finish = q.arrival +. latency in
           let dollars =
             Pricing.spot_cost pricing
               ~gb_seconds:(Surface.gb_seconds_at q.surface c)
               ~start:q.arrival ~finish
           in
           let violations = match q.slo with Some s when latency > s -> 1 | _ -> 0 in
           Some (c, finish, dollars, violations))
  |> Array.of_list

(* One violation count's share of a DP cell: a staircase of mutually
   non-dominated partials, makespan strictly ascending and dollars strictly
   descending in [ps.(0 .. len - 1)]. *)
type stair = { mutable len : int; mutable ps : partial array }

let no_partial = { pm = Float.nan; pd = Float.nan; pv = 0; seq = 0; chosen = [] }

(* The last index whose makespan is <= [m] (-1 if none), and the first
   whose makespan is >= [m] ([len] if none). *)
let last_le s m =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if s.ps.(mid).pm <= m then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let first_ge s m =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if s.ps.(mid).pm < m then lo := mid + 1 else hi := mid
  done;
  !lo

(* The last index whose dollars are >= [d] (-1 if none). *)
let last_dollars_ge s d =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if s.ps.(mid).pd >= d then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Some partial at <= [v] violations covers (m, d, v): on each staircase the
   last point with makespan <= m has the least dollars among those. *)
let covered cell m d v =
  let hit = ref false and v' = ref 0 in
  while (not !hit) && !v' <= v do
    let s = cell.(!v') in
    let k = last_le s m in
    hit := k >= 0 && s.ps.(k).pd <= d;
    incr v'
  done;
  !hit

(* Drops the points of [s] that (m, d) covers — one contiguous run, from the
   first makespan >= m to the last dollars >= d — leaving a gap of [room]
   slots at its start; returns the gap's index and how many were dropped.
   Vacated slots are reset to [no_partial] so dropped partials can be
   collected. *)
let evict s m d ~room =
  let lo = first_ge s m in
  let hi = max (lo - 1) (last_dollars_ge s d) in
  let dropped = hi - lo + 1 in
  let len' = s.len - dropped + room in
  if len' > Array.length s.ps then begin
    let ps = Array.make (max 8 (2 * len')) no_partial in
    Array.blit s.ps 0 ps 0 lo;
    Array.blit s.ps (hi + 1) ps (lo + room) (s.len - hi - 1);
    s.ps <- ps
  end
  else if dropped <> room then begin
    Array.blit s.ps (hi + 1) s.ps (lo + room) (s.len - hi - 1);
    if len' < s.len then Array.fill s.ps len' (s.len - len') no_partial
  end;
  s.len <- len';
  (lo, dropped)

(* Exact tri-objective DP over (query prefix, containers used): each cell
   keeps the non-dominated partial vectors only. Pruning is lossless because
   every objective accumulates monotonically (max for makespan, sums for
   dollars and violations): a dominated prefix stays dominated under any
   common extension.

   A cell is one staircase per violation count, so a dominance test is a
   binary search per count and an insert evicts one contiguous run per
   count. The survivors are exactly those of a plain list of partials
   extended newest-first, where a candidate enters unless some member
   covers it ([<=] on all three, so of two equal vectors the first inserted
   stays) and then evicts every member it covers: each cell's survivors are
   extended in descending [seq]. *)
let exact ?(max_states = 500_000) ?pricing ~budget ~fairness queries =
  Raqo_obs.Trace.with_ ~name:"alloc/exact" @@ fun () ->
  let n = Array.length queries in
  let floors = floors ~budget ~fairness queries in
  let suffix = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) + floors.(i)
  done;
  let vmax = Array.fold_left (fun acc q -> if q.slo = None then acc else acc + 1) 0 queries in
  let cells =
    Array.init (budget + 1) (fun _ -> Array.init (vmax + 1) (fun _ -> { len = 0; ps = [||] }))
  in
  let states = ref 0 and peak = ref 0 and evaluated = ref 0 and seq = ref 0 in
  let dp = Array.make (budget + 1) [||] in
  dp.(0) <- [| { pm = 0.0; pd = 0.0; pv = 0; seq = 0; chosen = [] } |];
  (* Empties the staircases into [dp], each cell newest-first. *)
  let harvest () =
    Array.iteri
      (fun b cell ->
        let parts = ref [] in
        Array.iter
          (fun s ->
            for k = 0 to s.len - 1 do
              parts := s.ps.(k) :: !parts
            done;
            Array.fill s.ps 0 s.len no_partial;
            s.len <- 0)
          cell;
        let parts = Array.of_list !parts in
        Array.sort (fun a b -> Int.compare b.seq a.seq) parts;
        dp.(b) <- parts)
      cells
  in
  try
    for i = 0 to n - 1 do
      let opts = choices ?pricing ~budget ~floor:floors.(i) queries.(i) in
      states := 0;
      for b = 0 to budget do
        Array.iter
          (fun (c, finish, dollars, violations) ->
            if b + c + suffix.(i + 1) <= budget then begin
              let cell = cells.(b + c) in
              Array.iter
                (fun p ->
                  incr evaluated;
                  let m = Float.max p.pm finish
                  and d = p.pd +. dollars
                  and v = p.pv + violations in
                  if not (covered cell m d v) then begin
                    for v' = v + 1 to vmax do
                      states := !states - snd (evict cell.(v') m d ~room:0)
                    done;
                    let s = cell.(v) in
                    let at, dropped = evict s m d ~room:1 in
                    incr seq;
                    s.ps.(at) <- { pm = m; pd = d; pv = v; seq = !seq; chosen = c :: p.chosen };
                    states := !states - dropped + 1;
                    if !states > !peak then peak := !states;
                    if !states > max_states then raise Too_large
                  end)
                dp.(b)
            end)
          opts
      done;
      harvest ()
    done;
    if obs_on () then M.Counter.add m_exact_states !peak;
    let points =
      Array.to_list dp
      |> List.concat_map (fun parts ->
             Array.to_list parts
             |> List.map (fun p ->
                    {
                      alloc = Array.of_list (List.rev p.chosen);
                      makespan = p.pm;
                      dollars = p.pd;
                      violations = p.pv;
                    }))
    in
    if obs_on () then M.Counter.add m_evaluations !evaluated;
    Some
      {
        mode = Exact;
        frontier = frontier_of points;
        equal_split =
          evaluate ?pricing queries (equal_split_alloc ~budget ~floors queries);
        evaluated = !evaluated;
      }
  with Too_large -> None

(* ---------- seeded randomized local search ---------- *)

let random_fill rng ~budget ~floors queries =
  let n = Array.length queries in
  let alloc = Array.copy floors in
  let remaining = ref (budget - Array.fold_left ( + ) 0 alloc) in
  let stuck = ref 0 in
  while !stuck < 2 * n && !remaining > 0 do
    let i = Rng.int rng n in
    let step = Surface.cap_step queries.(i).surface in
    if alloc.(i) + step <= Surface.max_cap queries.(i).surface && step <= !remaining then begin
      alloc.(i) <- alloc.(i) + step;
      remaining := !remaining - step;
      stuck := 0
    end
    else incr stuck
  done;
  alloc

(* Multi-restart greedy local search over container-transfer moves, seeded
   from the equal split (so the reported frontier's best makespan can never
   exceed the naive baseline's) and from random feasible allocations, each
   restart descending a randomly weighted scalarization. Every evaluated
   allocation lands in the archive; the frontier is the archive's
   non-dominated subset. Fully deterministic for a fixed seed. *)
let restarts = 8
let moves = 256

let randomized ?pricing ~seed ~budget ~fairness queries =
  Raqo_obs.Trace.with_ ~name:"alloc/randomized" @@ fun () ->
  let n = Array.length queries in
  let floors = floors ~budget ~fairness queries in
  let rng = Rng.create seed in
  let archive = ref [] and evaluated = ref 0 in
  let eval alloc =
    incr evaluated;
    let p = evaluate ?pricing queries alloc in
    archive := p :: !archive;
    p
  in
  let es_alloc = equal_split_alloc ~budget ~floors queries in
  let es = eval es_alloc in
  for restart = 0 to restarts - 1 do
    let wt = Rng.float rng 1.0 in
    let wv = Rng.float rng 100.0 in
    let score p =
      (wt *. p.makespan)
      +. ((1.0 -. wt) *. 1000.0 *. p.dollars)
      +. (wv *. float_of_int p.violations)
    in
    let current =
      if restart = 0 then Array.copy es_alloc else random_fill rng ~budget ~floors queries
    in
    let used = ref (Array.fold_left ( + ) 0 current) in
    let best = ref (score (eval current)) in
    for _ = 1 to moves do
      if obs_on () then M.Counter.inc m_moves;
      let i = Rng.int rng n and j = Rng.int rng n in
      let si = Surface.cap_step queries.(i).surface in
      let sj = Surface.cap_step queries.(j).surface in
      let can_shrink = current.(i) - si >= floors.(i) in
      let can_grow cost = current.(j) + sj <= Surface.max_cap queries.(j).surface && !used + cost <= budget in
      let delta =
        match Rng.int rng 3 with
        | 0 when i <> j && can_shrink && can_grow (sj - si) -> Some (-si, sj)
        | 1 when can_grow sj -> Some (0, sj)
        | 2 when can_shrink -> Some (-si, 0)
        | _ -> None
      in
      match delta with
      | None -> ()
      | Some (di, dj) ->
          current.(i) <- current.(i) + di;
          current.(j) <- current.(j) + dj;
          used := !used + di + dj;
          let s = score (eval current) in
          if s < !best then best := s
          else begin
            current.(i) <- current.(i) - di;
            current.(j) <- current.(j) - dj;
            used := !used - di - dj
          end
    done
  done;
  { mode = Randomized; frontier = frontier_of !archive; equal_split = es; evaluated = !evaluated }

(* ---------- mode dispatch ---------- *)

(* A cheap upper bound on the exact DP's inner-loop breadth, used by [Auto]
   to decide whether exhaustive search is affordable. *)
let exact_work ~budget queries =
  let max_caps =
    Array.fold_left (fun acc q -> max acc (Array.length (Surface.caps q.surface))) 0 queries
  in
  Array.length queries * (budget + 1) * max_caps

type want = Want_exact | Want_randomized | Auto

let want_of_string = function
  | "exact" -> Some Want_exact
  | "randomized" -> Some Want_randomized
  | "auto" -> Some Auto
  | _ -> None

let want_names = [ "exact"; "randomized"; "auto" ]

let search ?(want = Auto) ?pricing ~seed ~budget ~fairness queries =
  let fallback () = randomized ?pricing ~seed ~budget ~fairness queries in
  match want with
  | Want_randomized -> fallback ()
  | Want_exact -> (
      match exact ?pricing ~budget ~fairness queries with
      | Some outcome -> outcome
      | None -> fallback ())
  | Auto ->
      if exact_work ~budget queries <= 200_000 then
        match exact ?pricing ~budget ~fairness queries with
        | Some outcome -> outcome
        | None -> fallback ()
      else fallback ()

(* ---------- picking one frontier point ---------- *)

type objective = Makespan | Dollars | Balanced

(* Strict [<] keeps the earlier point on ties, so equal outcomes choose
   equal points. *)
let choose objective outcome =
  let best score =
    match outcome.frontier with
    | [] -> outcome.equal_split
    | p :: rest ->
        List.fold_left (fun acc q -> if score q < score acc then q else acc) p rest
  in
  match objective with
  | Makespan -> best (fun p -> p.makespan)
  | Dollars -> best (fun p -> p.dollars)
  | Balanced ->
      best (fun p ->
          p.makespan +. (1000.0 *. p.dollars) +. (1000.0 *. float_of_int p.violations))

(* ---------- independent (per-query) baseline ---------- *)

(* What today's one-query-at-a-time pipeline would do: every query asks for
   its standalone preferred cap and the cluster runs them FIFO through
   {!Raqo_cluster.Queue_sim} — later arrivals queue instead of sharing. SLO
   violations count queueing against the response time. *)
let independent ?(pricing = Pricing.flat Pricing.default) ~budget queries =
  let n = Array.length queries in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare queries.(a).arrival queries.(b).arrival in
      if c <> 0 then c else compare a b)
    order;
  let alloc = Array.make n 0 in
  let jobs =
    Array.to_list order
    |> List.map (fun i ->
           let q = queries.(i) in
           let cap = min (Surface.preferred_cap q.surface) budget in
           alloc.(i) <- cap;
           {
             Queue_sim.arrival = q.arrival;
             demand = cap;
             runtime = Surface.latency_at q.surface cap;
           })
  in
  let outcomes = Queue_sim.run ~capacity:budget jobs in
  let makespan = ref 0.0 and dollars = ref 0.0 and violations = ref 0 in
  List.iteri
    (fun k (o : Queue_sim.outcome) ->
      let i = order.(k) in
      let q = queries.(i) in
      let finish = o.start +. o.job.runtime in
      if finish > !makespan then makespan := finish;
      dollars :=
        !dollars
        +. Pricing.spot_cost pricing
             ~gb_seconds:(Surface.gb_seconds_at q.surface alloc.(i))
             ~start:o.start ~finish;
      match q.slo with
      | Some s when finish -. q.arrival > s -> incr violations
      | _ -> ())
    outcomes;
  { alloc; makespan = !makespan; dollars = !dollars; violations = !violations }

(* ---------- hypervolume ---------- *)

(* 2D hypervolume of the (makespan, dollars) projection w.r.t. a reference
   corner — the staircase area the frontier dominates. *)
let hypervolume ~ref_makespan ~ref_dollars points =
  let kept =
    List.filter (fun p -> p.makespan < ref_makespan && p.dollars < ref_dollars) points
    |> List.sort compare_points
  in
  let hv = ref 0.0 and last_d = ref ref_dollars in
  List.iter
    (fun p ->
      if p.dollars < !last_d then begin
        hv := !hv +. ((ref_makespan -. p.makespan) *. (!last_d -. p.dollars));
        last_d := p.dollars
      end)
    kept;
  !hv
