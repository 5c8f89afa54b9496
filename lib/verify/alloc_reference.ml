module Allocator = Raqo_alloc.Allocator
module Surface = Raqo_alloc.Surface
module Pricing = Raqo_cluster.Pricing

let frontier points =
  let sorted = List.sort_uniq Allocator.compare_points points in
  let keep p =
    List.for_all
      (fun q ->
        q == p
        || (not (Allocator.covers q p))
        || (Allocator.covers p q && Allocator.compare_points p q < 0))
      sorted
  in
  List.filter keep sorted

exception Too_large

type partial = { pm : float; pd : float; pv : int; chosen : int list }

let choices ?(pricing = Pricing.flat Pricing.default) ~budget ~floor (q : Allocator.query) =
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

let p_covers a b = a.pm <= b.pm && a.pd <= b.pd && a.pv <= b.pv

let exact ?(max_states = 500_000) ?pricing ~budget ~fairness queries =
  let n = Array.length queries in
  let floors = Allocator.floors ~budget ~fairness queries in
  let suffix = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) + floors.(i)
  done;
  let states = ref 0 and evaluated = ref 0 in
  let dp = Array.make (budget + 1) [] in
  dp.(0) <- [ { pm = 0.0; pd = 0.0; pv = 0; chosen = [] } ];
  try
    for i = 0 to n - 1 do
      let opts = choices ?pricing ~budget ~floor:floors.(i) queries.(i) in
      let ndp = Array.make (budget + 1) [] in
      states := 0;
      for b = 0 to budget do
        Array.iter
          (fun (c, finish, dollars, violations) ->
            if b + c + suffix.(i + 1) <= budget then begin
              let cell = b + c in
              List.iter
                (fun p ->
                  incr evaluated;
                  let np =
                    {
                      pm = Float.max p.pm finish;
                      pd = p.pd +. dollars;
                      pv = p.pv + violations;
                      chosen = c :: p.chosen;
                    }
                  in
                  if not (List.exists (fun q -> p_covers q np) ndp.(cell)) then begin
                    let kept = List.filter (fun q -> not (p_covers np q)) ndp.(cell) in
                    states := !states - (List.length ndp.(cell) - List.length kept) + 1;
                    ndp.(cell) <- np :: kept;
                    if !states > max_states then raise Too_large
                  end)
                dp.(b)
            end)
          opts
      done;
      Array.blit ndp 0 dp 0 (budget + 1)
    done;
    let points =
      Array.to_list dp
      |> List.concat_map
           (List.map (fun p ->
                {
                  Allocator.alloc = Array.of_list (List.rev p.chosen);
                  makespan = p.pm;
                  dollars = p.pd;
                  violations = p.pv;
                }))
    in
    Some
      {
        Allocator.mode = Exact;
        frontier = frontier points;
        equal_split = Allocator.equal_split ?pricing ~budget ~fairness queries;
        evaluated = !evaluated;
      }
  with Too_large -> None

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_point (a : Allocator.point) (b : Allocator.point) =
  a.alloc = b.alloc && same_float a.makespan b.makespan && same_float a.dollars b.dollars
  && a.violations = b.violations

let pp_point (p : Allocator.point) =
  Printf.sprintf "(m=%h $=%h v=%d [%s])" p.makespan p.dollars p.violations
    (String.concat " " (Array.to_list (Array.map string_of_int p.alloc)))

let mismatch ?max_states ?pricing ~budget ~fairness queries =
  let fast = Allocator.exact ?max_states ?pricing ~budget ~fairness queries in
  let slow = exact ?max_states ?pricing ~budget ~fairness queries in
  match (fast, slow) with
  | None, None -> None
  | Some _, None -> Some "the staircase DP finished where the list DP overflowed"
  | None, Some _ -> Some "the staircase DP overflowed where the list DP finished"
  | Some f, Some s ->
      if f.evaluated <> s.evaluated then
        Some (Printf.sprintf "evaluated %d, list DP %d" f.evaluated s.evaluated)
      else if not (same_point f.equal_split s.equal_split) then
        Some
          (Printf.sprintf "equal split %s, list DP %s" (pp_point f.equal_split)
             (pp_point s.equal_split))
      else
        let rec first k = function
          | p :: ps, q :: qs ->
              if same_point p q then first (k + 1) (ps, qs)
              else
                Some
                  (Printf.sprintf "frontier point %d is %s, list DP %s" k (pp_point p)
                     (pp_point q))
          | [], [] -> None
          | _ ->
              Some
                (Printf.sprintf "frontier has %d points, list DP %d" (List.length f.frontier)
                   (List.length s.frontier))
        in
        first 0 (f.frontier, s.frontier)

let overflow_bound ?pricing ~budget ~fairness queries =
  let finishes max_states = exact ~max_states ?pricing ~budget ~fairness queries <> None in
  (* Invariant: [lo] overflows, [hi] finishes. *)
  let rec search lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if finishes mid then search lo mid else search mid hi
  in
  if finishes 0 then 0
  else if not (finishes 500_000) then
    invalid_arg "Alloc_reference.overflow_bound: the list DP overflows 500k states"
  else search 0 500_000
