(** The allocator's exact search as a plain list DP: the verification
    baseline {!Raqo_alloc.Allocator.exact} is checked against, bit for bit
    (the oracle arm [alloc/exact-vs-reference] and [test_alloc]). Slow by
    design — every insert scans its whole cell — and never on a request
    path. *)

(** [frontier points] is the non-dominated subset of [points] by a
    quadratic all-pairs filter: distinct points sorted by
    {!Raqo_alloc.Allocator.compare_points}, each kept unless another
    covers it, where of two equal vectors the smaller allocation stays.
    {!Raqo_alloc.Allocator.frontier_of} must return the same list. *)
val frontier : Raqo_alloc.Allocator.point list -> Raqo_alloc.Allocator.point list

(** [exact ?max_states ?pricing ~budget ~fairness queries] is the exact
    Pareto DP over (query prefix, containers used) with each cell a list of
    non-dominated partials, newest first: a candidate enters unless some
    member covers it, then evicts every member it covers. [None] when a
    layer's state count exceeds [max_states] (default 500k), at the insert
    that overflows. Same arguments and answer as
    {!Raqo_alloc.Allocator.exact}. *)
val exact :
  ?max_states:int ->
  ?pricing:Raqo_cluster.Pricing.schedule ->
  budget:int ->
  fairness:float ->
  Raqo_alloc.Allocator.query array ->
  Raqo_alloc.Allocator.outcome option

(** [mismatch ?max_states ?pricing ~budget ~fairness queries] runs
    {!Raqo_alloc.Allocator.exact} and {!exact} alike and describes their
    first difference: one overflowing where the other does not, or a
    frontier, equal split or [evaluated] count that differs (floats
    compared by their bits). [None] when they agree. *)
val mismatch :
  ?max_states:int ->
  ?pricing:Raqo_cluster.Pricing.schedule ->
  budget:int ->
  fairness:float ->
  Raqo_alloc.Allocator.query array ->
  string option

(** [overflow_bound ?pricing ~budget ~fairness queries] is the least
    [max_states] at which {!exact} finishes: its largest layer state count.
    Below it, both DPs must return [None].
    @raise Invalid_argument when {!exact} overflows 500k states. *)
val overflow_bound :
  ?pricing:Raqo_cluster.Pricing.schedule ->
  budget:int ->
  fairness:float ->
  Raqo_alloc.Allocator.query array ->
  int
