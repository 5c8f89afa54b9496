(** Ready-made operator cost models.

    [Raqo_cost.Op_cost.paper] carries the coefficients printed in the paper
    (faithful for the planner-overhead experiments). The models here are
    retrained against this repository's execution simulator — what the
    paper's own profiling pipeline would produce on this substrate — and
    carry a small positive prediction floor, so plan-quality experiments and
    the use-case APIs behave physically. *)

(** [train ?seed engine] sweeps the simulator over the Section V data-resource
    grid and fits the SMJ/BHJ regressions. Deterministic for a fixed seed. *)
val train : ?seed:int -> Raqo_execsim.Engine.t -> Raqo_cost.Op_cost.t

(** [hive ()] / [spark ()] are memoized {!train} results for the two engine
    profiles. *)
val hive : unit -> Raqo_cost.Op_cost.t

val spark : unit -> Raqo_cost.Op_cost.t

(** [for_engine name] is the trained model and the simulator profile a
    request naming engine [name] plans and executes with: {!spark} and
    {!Raqo_execsim.Engine.spark} for ["spark"], {!hive} and
    {!Raqo_execsim.Engine.hive} for any other name (callers validate the
    name first). The server and [raqo plan] both pick their model here. *)
val for_engine : string -> Raqo_cost.Op_cost.t * Raqo_execsim.Engine.t
