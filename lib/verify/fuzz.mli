(** Seeded fuzz harness over the differential oracle: generate random
    instances, check them, and greedily shrink any failure to a minimal
    failing query with a self-contained printed repro. The adaptive mode
    runs {!Oracle.check_adaptive} instead and additionally shrinks along the
    error-seed dimension, isolating a single failing (distribution, seed)
    error pattern. *)

type report = {
  instance : Oracle.instance;  (** the original failing instance *)
  minimized : string list;  (** smallest still-failing relation subset *)
  minimized_dist : string option;
      (** adaptive shrinking only: a single error spec
          (["DIST=MAG:SEED"], {!Raqo_execsim.Estimation_error.to_string})
          that still fails on the minimized query; [None] when only the full
          distribution sweep fails, or for non-adaptive reports *)
  diagnostics : Diagnostic.t list;  (** violations on the minimized query *)
}

(** [shrink t] greedily drops relations from [t]'s query while the oracle
    still fails and the query stays connected; returns the minimized
    relation set and its diagnostics. Call only on failing instances (a
    passing instance shrinks to itself with []). *)
val shrink :
  ?jobs:int list -> ?fault:Oracle.fault -> Oracle.instance -> string list * Diagnostic.t list

(** [shrink_adaptive t] is {!shrink} against the adaptive oracle, followed
    by the error-seed dimension: the minimized relation set, the isolated
    single failing error spec (if any single distribution suffices), and the
    diagnostics of that narrowest still-failing configuration. *)
val shrink_adaptive :
  ?fault:Oracle.masked_fault ->
  Oracle.instance ->
  string list * string option * Diagnostic.t list

(** [report t] is {!shrink} packaged with the originating instance. *)
val report : ?jobs:int list -> ?fault:Oracle.fault -> Oracle.instance -> report

(** [report_adaptive t] is {!shrink_adaptive} packaged with the instance. *)
val report_adaptive : ?fault:Oracle.masked_fault -> Oracle.instance -> report

(** [render r] formats a failure as a self-contained repro block: seed,
    generation parameters, original and minimized query, the isolated error
    spec for adaptive failures, violated invariants, and the CLI command
    that replays it. *)
val render : report -> string

(** [run ?tables ?joins ?jobs ?fault ?adaptive ?progress ?start ~seeds ()]
    checks seeds [start .. start + seeds - 1] and returns a shrunk report
    per failing seed. [adaptive] (default false) swaps in
    {!Oracle.check_adaptive} ([fault] applies to the classic oracle only,
    [jobs] to the classic and allocator oracles).
    [progress] is invoked once per seed. *)
val run :
  ?tables:int ->
  ?joins:int ->
  ?jobs:int list ->
  ?fault:Oracle.fault ->
  ?adaptive:bool ->
  ?progress:(seed:int -> failed:bool -> unit) ->
  ?start:int ->
  seeds:int ->
  unit ->
  report list

(** [main] is the CLI entry point: prints progress, every rendered failure,
    and a summary; returns the process exit code (0 clean, 1 failures). *)
val main :
  ?tables:int ->
  ?joins:int ->
  ?jobs:int list ->
  ?adaptive:bool ->
  ?start:int ->
  seeds:int ->
  unit ->
  int
