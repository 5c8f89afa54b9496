(** The line protocol of the resident optimizer: one JSON object per line in,
    one JSON object per line out, in request order. The wire format is strict
    — unknown fields are rejected, not ignored — because a silently-dropped
    option would undermine the served-vs-oneshot bit-identity contract.

    Request fields ([id] and exactly one of [sql]/[relations] required, the
    rest optional):

    {v
    {"id":"q1","sql":"select * from orders, lineitem where ...",
     "planner":"selinger|fast_randomized|bushy_dp",   // default selinger
     "mode":"raqo|qo",                                 // default raqo
     "containers":40,"gb":4.0,                         // qo mode only
     "seed":42, "adaptive":false, "est_error":"none",  // see Estimation_error.of_string
     "engine":"hive|spark"}                            // default hive
    v}

    Responses: [{"id":...,"status":"ok","plan":...,"cost":...,"resources":
    [{"containers":..,"gb":..},...]}] plus an ["adaptive"] summary when
    requested and a ["rewrite"] summary (per-rule fired counts + relations
    removed) when a logical rewrite changed the query, or
    [{"id":...,"status":"error","reason":
    "bad_request|overloaded|infeasible|internal","message":...}].

    Health probes: [{"op":"health"}] (optional ["id"]) answers immediately —
    without queueing — with [{"status":"ok","op":"health","queue_depth":N,
    "ready":true}]: readiness with no wall-clock field, so probe responses
    are deterministic. Parse request-or-probe lines with
    {!parse_line}.

    Workload allocation: [{"op":"allocate","id":...,"budget":N,"queries":
    [{"id":...,"relations":[...] or "sql":...,"tenant":...,"weight":...,
    "arrival":...,"slo":...},...],"planner":...,"objective":
    "makespan|cost|balanced","fairness":0..1,"search":"exact|randomized|auto",
    "seed":...,"engine":...,"tenant":...}] plans every member query jointly,
    builds its latency/cost response surface, and answers with the Pareto
    frontier of joint allocations under the global container [budget]:
    [{"id":...,"status":"ok","op":"allocate","search":<mode that ran>,
    "budget":N,"frontier":[{"makespan":..,"dollars":..,"violations":..,
    "containers":[..]},...],"chosen":...,"equal_split":...,"queries":
    [{"id":..,"containers":..,"latency":..,"plan":..},...]}]. *)

(** The query and mode a request carries are the planning pipeline's own
    ({!Raqo.Sql_frontend}), so a parsed request plans without conversion. *)
type payload = Raqo.Sql_frontend.query = Sql of string | Relations of string list

type mode = Raqo.Sql_frontend.mode =
  | Raqo  (** joint query/resource optimization (the paper's planner) *)
  | Qo of Raqo_cluster.Resources.t  (** query-only baseline at fixed resources *)

type request = {
  id : string;
  payload : payload;
  planner : Raqo.Cost_based.planner_kind;
  mode : mode;
  seed : int;
  adaptive : bool;  (** run the boundary re-optimizing executor too *)
  est_error : Raqo_execsim.Estimation_error.t;  (** planner-visible misestimation *)
  engine : string;  (** ["hive"] or ["spark"]: cost model + simulator profile *)
  tenant : string option;  (** admission-accounting label; [None] = "default" *)
}

type outcome_summary = Finished of float  (** seconds *) | Oom of int  (** failing stage *)

type adaptive_summary = {
  static_outcome : outcome_summary;
  adaptive_outcome : outcome_summary;
  replans : int;
  switches : int;
}

type reject_reason =
  | Bad_request  (** unparseable or invalid request line *)
  | Overloaded  (** admission queue full — retry later (backpressure) *)
  | Infeasible  (** no joint plan fits the cluster conditions *)
  | Internal  (** planner raised; the server survives *)

type rewrite_summary = {
  fired : (string * int) list;  (** nonzero per-rule fired counts, rule order *)
  removed : int;  (** relations absorbed out of the join *)
}

(** What an allocate request minimizes when picking its [chosen] point off
    the frontier (the whole frontier is always returned). *)
type objective = Raqo_alloc.Allocator.objective = Makespan | Dollars | Balanced

val objective_of_string : string -> (objective, string) result
val objective_name : objective -> string

(** Valid ["search"] values: ["exact"], ["randomized"], ["auto"]. *)
val search_names : string list

type alloc_query = {
  qid : string;
  payload : payload;
  tenant : string option;
  weight : float;  (** fairness share, > 0 (default 1.0) *)
  arrival : float;  (** seconds, >= 0 (default 0.0) *)
  slo : float option;  (** latency bound in seconds, > 0 *)
}

type alloc_request = {
  id : string;
  queries : alloc_query list;  (** non-empty, unique ids *)
  budget : int;  (** global container budget, >= 1 *)
  planner : Raqo.Cost_based.planner_kind;
  objective : objective;
  fairness : float;  (** floor knob in [0,1] (default 0.0) *)
  search : string;  (** one of {!search_names} (default ["auto"]) *)
  seed : int;
  engine : string;
  tenant : string option;  (** default tenant for queries that name none *)
}

type alloc_point = {
  containers : int list;  (** per query, request order *)
  makespan : float;
  dollars : float;
  violations : int;
}

type response =
  | Planned of {
      id : string;
      plan : string;  (** rendered joint plan, e.g. [((a BHJ b) SMJ c)] *)
      cost : float;  (** estimated cost (seconds) — bit-exact wire float *)
      resources : (int * float) list;  (** (containers, GB) per join, bottom-up *)
      adaptive : adaptive_summary option;
      rewrite : rewrite_summary option;
          (** present iff a logical rewrite rule fired on this query *)
    }
  | Rejected of { id : string option; reason : reject_reason; message : string }
  | Health_ok of {
      id : string option;
      queue_depth : int;
      ready : bool;
    }
  | Allocated of {
      id : string;
      search : string;  (** the mode that actually ran (auto may fall back) *)
      budget : int;
      frontier : alloc_point list;  (** non-dominated, best makespan first *)
      chosen : alloc_point;  (** per the request's objective *)
      equal_split : alloc_point;  (** naive baseline for comparison *)
      queries : (string * int * float * string) list;
          (** (qid, chosen containers, latency at that cap, plan) *)
    }

(** One wire line: a health probe, a plan request, or an allocate request. *)
type line =
  | Health of { id : string option }
  | Request of request
  | Allocate of alloc_request

val reason_name : reject_reason -> string
val planner_of_string : string -> (Raqo.Cost_based.planner_kind, string) result
val planner_name : Raqo.Cost_based.planner_kind -> string

(** [parse_request line] parses one request line, strictly. A health probe
    is not a request; use {!parse_line} where probes are legal. *)
val parse_request : string -> (request, string) result

(** [parse_line line] parses a request or an [{"op":"health"}] probe. *)
val parse_line : string -> (line, string) result

(** [request_to_json r] renders [r] as one line (no newline); round-trips
    through {!parse_request} — the trace generator writes traces with it. *)
val request_to_json : request -> string

(** [response_to_json r] renders one response line (no newline). Floats use
    the shortest round-trip encoding, so equal plans yield equal bytes. *)
val response_to_json : response -> string

val response_id : response -> string option
val is_ok : response -> bool
