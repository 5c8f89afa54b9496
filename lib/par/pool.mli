(** A fixed-size pool of worker domains behind a mutex/condition work queue.
    Two callers use it: the randomized planner's restarts
    ([Cost_based.optimize_par], [raqo trace --jobs], [bench par]), the
    one path where a speedup shows in every recorded run (70 relations), and
    the fuzz harness's parallel-vs-sequential oracle arms. Server waves,
    allocator member planning and workload batches run on the calling
    domain: on the committed measurements their pooled forms were slower
    than sequential.

    Design notes, load-bearing for callers:

    - {b Determinism.} Results of {!run_list} / {!parallel_map} are returned
      in submission order, whatever order the tasks actually executed in. A
      caller that gives each task its own pre-split PRNG therefore observes
      output bit-identical to a sequential run.
    - {b Helping submitter.} [create ~jobs] spawns [jobs - 1] worker domains;
      the domain that submits a batch executes tasks itself while it waits.
      Total parallelism is [jobs], and [jobs = 1] degenerates to a plain
      sequential map with no domain spawned and no synchronization beyond
      the queue discipline.
    - {b Nested use.} A task may itself submit a batch to the same pool: the
      inner submitter helps drain the queue instead of blocking on a worker
      slot, so nesting cannot deadlock even on a 1-job pool.
    - {b Exceptions.} If tasks raise, the whole batch still runs to
      completion, then the exception of the lowest-indexed failed task is
      re-raised in the submitter (deterministic regardless of scheduling).
    - {b Tracing.} {!run_list} captures the submitter's current
      {!Raqo_obs.Trace} span at submission and installs it around each task,
      so spans opened inside tasks parent to the submitting span even when
      the task runs on another domain. Free when tracing is off.

    Tasks must not share unsynchronized mutable state; every parallel entry
    point in this library hands each task its own coster/planner/RNG and
    reduces the results in the submitter. *)

type t

(** [create ~jobs ()] builds a pool with total parallelism [jobs] ([jobs - 1]
    worker domains plus the helping submitter).
    @raise Invalid_argument when [jobs < 1]. *)
val create : jobs:int -> unit -> t

(** [shutdown t] signals the workers to exit once the queue drains and joins
    them. Idempotent. Submitting to a shut-down pool raises. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [run_list t thunks] executes the thunks on the pool and returns their
    results in input order. See the determinism / exception contract above.
    @raise Invalid_argument if the pool was shut down. *)
val run_list : t -> (unit -> 'a) list -> 'a list

(** [parallel_map t f xs] is [List.map f xs] with the applications spread
    over the pool, results in input order. *)
val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
