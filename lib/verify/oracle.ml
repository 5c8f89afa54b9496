module Schema = Raqo_catalog.Schema
module Random_schema = Raqo_catalog.Random_schema
module Interned = Raqo_catalog.Interned
module Join_impl = Raqo_plan.Join_impl
module Brute_force = Raqo_resource.Brute_force
module Counters = Raqo_resource.Counters
module Conditions = Raqo_cluster.Conditions
module Resources = Raqo_cluster.Resources
module Rng = Raqo_util.Rng
module Op_cost = Raqo_cost.Op_cost
module Coster = Raqo_planner.Coster
module Selinger = Raqo_planner.Selinger
module Dpsub = Raqo_planner.Dpsub
module Exhaustive = Raqo_planner.Exhaustive
module Randomized = Raqo_planner.Randomized
module Heuristics = Raqo_planner.Heuristics
module Resource_planner = Raqo_resource.Resource_planner
module Plan_cache = Raqo_resource.Plan_cache
module Pool = Raqo_par.Pool
module Engine = Raqo_execsim.Engine
module Simulate = Raqo_execsim.Simulate
module Estimation_error = Raqo_execsim.Estimation_error
module Adaptive_exec = Raqo_adaptive.Adaptive_exec
module Rewrite = Raqo_rewrite.Rewrite
module Cost_based = Raqo.Cost_based
module D = Diagnostic

type instance = {
  seed : int;
  tables : int;
  joins : int;
  schema : Schema.t;
  relations : string list;
}

let default_tables = 6
let default_joins = 4

let instance ?(tables = default_tables) ?(joins = default_joins) seed =
  let rng = Rng.create seed in
  let schema = Random_schema.generate rng ~tables in
  let relations = Random_schema.query rng schema ~joins:(min joins (tables - 1)) in
  { seed; tables; joins; schema; relations }

let with_relations t relations = { t with relations }

let pp_instance fmt t =
  Format.fprintf fmt "seed=%d tables=%d joins=%d query=[%s]" t.seed t.tables t.joins
    (String.concat " " t.relations)

type fault = arm:string -> Coster.t -> Coster.t

let no_fault ~arm:_ coster = coster

(* A deliberately compact condition grid (8 x 6 = 48 configurations) keeps
   the brute-force resource arms cheap enough to fuzz by the hundreds while
   still giving hill climbing room to get stuck somewhere interesting. *)
let conditions =
  Conditions.make ~min_containers:1 ~max_containers:8 ~container_step:1 ~min_gb:1.0
    ~max_gb:6.0 ~gb_step:1.0 ()

(* In-grid fixed configuration for the two-step ("QO") baseline arms. *)
let fixed_resources = Resources.make ~containers:4 ~container_gb:3.0

(* Floored model: non-negative join costs give the cost-ordering relations
   below their meaning. *)
let model = Op_cost.with_floor 0.01 Op_cost.paper

(* The trained Hive model: extended feature space, floored. The resident
   server, the CLI and the SQL frontend plan with it, so the kernel arms
   check it as well as the paper-space [model]. Trained once per process. *)
let extended_model () = Raqo.Models.hive ()

(* Relative tolerance for cross-arm cost comparisons: the same join set can
   be summed in different orders by different planners. *)
let tol a b = 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
let approx_eq a b = Float.abs (a -. b) <= tol a b
let leq a b = a <= b +. tol a b

(* Arms actually run (size-gated arms like dpsub/exhaustive are skipped on
   big instances), surfaced by the `raqo fuzz` metrics summary. *)
let m_arms = Raqo_obs.Metrics.counter "raqo_fuzz_oracle_arms_total"

(* Same configuration and the same cost bits (NaN payloads included). *)
let same_search ((ra : Resources.t), ca) ((rb : Resources.t), cb) =
  Resources.equal ra rb && Int64.equal (Int64.bits_of_float ca) (Int64.bits_of_float cb)

(* A random coefficient vector for one join implementation, in [space],
   with magnitudes spread over several decades and random signs. *)
let random_linreg rng space =
  let draw () =
    if Rng.int rng 5 = 0 then 0.0
    else
      let m = Float.pow 10.0 (Rng.float_in_range rng ~lo:(-3.0) ~hi:3.0) in
      if Rng.bool rng then m else -.m
  in
  Raqo_cost.Linreg.of_coefficients ~intercept:(draw ())
    (Array.init (Raqo_cost.Feature.dims space) (fun _ -> draw ()))

let random_model rng =
  let space = if Rng.bool rng then Raqo_cost.Feature.Paper else Raqo_cost.Feature.Extended in
  let m =
    {
      Op_cost.paper with
      space;
      smj = random_linreg rng space;
      bhj = random_linreg rng space;
      scan = random_linreg rng space;
    }
  in
  if Rng.bool rng then Op_cost.with_floor (Rng.float_in_range rng ~lo:0.001 ~hi:50.0) m else m

(* The closed-form grid minimum against the exhaustive scalar scan, on grids
   the fixed arms never see: quarter-, half- and 4-GB memory steps (the last
   one ragged against [max_gb]), container steps 1-7 from a minimum above 1,
   and the paper (bare and floored), Hive, Spark and random models. *)
let closed_form_arm seed =
  let rng = Rng.create ((seed * 7_919) + 3) in
  let diags = ref [] in
  for _ = 1 to 6 do
    let gb_step = Rng.pick rng [| 0.25; 0.5; 1.0; 4.0 |] in
    let min_gb = Rng.pick rng [| 0.5; 1.0; 2.0 |] in
    let min_containers = 1 + Rng.int rng 4 in
    let c =
      Conditions.make ~min_containers
        ~max_containers:(min_containers + Rng.int rng 80)
        ~container_step:(1 + Rng.int rng 7) ~min_gb
        ~max_gb:(min_gb +. Rng.float_in_range rng ~lo:0.0 ~hi:12.0)
        ~gb_step ()
    in
    let name, m =
      match Rng.int rng 5 with
      | 0 -> ("paper", Op_cost.paper)
      | 1 -> ("floored", model)
      | 2 -> ("hive", Raqo.Models.hive ())
      | 3 -> ("spark", Raqo.Models.spark ())
      | _ -> ("random", random_model rng)
    in
    let small_gb = Float.pow 10.0 (Rng.float_in_range rng ~lo:(-3.0) ~hi:2.0) in
    List.iter
      (fun impl ->
        let kernel = Raqo_cost.Kernel.make m impl ~small_gb in
        let closed = Brute_force.search_kernel c ~kernel in
        let scanned =
          Brute_force.search c (fun r -> Op_cost.predict_exn m impl ~small_gb ~resources:r)
        in
        if not (same_search closed scanned) then
          diags :=
            D.v ~invariant:"oracle/kernel-minimum-random"
              "closed-form minimum diverged: %s model, %s at %h GB on %s: %s at %h vs %s at %h"
              name (Join_impl.to_string impl) small_gb
              (Format.asprintf "%a" Conditions.pp c)
              (Resources.to_string (fst closed)) (snd closed)
              (Resources.to_string (fst scanned)) (snd scanned)
            :: !diags)
      Join_impl.all
  done;
  List.rev !diags

let check ?(jobs = [ 2; 4 ]) ?(fault = no_fault) t =
  let diags = ref [] in
  let add ds = diags := !diags @ ds in
  let schema = t.schema and rels = t.relations in
  let n = List.length rels in
  let fixed arm = fault ~arm (Coster.fixed model schema fixed_resources) in
  (* Every arm's plan must satisfy the structural invariants before any
     cross-arm relation is worth stating. *)
  let validate arm = function
    | None ->
        if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_arms;
        add [ D.v ~invariant:"oracle/no-plan" "%s found no feasible plan" arm ];
        None
    | Some ((tree, cost) as plan) ->
        if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_arms;
        add
          (List.map (D.tag arm)
             (Invariant.check_joint ~model ~conditions ~schema ~expected:rels (tree, cost)));
        Some plan
  in
  let cost = Option.map snd in
  (* A relation between two arms only fires when both produced a plan; a
     one-sided [None] is already reported by [validate]. *)
  let relate invariant describe ok a b =
    match (a, b) with
    | Some a, Some b ->
        if not (ok a b) then add [ D.v ~invariant "%s (%.6f vs %.6f)" describe a b ]
    | Some _, None | None, Some _ | None, None -> ()
  in

  (* ------------------------------------------- fixed-resource planner arms *)
  let sel = validate "selinger" (Selinger.optimize (fixed "selinger") schema rels) in
  let dpsub = if n <= 14 then validate "dpsub" (Dpsub.optimize (fixed "dpsub") schema rels) else None in
  let exhaustive =
    if n <= 7 then validate "exhaustive" (Exhaustive.optimize (fixed "exhaustive") schema rels)
    else None
  in
  let rand_seed = (t.seed * 1_000_003) + 7 in
  let rand_seq =
    validate "randomized"
      (Randomized.optimize (Rng.create rand_seed) (fixed "randomized") schema rels)
  in
  let greedy =
    match Heuristics.greedy_left_deep schema rels with
    | shape -> Option.map snd (Coster.cost_tree (fixed "greedy") shape)
    | exception Invalid_argument _ -> None
  in

  (* Exact planners agree; every planner lower-bounds the heuristics. *)
  relate "oracle/dpsub-vs-exhaustive" "bushy DP must equal the exhaustive oracle" approx_eq
    (cost dpsub) (cost exhaustive);
  relate "oracle/exhaustive-above-selinger" "exhaustive (bushy) must be <= Selinger (left-deep)"
    leq (cost exhaustive) (cost sel);
  relate "oracle/dpsub-above-selinger" "bushy DP must be <= Selinger (left-deep)" leq
    (cost dpsub) (cost sel);
  relate "oracle/dpsub-above-randomized" "exact bushy DP must be <= randomized search" leq
    (cost dpsub) (cost rand_seq);
  relate "oracle/selinger-above-greedy" "Selinger DP must be <= greedy left-deep" leq (cost sel)
    greedy;
  if n <= 3 then
    (* With <= 3 relations every cartesian-free bushy tree is left-deep up to
       mirroring, which symmetric costers cannot distinguish. *)
    relate "oracle/selinger-vs-dpsub-small" "left-deep and bushy DP coincide for n <= 3"
      approx_eq (cost sel) (cost dpsub);

  (* Parallel randomized restarts must be bit-identical to sequential for a
     fixed seed (pre-split restart RNGs, order-preserving pool). *)
  List.iter
    (fun j ->
      if j > 1 then begin
        let par =
          Pool.with_pool ~jobs:j (fun pool ->
              Randomized.optimize_par pool (Rng.create rand_seed)
                ~coster:(fun () -> fixed "randomized-par")
                schema rels)
        in
        relate "oracle/randomized-par-vs-seq"
          (Printf.sprintf "parallel randomized (%d jobs) must equal sequential, same seed" j)
          (fun a b -> a = b)
          (cost par) (cost rand_seq)
      end)
    jobs;

  (* The randomized planner's graph check must agree with the structural
     invariants ([Invariant.check_shape]) on every mutation drawn along the
     seed's 300-step chain. *)
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_arms;
  let chain_rng = Rng.create rand_seed and g = Randomized.graph schema rels in
  let valid = Randomized.checker g and shape = ref (Randomized.random_shape chain_rng g) in
  for step = 1 to 300 do
    let agreed s =
      let got = valid s and want = Invariant.check_shape ~schema ~expected:rels s = [] in
      if got <> want then
        add
          [ D.v ~invariant:"oracle/randomized-validity"
              "step %d: the graph check says %b, check_shape %b" step got want ];
      got
    in
    Option.iter (fun s -> shape := s) (Randomized.mutate chain_rng agreed !shape)
  done;

  (* ------------------------------------------ resource-planning mode arms *)
  let raqo_arm arm ~strategy ~cache () =
    let rp = Resource_planner.create ~strategy ~cache conditions in
    (rp, fault ~arm (Coster.raqo model schema rp))
  in
  let rp_bf, bf_coster = raqo_arm "raqo-bf" ~strategy:Resource_planner.Brute_force ~cache:true () in
  let raqo_bf = validate "raqo-bf" (Selinger.optimize bf_coster schema rels) in
  let _, bf_nocache_coster =
    raqo_arm "raqo-bf-nocache" ~strategy:Resource_planner.Brute_force ~cache:false ()
  in
  let raqo_bf_nocache =
    validate "raqo-bf-nocache" (Selinger.optimize bf_nocache_coster schema rels)
  in
  let _, hc_coster = raqo_arm "raqo-hc" ~strategy:Resource_planner.Hill_climb ~cache:true () in
  let raqo_hc = validate "raqo-hc" (Selinger.optimize hc_coster schema rels) in

  relate "oracle/raqo-cache-vs-nocache"
    "exact-lookup cache must not change the brute-force joint optimum" approx_eq (cost raqo_bf)
    (cost raqo_bf_nocache);
  relate "oracle/raqo-bf-above-hc"
    "global grid search must be <= hill climbing per join, hence overall" leq (cost raqo_bf)
    (cost raqo_hc);
  relate "oracle/raqo-above-fixed"
    "joint optimization must be <= the two-step baseline at an in-grid config" leq
    (cost raqo_bf) (cost sel);

  (* ------------------------------------------------ mask-core bit-identity *)
  (* Every mask-based planner must return bit-identical (plan, cost, coster
     invocation count) results to the historical string-list implementation
     when both drive the same underlying coster — the fault seam wraps that
     shared coster, so these relations test the interning machinery itself
     rather than the coster. *)
  (match Interned.make schema rels with
  | exception Invalid_argument _ -> ()
  | ctx ->
      let base = fault ~arm:"mask-core" (Coster.fixed model schema fixed_resources) in
      let pair () =
        let m, m_count = Coster.counting_masked (Coster.of_strings ctx base) in
        let s, s_count = Coster.counting base in
        (m, m_count, s, s_count)
      in
      let identical invariant describe masked reference =
        if masked <> reference then
          add [ D.v ~invariant "mask-based %s diverged from the string reference" describe ]
      in
      let m, mc, s, sc = pair () in
      identical "oracle/mask-selinger" "Selinger"
        (Selinger.optimize_masked m ctx, mc ())
        (Selinger.optimize_reference s schema rels, sc ());
      if n <= 14 then begin
        let m, mc, s, sc = pair () in
        identical "oracle/mask-dpsub" "bushy DP"
          (Dpsub.optimize_masked m ctx, mc ())
          (Dpsub.optimize_reference s schema rels, sc ())
      end;
      if n <= 7 then begin
        let m, mc, s, sc = pair () in
        identical "oracle/mask-exhaustive" "exhaustive enumeration"
          (Exhaustive.optimize_masked m ctx, mc ())
          (Exhaustive.optimize s schema rels, sc ())
      end;
      let m, mc, s, sc = pair () in
      identical "oracle/mask-randomized" "randomized search (same seed)"
        (Randomized.optimize_masked (Rng.create rand_seed) m ctx, mc ())
        (Randomized.optimize (Rng.create rand_seed) s schema rels, sc ());
      (* Memoized vs string raqo coster, fresh planners: same plan, cost bits,
         evaluations, misses, invocations; hits fall only under the memo. *)
      List.iter
        (fun (label, lookup, cache) ->
          let run coster_of =
            if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_arms;
            let rp = Resource_planner.create ~cache ~lookup conditions in
            let plan = Selinger.optimize_masked (coster_of rp) ctx in
            let k = Resource_planner.counters rp in
            ( Option.map (fun (p, c) -> (p, Int64.bits_of_float c)) plan,
              Counters.[ cost_evaluations k; cache_misses k; planner_invocations k ],
              Counters.cache_hits k )
          in
          let plan, counts, hits = run (Coster.raqo_masked model ctx) in
          let plan', counts', hits' = run (fun rp -> Coster.of_strings ctx (Coster.raqo model schema rp)) in
          if plan <> plan' || counts <> counts' || hits > hits' || (label <> "exact" && hits <> hits')
          then
            add
              [ D.v ~invariant:"oracle/raqo-memo-vs-string"
                  "memoized raqo coster diverged from the string coster (%s cache): hits %d vs %d"
                  label hits hits' ])
        [ ("exact", Plan_cache.Exact, true); ("no", Plan_cache.Exact, false);
          ("nearest-neighbour", Plan_cache.Nearest_neighbor 0.5, true) ]);

  (* ------------------------------------------------ compiled cost kernels *)
  (* The kernel path must be bit-identical to the scalar oracle baseline —
     same floats at every grid point, same winners and tie-breaks from every
     search, the climb's evaluation counts — across both join
     implementations, a spread of build-side sizes (feasible everywhere,
     partially feasible, and all-infeasible for BHJ), and both feature
     spaces: the paper-space oracle model and the trained extended-space
     model the server plans with. *)
  let kernel_arms (space, model) =
    List.iter
      (fun impl ->
        List.iter
          (fun small_gb ->
            let kernel = Raqo_cost.Kernel.make model impl ~small_gb in
            let cost r = Op_cost.predict_exn model impl ~small_gb ~resources:r in
            (* Pointwise: Kernel.predict = Op_cost.predict_exn on every
               grid configuration, bitwise (infinity mask included). *)
            List.iter
              (fun (r : Resources.t) ->
                let k = Raqo_cost.Kernel.predict_resources kernel r in
                let s = cost r in
                if not (Float.equal k s) then
                  add
                    [ D.v ~invariant:"oracle/kernel-point-vs-scalar"
                        "%s-space kernel cost diverged for %s at %.2f GB, %d x %.1f GB (%h vs %h)"
                        space (Join_impl.to_string impl) small_gb r.Resources.containers
                        r.Resources.container_gb k s ])
              (Conditions.all_configs conditions);
            (* Closed-form minimum vs the exhaustive scalar scan: the same
               cell and cost bits, from no more evaluations than the grid. *)
            let kc = Counters.create () in
            let closed = Brute_force.search_kernel ~counters:kc conditions ~kernel in
            let scanned = Brute_force.search conditions cost in
            if not (same_search closed scanned) then
              add
                [ D.v ~invariant:"oracle/kernel-minimum-vs-scalar"
                    "%s-space closed-form minimum diverged for %s at %.2f GB (%h vs %h)"
                    space (Join_impl.to_string impl) small_gb (snd closed) (snd scanned) ];
            if Counters.cost_evaluations kc > Conditions.n_configs conditions then
              add
                [ D.v ~invariant:"oracle/kernel-minimum-evals"
                    "%s-space closed form counted %d evaluations on a %d-cell grid, for %s at %.2f GB"
                    space (Counters.cost_evaluations kc) (Conditions.n_configs conditions)
                    (Join_impl.to_string impl) small_gb ];
            (* Hill climbing probes through the kernel must trace the same
               trajectory: same optimum, same cost, same evaluations. *)
            let kc = Counters.create () and sc = Counters.create () in
            let start =
              match impl with
              | Join_impl.Smj -> None
              | Join_impl.Bhj ->
                  Some
                    (Conditions.clamp conditions
                       (Resources.make ~containers:1
                          ~container_gb:(Float.min conditions.max_gb (Float.max 1.0 small_gb))))
            in
            let kh =
              Raqo_resource.Hill_climb.plan_kernel ~counters:kc ?start conditions kernel
            in
            let sh = Raqo_resource.Hill_climb.plan ~counters:sc ?start conditions cost in
            if kh <> sh || Counters.cost_evaluations kc <> Counters.cost_evaluations sc then
              add
                [ D.v ~invariant:"oracle/kernel-hillclimb-vs-scalar"
                    "%s-space kernel hill climb diverged for %s at %.2f GB" space
                    (Join_impl.to_string impl) small_gb ])
          [ 0.1; 1.0; 3.0; 8.0; 25.0 ])
      Join_impl.all;
    (* Joint planning with kernels on must be bit-identical to kernels off —
       plans and costs under both search strategies, and the climb's
       instrumentation too (the closed form makes fewer evaluations than the
       exhaustive scalar scan by design). *)
    List.iter
      (fun (label, strategy) ->
        let run kernel =
          let counters = Counters.create () in
          let rp = Resource_planner.create ~strategy ~cache:false ~kernel ~counters conditions in
          let coster = fault ~arm:("raqo-kernel-" ^ label) (Coster.raqo model schema rp) in
          let result = Selinger.optimize coster schema rels in
          (result, Counters.cost_evaluations counters, Counters.planner_invocations counters)
        in
        let on = run true and off = run false in
        let same =
          match strategy with
          | Resource_planner.Hill_climb -> on = off
          | Resource_planner.Brute_force ->
              let (r_on, _, i_on) = on and (r_off, _, i_off) = off in
              r_on = r_off && i_on = i_off
        in
        if not same then
          add
            [ D.v ~invariant:"oracle/kernel-joint-vs-scalar"
                "kernelised joint planning (%s, %s space) diverged from the scalar path" label
                space ])
      [ ("bf", Resource_planner.Brute_force); ("hc", Resource_planner.Hill_climb) ]
  in
  List.iter kernel_arms [ ("paper", model); ("extended", extended_model ()) ];
  add (closed_form_arm t.seed);

  (* Resource-plan cache answers must stay within their lookup radius and
     reproduce the stored entries (exercises every lookup policy against the
     entries the joint arms populated). *)
  (match Resource_planner.cache rp_bf with
  | None -> ()
  | Some cache ->
      List.iter
        (fun key ->
          let entry_keys = List.map fst (Plan_cache.entries cache ~key) in
          let probes =
            List.sort_uniq compare
              (List.concat_map (fun k -> [ k; k +. 0.05; k *. (1.0 +. 1e-12) ]) entry_keys
              @ [ 0.0; 0.25; 1.0; 3.7 ])
          in
          List.iter
            (fun data_gb ->
              List.iter
                (fun lookup -> add (Invariant.check_cache_lookup cache ~key ~data_gb lookup))
                [ Plan_cache.Exact; Plan_cache.Nearest_neighbor 0.5; Plan_cache.Weighted_average 0.5 ])
            probes)
        (Plan_cache.keys cache));

  (* ---------------------------------------------------- logical rewrite arms *)
  (* The rewrite memo's contract, per seed. No-op hints (no filters,
     everything referenced) must leave both outputs physically untouched —
     [==], not structural equality — because the zero-rewrite fast path
     promises no rebuild. Count-star hints (nothing projected) let FK-leaf
     and constant absorption plus width narrowing fire; the rewritten query
     must stay a connected subset of the original, and the exact planners'
     optimum over it must not exceed the original's — as plain floats, no
     tolerance, because every rule is cost-equivalent-or-better under the
     floored model. *)
  let rw = Rewrite.create schema in
  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_arms;
  if Rewrite.apply rw ~hints:Rewrite.no_hints rels then
    add [ D.v ~invariant:"oracle/rewrite-noop-changed" "no-op hints reported a rewrite" ]
  else begin
    if not (Rewrite.schema_out rw == schema) then
      add [ D.v ~invariant:"oracle/rewrite-noop-schema" "no-op hints rebuilt the schema" ];
    if not (Rewrite.relations_out rw == rels) then
      add
        [ D.v ~invariant:"oracle/rewrite-noop-relations"
            "no-op hints rebuilt the relation list" ]
  end;
  let count_star = { Rewrite.filters = []; referenced = Some [] } in
  let rw_changed = Rewrite.apply rw ~hints:count_star rels in
  let schema' = Rewrite.schema_out rw and rels' = Rewrite.relations_out rw in
  let rw_report = Rewrite.last rw in
  if rw_changed then begin
    if not (List.for_all (fun r -> List.mem r rels) rels') then
      add
        [ D.v ~invariant:"oracle/rewrite-subset"
            "rewritten query references a relation outside the original" ];
    if n >= 2 && List.length rels' < 2 then
      add
        [ D.v ~invariant:"oracle/rewrite-degenerate"
            "rewrite absorbed the query below two relations" ];
    if not (Schema.joinable schema' rels') then
      add
        [ D.v ~invariant:"oracle/rewrite-disconnected"
            "rewrite disconnected the join graph" ];
    if rw_report.Rewrite.removed <> n - List.length rels' then
      add
        [ D.v ~invariant:"oracle/rewrite-removed-count"
            "rewrite report counts %d removals, relation list shrank by %d"
            rw_report.Rewrite.removed
            (n - List.length rels') ]
  end
  else if not (schema' == schema && rels' == rels) then
    add
      [ D.v ~invariant:"oracle/rewrite-unchanged-rebuild"
          "unchanged rewrite rebuilt its outputs" ];
  let rw_sel =
    Selinger.optimize
      (fault ~arm:"rewrite-selinger" (Coster.fixed model schema' fixed_resources))
      schema' rels'
  in
  relate "oracle/rewrite-selinger-never-worse"
    "rewritten left-deep optimum must be <= the original (plain floats)"
    (fun a b -> a <= b)
    (cost rw_sel) (cost sel);
  if n <= 14 then begin
    let rw_dp =
      Dpsub.optimize
        (fault ~arm:"rewrite-dpsub" (Coster.fixed model schema' fixed_resources))
        schema' rels'
    in
    relate "oracle/rewrite-dpsub-never-worse"
      "rewritten bushy optimum must be <= the original (plain floats)"
      (fun a b -> a <= b)
      (cost rw_dp) (cost dpsub)
  end;

  (* Cost_based threading: with no-op hints, rewrite-on is bit-identical to
     rewrite-off; with count-star hints the brute-force joint optimum is
     never worse; and the rewritten randomized restarts, fanned out over a
     pool, reproduce the sequential search bitwise at every pool size. *)
  let cb_run ?(hints = Rewrite.no_hints) ~rewrite kind pool_jobs =
    let t =
      Cost_based.create ~kind
        ~resource_planner:(Resource_planner.create ~kernel:false)
        ~rewrite ~rewrite_hints:hints ~model ~conditions schema
    in
    match pool_jobs with
    | None -> Cost_based.optimize t rels
    | Some j -> Pool.with_pool ~jobs:j (fun pool -> Cost_based.optimize_par t pool rels)
  in
  let cb_off = cb_run ~rewrite:false Cost_based.Selinger None in
  let cb_on = cb_run ~rewrite:true Cost_based.Selinger None in
  if cb_on <> cb_off then
    add
      [ D.v ~invariant:"oracle/rewrite-default-identity"
          "rewrite-on with no-op hints diverged from rewrite-off (Selinger joint)" ];
  let cb_hinted = cb_run ~hints:count_star ~rewrite:true Cost_based.Selinger None in
  relate "oracle/rewrite-joint-never-worse"
    "hinted joint optimum must be <= the unrewritten joint optimum (plain floats)"
    (fun a b -> a <= b)
    (cost cb_hinted) (cost cb_off);
  if n <= 10 then begin
    let seq = cb_run ~hints:count_star ~rewrite:true Cost_based.Fast_randomized None in
    List.iter
      (fun j ->
        if j > 1 then begin
          let par = cb_run ~hints:count_star ~rewrite:true Cost_based.Fast_randomized (Some j) in
          if par <> seq then
            add
              [ D.v ~invariant:"oracle/rewrite-par-vs-seq"
                  "rewritten randomized restarts (%d jobs) diverged from sequential" j ]
        end)
      jobs
  end;

  !diags

(* ------------------------------------------- adaptive re-optimization arm *)

type masked_fault = Coster.masked -> Coster.masked

let no_masked_fault : masked_fault = fun c -> c

let adaptive_dists : Estimation_error.dist list =
  [
    Estimation_error.Exact;
    Estimation_error.Lognormal 0.6;
    Estimation_error.Skew 0.8;
    Estimation_error.Correlated 0.8;
  ]

(* The error stream is decoupled from the instance stream so the same seed
   never feeds both the schema generator and the perturbation. *)
let adaptive_error_seed seed = (seed * 37) + 11

let check_adaptive ?(dists = adaptive_dists) ?(fault = no_masked_fault) t =
  let diags = ref [] in
  let add ds = diags := !diags @ ds in
  let truth = t.schema and rels = t.relations in
  let n = List.length rels in
  let latency = Adaptive_exec.latency in
  (* Static plans come from the *estimates* — the optimizer never sees the
     truth; only the adaptive executor's materialization boundaries do. *)
  let planners =
    ("selinger",
     fun estimates rp -> Selinger.optimize (Coster.raqo model estimates rp) estimates rels)
    :: (if n <= 10 then
          [
            ("dpsub",
             fun estimates rp ->
               Dpsub.optimize (Coster.raqo model estimates rp) estimates rels);
          ]
        else [])
  in
  List.iter
    (fun dist ->
      let error = Estimation_error.make dist ~seed:(adaptive_error_seed t.seed) in
      let estimates = Estimation_error.perturb error truth in
      List.iter
        (fun (pname, optimize) ->
          let engines =
            Engine.hive :: (if pname = "dpsub" then [ Engine.spark ] else [])
          in
          List.iter
            (fun (engine : Engine.t) ->
              let arm =
                Printf.sprintf "adaptive/%s/%s/%s" pname engine.Engine.name
                  (Estimation_error.dist_name error)
              in
              match optimize estimates (Resource_planner.create conditions) with
              | None -> () (* no feasible static plan: nothing to execute *)
              | Some (plan, _est_cost) ->
                  if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_arms;
                  let report =
                    Adaptive_exec.run ~fault ~engine ~model ~conditions ~truth ~estimates
                      plan
                  in
                  (* The report's static path must be bit-identical to the
                     independent tree simulator — the differential anchor
                     every other relation leans on. *)
                  (match
                     (report.Adaptive_exec.static_outcome, Simulate.run_joint engine truth plan)
                   with
                  | Adaptive_exec.Done { seconds; gb_seconds }, Ok run ->
                      if
                        not
                          (Float.equal seconds run.Simulate.seconds
                          && Float.equal gb_seconds run.Simulate.gb_seconds)
                      then
                        add
                          [ D.v ~invariant:"oracle/adaptive-static-vs-simulate"
                              "%s: static path diverged from Simulate.run_joint (%h vs %h s)"
                              arm seconds run.Simulate.seconds ]
                  | Adaptive_exec.Oom _, Error _ -> ()
                  | Adaptive_exec.Done _, Error reason ->
                      add
                        [ D.v ~invariant:"oracle/adaptive-static-vs-simulate"
                            "%s: static path completed but the simulator failed (%s)" arm
                            reason ]
                  | Adaptive_exec.Oom _, Ok _ ->
                      add
                        [ D.v ~invariant:"oracle/adaptive-static-vs-simulate"
                            "%s: static path failed but the simulator completed" arm ]);
                  (* Zero-error identity: no estimation error means no replan
                     fires and the adaptive run is bit-identical to static. *)
                  if dist = Estimation_error.Exact then begin
                    if report.Adaptive_exec.replans <> 0 then
                      add
                        [ D.v ~invariant:"oracle/adaptive-exact-replans"
                            "%s: %d re-plans fired under zero estimation error" arm
                            report.Adaptive_exec.replans ];
                    if report.Adaptive_exec.adaptive_plan <> report.Adaptive_exec.static_plan
                    then
                      add
                        [ D.v ~invariant:"oracle/adaptive-exact-plan"
                            "%s: adaptive plan differs from static under zero error" arm ];
                    if
                      report.Adaptive_exec.adaptive_outcome
                      <> report.Adaptive_exec.static_outcome
                    then
                      add
                        [ D.v ~invariant:"oracle/adaptive-exact-outcome"
                            "%s: adaptive outcome not bit-identical to static under zero \
                             error"
                            arm ]
                  end;
                  (* Never-worse, as plain floats — no tolerance. *)
                  if
                    not
                      (latency report.Adaptive_exec.adaptive_outcome
                      <= latency report.Adaptive_exec.static_outcome)
                  then
                    add
                      [ D.v ~invariant:"oracle/adaptive-never-worse"
                          "%s: adaptive latency %h exceeds static %h (replans=%d switches=%d)"
                          arm
                          (latency report.Adaptive_exec.adaptive_outcome)
                          (latency report.Adaptive_exec.static_outcome)
                          report.Adaptive_exec.replans report.Adaptive_exec.switches ];
                  (match
                     ( report.Adaptive_exec.static_outcome,
                       report.Adaptive_exec.adaptive_outcome )
                   with
                  | Adaptive_exec.Done _, Adaptive_exec.Oom _ ->
                      add
                        [ D.v ~invariant:"oracle/adaptive-oom-regression"
                            "%s: adaptive run failed where the static run completed" arm ]
                  | _ -> ()))
            engines)
        planners)
    dists;
  !diags

(* ------------------------------------------- workload allocator arm *)

module Surface = Raqo_alloc.Surface
module Allocator = Raqo_alloc.Allocator
module Alloc_workload = Raqo_alloc.Workload
module Pricing = Raqo_cluster.Pricing

(* Decoupled from both the instance stream and the adaptive error stream. *)
let alloc_seed seed = (seed * 69_069) + 5

let alloc_queries = 4
let alloc_budget = 16
let alloc_fairness = 0.5

(* Derives a small workload from the instance: the instance's own query plus
   three more connected queries over the same schema, heavy-tailed arrivals,
   alternating tenants/weights, and SLOs pinned just above each query's best
   latency so the violations axis is live but not saturated. *)
let alloc_workload t =
  let rng = Rng.create (alloc_seed t.seed) in
  let arrivals =
    Alloc_workload.arrivals (Rng.split rng) ~n:alloc_queries ~rate:0.5
      ~capacity:alloc_budget
  in
  let joins = min t.joins (t.tables - 1) in
  let plan rels =
    let opt = Cost_based.create ~model ~conditions t.schema in
    Cost_based.optimize opt rels
  in
  List.init alloc_queries (fun i ->
      if i = 0 then t.relations else Random_schema.query rng t.schema ~joins)
  |> List.mapi (fun i rels ->
         match plan rels with
         | None -> None
         | Some (joint, cost) ->
             let name = Printf.sprintf "q%d" i in
             let surface =
               Surface.build ~model ~conditions ~schema:t.schema ~name joint
             in
             let best = Surface.latency_at surface (Surface.max_cap surface) in
             Some
               ( joint,
                 cost,
                 {
                   Allocator.name;
                   tenant = Printf.sprintf "t%d" (i mod 2);
                   weight = 1.0 +. float_of_int (i mod 2);
                   arrival = arrivals.(i);
                   slo = (if i mod 2 = 0 then Some (best *. 1.25) else None);
                   surface;
                 } ))
  |> List.filter_map Fun.id

let check_alloc t =
  let diags = ref [] in
  let add ds = diags := !diags @ ds in
  let arm () = if Raqo_obs.Obs.enabled () then Raqo_obs.Metrics.Counter.inc m_arms in
  let planned = alloc_workload t in
  let queries = Array.of_list (List.map (fun (_, _, q) -> q) planned) in
  let pricing =
    let rng = Rng.create (alloc_seed t.seed + 1) in
    Pricing.spot
      ~swings:(Pricing.random_swings rng ~horizon:1000.0 ~segments:3)
      Pricing.default
  in

  (* Surfaces: monotone nonincreasing, finite, and — because the joint plans
     come from brute-force resource search over the same grid — the full-cap
     latency re-derives the planner's estimated cost. *)
  arm ();
  List.iter
    (fun (_joint, cost, (q : Allocator.query)) ->
      let lats = Surface.latencies q.Allocator.surface in
      Array.iteri
        (fun i l ->
          if not (Float.is_finite l) then
            add
              [ D.v ~invariant:"alloc/surface-finite" "%s: non-finite latency at cap index %d"
                  q.Allocator.name i ];
          if i > 0 && l > lats.(i - 1) then
            add
              [ D.v ~invariant:"alloc/surface-monotone"
                  "%s: latency increases with the container cap (%h -> %h)"
                  q.Allocator.name lats.(i - 1) l ])
        lats;
      let full = lats.(Array.length lats - 1) in
      if not (approx_eq full cost) then
        add
          [ D.v ~invariant:"alloc/surface-vs-plan-cost"
              "%s: full-cap surface latency must re-derive the joint plan cost (%.6f vs %.6f)"
              q.Allocator.name full cost ])
    planned;

  if Array.length queries > 0 then begin
    let floors = Allocator.floors ~budget:alloc_budget ~fairness:alloc_fairness queries in
    let check_points arm_name (outcome : Allocator.outcome) =
      List.iter
        (fun (p : Allocator.point) ->
          if Array.fold_left ( + ) 0 p.Allocator.alloc > alloc_budget then
            add
              [ D.v ~invariant:"alloc/frontier-budget" "%s: frontier point over budget (%d > %d)"
                  arm_name
                  (Array.fold_left ( + ) 0 p.Allocator.alloc)
                  alloc_budget ];
          Array.iteri
            (fun i c ->
              if c < floors.(i) then
                add
                  [ D.v ~invariant:"alloc/frontier-fairness"
                      "%s: query %d below its fairness floor (%d < %d)" arm_name i c floors.(i) ])
            p.Allocator.alloc;
          let re = Allocator.evaluate ~pricing queries p.Allocator.alloc in
          if
            not
              (Float.equal re.Allocator.makespan p.Allocator.makespan
              && Float.equal re.Allocator.dollars p.Allocator.dollars
              && re.Allocator.violations = p.Allocator.violations)
          then
            add
              [ D.v ~invariant:"alloc/frontier-reprice"
                  "%s: stored objective vector diverges from re-evaluation" arm_name ];
          List.iter
            (fun (q : Allocator.point) ->
              if q != p && Allocator.dominates q p then
                add
                  [ D.v ~invariant:"alloc/frontier-dominated"
                      "%s: reported frontier point is dominated" arm_name ])
            outcome.Allocator.frontier)
        outcome.Allocator.frontier;
      match outcome.Allocator.frontier with
      | [] -> add [ D.v ~invariant:"alloc/frontier-empty" "%s: empty frontier" arm_name ]
      | best :: _ ->
          (* Frontier is sorted by makespan: the head is the global makespan
             optimum, which may never exceed the naive equal split. *)
          if not (best.Allocator.makespan <= outcome.Allocator.equal_split.Allocator.makespan)
          then
            add
              [ D.v ~invariant:"alloc/never-worse-than-equal-split"
                  "%s: best makespan %h exceeds the equal split's %h" arm_name
                  best.Allocator.makespan outcome.Allocator.equal_split.Allocator.makespan ]
    in
    arm ();
    let exact =
      Allocator.exact ~pricing ~budget:alloc_budget ~fairness:alloc_fairness queries
    in
    (match exact with
    | None ->
        add
          [ D.v ~invariant:"alloc/exact-too-large"
              "exact DP overflowed its state bound on an oracle-sized workload" ]
    | Some o -> check_points "alloc-exact" o);
    (* The staircase DP against the list DP it replaced: the same answer
       bit for bit, and an overflow at the same state bound. *)
    arm ();
    (match exact with
    | None -> ()
    | Some _ ->
        let bound =
          Alloc_reference.overflow_bound ~pricing ~budget:alloc_budget
            ~fairness:alloc_fairness queries
        in
        List.iter
          (fun max_states ->
            match
              Alloc_reference.mismatch ?max_states ~pricing ~budget:alloc_budget
                ~fairness:alloc_fairness queries
            with
            | None -> ()
            | Some what ->
                add
                  [ D.v ~invariant:"alloc/exact-vs-reference" "max_states %s: %s"
                      (match max_states with Some m -> string_of_int m | None -> "default")
                      what ])
          [ None; Some bound; Some (bound - 1) ]);
    arm ();
    let seed = alloc_seed t.seed + 2 in
    let rand =
      Allocator.randomized ~pricing ~seed ~budget:alloc_budget ~fairness:alloc_fairness
        queries
    in
    check_points "alloc-randomized" rand;
    let rand2 =
      Allocator.randomized ~pricing ~seed ~budget:alloc_budget ~fairness:alloc_fairness
        queries
    in
    if rand.Allocator.frontier <> rand2.Allocator.frontier then
      add
        [ D.v ~invariant:"alloc/randomized-deterministic"
            "equal-seed randomized searches diverged" ];
    (* Differential: the exact frontier covers every randomized point — the
       DP enumerates the full grid space the local search walks, and both
       price allocations through the same evaluator. *)
    (match exact with
    | None -> ()
    | Some e ->
        List.iter
          (fun (r : Allocator.point) ->
            if
              not
                (List.exists
                   (fun (p : Allocator.point) -> Allocator.covers p r)
                   e.Allocator.frontier)
            then
              add
                [ D.v ~invariant:"alloc/exact-dominates-randomized"
                    "randomized frontier point (m=%h $=%h v=%d) not covered by the exact DP"
                    r.Allocator.makespan r.Allocator.dollars r.Allocator.violations ])
          rand.Allocator.frontier)
  end;
  !diags
