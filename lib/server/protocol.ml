type payload = Raqo.Sql_frontend.query = Sql of string | Relations of string list
type mode = Raqo.Sql_frontend.mode = Raqo | Qo of Raqo_cluster.Resources.t

type request = {
  id : string;
  payload : payload;
  planner : Raqo.Cost_based.planner_kind;
  mode : mode;
  seed : int;
  adaptive : bool;
  est_error : Raqo_execsim.Estimation_error.t;
  engine : string;
  tenant : string option;
}

type outcome_summary = Finished of float | Oom of int

type adaptive_summary = {
  static_outcome : outcome_summary;
  adaptive_outcome : outcome_summary;
  replans : int;
  switches : int;
}

type reject_reason = Bad_request | Overloaded | Infeasible | Internal
type rewrite_summary = { fired : (string * int) list; removed : int }

(* ---------- workload allocation ---------- *)

type objective = Raqo_alloc.Allocator.objective = Makespan | Dollars | Balanced

let objective_of_string = function
  | "makespan" -> Ok Makespan
  | "cost" -> Ok Dollars
  | "balanced" -> Ok Balanced
  | s -> Error (Printf.sprintf "unknown objective %S (want makespan|cost|balanced)" s)

let objective_name = function Makespan -> "makespan" | Dollars -> "cost" | Balanced -> "balanced"

type alloc_query = {
  qid : string;
  payload : payload;
  tenant : string option;
  weight : float;
  arrival : float;
  slo : float option;
}

type alloc_request = {
  id : string;
  queries : alloc_query list;
  budget : int;
  planner : Raqo.Cost_based.planner_kind;
  objective : objective;
  fairness : float;
  search : string;  (* one of [Allocator.want_names] *)
  seed : int;
  engine : string;
  tenant : string option;
}

type alloc_point = {
  containers : int list;
  makespan : float;
  dollars : float;
  violations : int;
}

type response =
  | Planned of {
      id : string;
      plan : string;
      cost : float;
      resources : (int * float) list;
      adaptive : adaptive_summary option;
      rewrite : rewrite_summary option;
    }
  | Rejected of { id : string option; reason : reject_reason; message : string }
  | Health_ok of {
      id : string option;
      queue_depth : int;
      ready : bool;
    }
  | Allocated of {
      id : string;
      search : string;  (* the mode that actually ran *)
      budget : int;
      frontier : alloc_point list;
      chosen : alloc_point;
      equal_split : alloc_point;
      queries : (string * int * float * string) list;  (* qid, containers, latency, plan *)
    }

type line =
  | Health of { id : string option }
  | Request of request
  | Allocate of alloc_request

let reason_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Infeasible -> "infeasible"
  | Internal -> "internal"

let planner_of_string = function
  | "selinger" -> Ok Raqo.Cost_based.Selinger
  | "fast_randomized" -> Ok Raqo.Cost_based.Fast_randomized
  | "bushy_dp" -> Ok Raqo.Cost_based.Bushy_dp
  | s -> Error (Printf.sprintf "unknown planner %S (want selinger|fast_randomized|bushy_dp)" s)

let planner_name = function
  | Raqo.Cost_based.Selinger -> "selinger"
  | Raqo.Cost_based.Fast_randomized -> "fast_randomized"
  | Raqo.Cost_based.Bushy_dp -> "bushy_dp"

let ( let* ) = Result.bind

(* ---------- field readers ----------
   One reader per field, shared by every grammar that takes it, so a field
   has one set of rules and one message wherever it appears. *)

(* Strict field whitelist: a typo'd option silently falling back to a default
   would make "bit-identical to the CLI" vacuously true for the wrong plan.
   [prefix] starts the message: "unknown field(s): " and the like. *)
let check_keys known ~prefix json =
  match List.filter (fun k -> not (List.mem k known)) (Json.keys json) with
  | [] -> Ok ()
  | ks -> Error (prefix ^ String.concat ", " ks)

let field_opt json key ~cast ~what =
  match Json.member key json with
  | None -> Ok None
  | Some v -> (
      match cast v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S must be %s" key what))

(* [what] names the field in the message: "field" on requests and probes,
   "query field" on allocate members. *)
let read_id ?(what = "field") json =
  match Json.member "id" json with
  | None -> Ok None
  | Some (Json.Str s) when s <> "" -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "%s \"id\" must be a non-empty string" what)

let require_id ?what ~missing json =
  let* id = read_id ?what json in
  Option.to_result ~none:missing id

let read_string json key ~default =
  let* s = field_opt json key ~cast:Json.to_str ~what:"a string" in
  Ok (Option.value s ~default)

let read_planner json =
  let* s = read_string json "planner" ~default:"selinger" in
  planner_of_string s

let read_engine json =
  let* engine = read_string json "engine" ~default:"hive" in
  match engine with
  | "hive" | "spark" -> Ok engine
  | s -> Error (Printf.sprintf "unknown engine %S (want hive|spark)" s)

let read_seed json =
  let* seed = field_opt json "seed" ~cast:Json.to_int ~what:"an integer" in
  Ok (Option.value seed ~default:42)

let read_tenant json =
  match Json.member "tenant" json with
  | None -> Ok None
  | Some (Json.Str s) when s <> "" -> Ok (Some s)
  | Some _ -> Error "field \"tenant\" must be a non-empty string"

(* Exactly one of "sql"/"relations". *)
let read_payload json =
  match (Json.member "sql" json, Json.member "relations" json) with
  | Some (Json.Str sql), None -> Ok (Sql sql)
  | None, Some (Json.List xs) ->
      let rels = List.filter_map Json.to_str xs in
      if List.length rels <> List.length xs then
        Error "field \"relations\" must be a list of strings"
      else if rels = [] then Error "field \"relations\" must be non-empty"
      else Ok (Relations rels)
  | None, Some _ -> Error "field \"relations\" must be a list of strings"
  | Some _, None -> Error "field \"sql\" must be a string"
  | Some _, Some _ -> Error "give exactly one of \"sql\" or \"relations\""
  | None, None -> Error "give exactly one of \"sql\" or \"relations\""

let read_search json =
  let* s = read_string json "search" ~default:"auto" in
  match Raqo_alloc.Allocator.want_of_string s with
  | Some _ -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown search %S (want %s)" s
           (String.concat "|" Raqo_alloc.Allocator.want_names))

(* ---------- plan requests ---------- *)

let known_keys =
  [ "id"; "sql"; "relations"; "planner"; "mode"; "containers"; "gb"; "seed";
    "adaptive"; "est_error"; "engine"; "tenant" ]

let parse_request_json json =
  let* () =
    match json with Json.Obj _ -> Ok () | _ -> Error "request must be a JSON object"
  in
  let* () = check_keys known_keys ~prefix:"unknown field(s): " json in
  let* id = require_id ~missing:"missing required field \"id\"" json in
  let* payload = read_payload json in
  let* planner = read_planner json in
  let* mode_s = read_string json "mode" ~default:"raqo" in
  let* containers = field_opt json "containers" ~cast:Json.to_int ~what:"an integer" in
  let* gb = field_opt json "gb" ~cast:Json.to_float ~what:"a number" in
  let* mode =
    match (mode_s, containers, gb) with
    | "raqo", None, None -> Ok Raqo
    | "raqo", _, _ -> Error "\"containers\"/\"gb\" only apply to mode \"qo\""
    | "qo", Some c, Some g -> (
        match Raqo_cluster.Resources.make ~containers:c ~container_gb:g with
        | r -> Ok (Qo r)
        | exception Invalid_argument m -> Error m)
    | "qo", _, _ -> Error "mode \"qo\" requires \"containers\" and \"gb\""
    | s, _, _ -> Error (Printf.sprintf "unknown mode %S (want raqo|qo)" s)
  in
  let* seed = read_seed json in
  let* adaptive = field_opt json "adaptive" ~cast:Json.to_bool ~what:"a boolean" in
  let adaptive = Option.value adaptive ~default:false in
  let* est_error_s = field_opt json "est_error" ~cast:Json.to_str ~what:"a string" in
  let* () =
    if est_error_s <> None && not adaptive then
      Error "\"est_error\" requires \"adaptive\":true"
    else Ok ()
  in
  let* est_error =
    match est_error_s with
    | None -> Ok Raqo_execsim.Estimation_error.exact
    | Some s -> Raqo_execsim.Estimation_error.of_string s
  in
  let* engine = read_engine json in
  let* () = Raqo.Sql_frontend.check_mode mode ~adaptive in
  let* tenant = read_tenant json in
  Ok { id; payload; planner; mode; seed; adaptive; est_error; engine; tenant }

let parse_request line =
  let* json = Json.parse line in
  parse_request_json json

(* ---------- "op":"allocate" ---------- *)

let alloc_known_keys =
  [ "op"; "id"; "budget"; "queries"; "planner"; "objective"; "fairness";
    "search"; "seed"; "engine"; "tenant" ]

let alloc_query_known_keys =
  [ "id"; "sql"; "relations"; "tenant"; "weight"; "arrival"; "slo" ]

let parse_alloc_query json =
  let* () =
    match json with
    | Json.Obj _ -> Ok ()
    | _ -> Error "each entry of \"queries\" must be a JSON object"
  in
  let* () = check_keys alloc_query_known_keys ~prefix:"unknown query field(s): " json in
  let* qid =
    require_id ~what:"query field" ~missing:"each entry of \"queries\" needs an \"id\"" json
  in
  let* payload = read_payload json in
  let* tenant = read_tenant json in
  let* weight = field_opt json "weight" ~cast:Json.to_float ~what:"a number" in
  let weight = Option.value weight ~default:1.0 in
  let* () =
    if weight > 0.0 then Ok () else Error "query field \"weight\" must be positive"
  in
  let* arrival = field_opt json "arrival" ~cast:Json.to_float ~what:"a number" in
  let arrival = Option.value arrival ~default:0.0 in
  let* () =
    if arrival >= 0.0 then Ok ()
    else Error "query field \"arrival\" must be non-negative"
  in
  let* slo = field_opt json "slo" ~cast:Json.to_float ~what:"a number" in
  let* () =
    match slo with
    | Some s when s <= 0.0 -> Error "query field \"slo\" must be positive"
    | _ -> Ok ()
  in
  Ok { qid; payload; tenant; weight; arrival; slo }

let parse_allocate json =
  let* () = check_keys alloc_known_keys ~prefix:"unknown field(s): " json in
  let* id = require_id ~missing:"missing required field \"id\"" json in
  let* budget =
    match Json.member "budget" json with
    | Some v -> (
        match Json.to_int v with
        | Some b when b >= 1 -> Ok b
        | Some _ -> Error "field \"budget\" must be at least 1"
        | None -> Error "field \"budget\" must be an integer")
    | None -> Error "missing required field \"budget\""
  in
  let* queries =
    match Json.member "queries" json with
    | Some (Json.List (_ :: _ as xs)) ->
        List.fold_left
          (fun acc q ->
            let* acc = acc in
            let* q = parse_alloc_query q in
            Ok (q :: acc))
          (Ok []) xs
        |> Result.map List.rev
    | Some (Json.List []) -> Error "field \"queries\" must be non-empty"
    | Some _ -> Error "field \"queries\" must be a list of objects"
    | None -> Error "missing required field \"queries\""
  in
  let* () =
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun acc (q : alloc_query) ->
        let* () = acc in
        if Hashtbl.mem seen q.qid then
          Error (Printf.sprintf "duplicate query id %S" q.qid)
        else (
          Hashtbl.add seen q.qid ();
          Ok ()))
      (Ok ()) queries
  in
  let* planner = read_planner json in
  let* objective_s = read_string json "objective" ~default:"balanced" in
  let* objective = objective_of_string objective_s in
  let* fairness = field_opt json "fairness" ~cast:Json.to_float ~what:"a number" in
  let fairness = Option.value fairness ~default:0.0 in
  let* () =
    if fairness >= 0.0 && fairness <= 1.0 then Ok ()
    else Error "field \"fairness\" must be in [0,1]"
  in
  let* search = read_search json in
  let* seed = read_seed json in
  let* engine = read_engine json in
  let* tenant = read_tenant json in
  Ok { id; queries; budget; planner; objective; fairness; search; seed; engine; tenant }

(* ---------- one wire line ---------- *)

(* A line is parsed once; its "op" picks the grammar the value goes to. A
   health probe is [op] plus an optional [id]. *)
let parse_line s =
  let* json = Json.parse s in
  match Json.member "op" json with
  | None -> Result.map (fun r -> Request r) (parse_request_json json)
  | Some (Json.Str "health") ->
      let* () = check_keys [ "op"; "id" ] ~prefix:"\"op\":\"health\" takes no field(s): " json in
      let* id = read_id json in
      Ok (Health { id })
  | Some (Json.Str "allocate") -> Result.map (fun a -> Allocate a) (parse_allocate json)
  | Some (Json.Str s) ->
      Error (Printf.sprintf "unknown op %S (want health|allocate)" s)
  | Some _ -> Error "field \"op\" must be a string"

(* ---------- encoding ---------- *)

let request_to_json (r : request) =
  let payload_fields =
    match r.payload with
    | Sql sql -> [ ("sql", Json.Str sql) ]
    | Relations rels -> [ ("relations", Json.List (List.map (fun s -> Json.Str s) rels)) ]
  in
  let mode_fields =
    match r.mode with
    | Raqo -> [ ("mode", Json.Str "raqo") ]
    | Qo res ->
        [
          ("mode", Json.Str "qo");
          ("containers", Json.Num (float_of_int res.Raqo_cluster.Resources.containers));
          ("gb", Json.Num res.Raqo_cluster.Resources.container_gb);
        ]
  in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str r.id) ]
       @ payload_fields
       @ [ ("planner", Json.Str (planner_name r.planner)) ]
       @ mode_fields
       @ [ ("seed", Json.Num (float_of_int r.seed)) ]
       @ (if r.adaptive then
            [
              ("adaptive", Json.Bool true);
              ( "est_error",
                Json.Str (Raqo_execsim.Estimation_error.to_string r.est_error) );
            ]
          else [])
       (* Absent when unset so pre-tenant traces keep their bytes. *)
       @ (match r.tenant with None -> [] | Some t -> [ ("tenant", Json.Str t) ])
       @ [ ("engine", Json.Str r.engine) ]))

let outcome_json = function
  | Finished s -> Json.Obj [ ("outcome", Json.Str "done"); ("seconds", Json.Num s) ]
  | Oom stage ->
      Json.Obj [ ("outcome", Json.Str "oom"); ("stage", Json.Num (float_of_int stage)) ]

let response_to_json = function
  | Planned { id; plan; cost; resources; adaptive; rewrite } ->
      let resources_json =
        Json.List
          (List.map
             (fun (c, g) ->
               Json.Obj [ ("containers", Json.Num (float_of_int c)); ("gb", Json.Num g) ])
             resources)
      in
      let adaptive_fields =
        match adaptive with
        | None -> []
        | Some a ->
            [
              ( "adaptive",
                Json.Obj
                  [
                    ("static", outcome_json a.static_outcome);
                    ("adaptive", outcome_json a.adaptive_outcome);
                    ("replans", Json.Num (float_of_int a.replans));
                    ("switches", Json.Num (float_of_int a.switches));
                  ] );
            ]
      in
      (* Absent unless a rule fired, so zero-rewrite responses keep their
         historical bytes (the served-vs-oneshot smoke depends on it). *)
      let rewrite_fields =
        match rewrite with
        | None -> []
        | Some r ->
            [
              ( "rewrite",
                Json.Obj
                  (List.map (fun (rule, n) -> (rule, Json.Num (float_of_int n))) r.fired
                  @ [ ("removed", Json.Num (float_of_int r.removed)) ]) );
            ]
      in
      Json.to_string
        (Json.Obj
           ([
              ("id", Json.Str id);
              ("status", Json.Str "ok");
              ("plan", Json.Str plan);
              ("cost", Json.Num cost);
              ("resources", resources_json);
            ]
           @ adaptive_fields @ rewrite_fields))
  | Health_ok { id; queue_depth; ready } ->
      let id_field = match id with None -> [] | Some id -> [ ("id", Json.Str id) ] in
      Json.to_string
        (Json.Obj
           (id_field
           @ [
               ("status", Json.Str "ok");
               ("op", Json.Str "health");
               ("queue_depth", Json.Num (float_of_int queue_depth));
               ("ready", Json.Bool ready);
             ]))
  | Rejected { id; reason; message } ->
      let id_field = match id with None -> [] | Some id -> [ ("id", Json.Str id) ] in
      Json.to_string
        (Json.Obj
           (id_field
           @ [
               ("status", Json.Str "error");
               ("reason", Json.Str (reason_name reason));
               ("message", Json.Str message);
             ]))
  | Allocated { id; search; budget; frontier; chosen; equal_split; queries } ->
      let point_json (p : alloc_point) =
        Json.Obj
          [
            ("makespan", Json.Num p.makespan);
            ("dollars", Json.Num p.dollars);
            ("violations", Json.Num (float_of_int p.violations));
            ( "containers",
              Json.List (List.map (fun c -> Json.Num (float_of_int c)) p.containers) );
          ]
      in
      let query_json (qid, containers, latency, plan) =
        Json.Obj
          [
            ("id", Json.Str qid);
            ("containers", Json.Num (float_of_int containers));
            ("latency", Json.Num latency);
            ("plan", Json.Str plan);
          ]
      in
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Str id);
             ("status", Json.Str "ok");
             ("op", Json.Str "allocate");
             ("search", Json.Str search);
             ("budget", Json.Num (float_of_int budget));
             ("frontier", Json.List (List.map point_json frontier));
             ("chosen", point_json chosen);
             ("equal_split", point_json equal_split);
             ("queries", Json.List (List.map query_json queries));
           ])

let response_id = function
  | Planned { id; _ } -> Some id
  | Rejected { id; _ } -> id
  | Health_ok { id; _ } -> id
  | Allocated { id; _ } -> Some id

let is_ok = function
  | Planned _ | Health_ok _ | Allocated _ -> true
  | Rejected _ -> false
