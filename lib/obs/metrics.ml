(* Shard count is a fixed power of two: domain ids are assigned densely from
   0, so [id land (shards - 1)] spreads the first 8 domains over distinct
   cells. More domains share cells, which stays exact (the cells are
   atomic) and only adds contention. *)
let shards = 8

let shard_index () = (Domain.self () :> int) land (shards - 1)

module Counter = struct
  type t = int Atomic.t array

  let create () = Array.init shards (fun _ -> Atomic.make 0)
  let add t n = ignore (Atomic.fetch_and_add t.(shard_index ()) n)
  let inc t = add t 1
  let value t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t
  let reset t = Array.iter (fun c -> Atomic.set c 0) t
end

module Gauge = struct
  (* Gauges are set rarely (no hot-path writers), so a single boxed-float
     atomic cell is enough. *)
  type t = float Atomic.t

  let create () = Atomic.make 0.
  let set t v = Atomic.set t v
  let value t = Atomic.get t
  let reset t = Atomic.set t 0.
end

module Histogram = struct
  type t = {
    edges : float array;
    counts : int Atomic.t array array;  (* shard -> bucket, len = edges + 1 *)
    sums : float Atomic.t array;  (* shard *)
  }

  let default_buckets =
    [| 0.000001; 0.000005; 0.00001; 0.00005; 0.0001; 0.0005; 0.001; 0.005;
       0.01; 0.05; 0.1; 0.5; 1.0 |]

  let create ?(buckets = default_buckets) () =
    let n = Array.length buckets in
    if n = 0 then invalid_arg "Histogram.create: empty buckets";
    for i = 1 to n - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Histogram.create: bucket edges must be strictly increasing"
    done;
    {
      edges = Array.copy buckets;
      counts = Array.init shards (fun _ -> Array.init (n + 1) (fun _ -> Atomic.make 0));
      sums = Array.init shards (fun _ -> Atomic.make 0.);
    }

  (* Bucket arrays are short (~a dozen edges), so a linear scan beats binary
     search once branch prediction warms up. *)
  let bucket_of t v =
    let n = Array.length t.edges in
    let rec go i = if i >= n then n else if v <= t.edges.(i) then i else go (i + 1) in
    go 0

  let observe t v =
    let s = shard_index () in
    ignore (Atomic.fetch_and_add t.counts.(s).(bucket_of t v) 1);
    (* CAS loop over a boxed float: contention is already split per domain by
       the shard, so retries are rare. *)
    let cell = t.sums.(s) in
    let rec add () =
      let cur = Atomic.get cell in
      if not (Atomic.compare_and_set cell cur (cur +. v)) then add ()
    in
    add ()

  let edges t = Array.copy t.edges

  let counts t =
    let n = Array.length t.edges + 1 in
    let out = Array.make n 0 in
    Array.iter
      (fun shard -> Array.iteri (fun i c -> out.(i) <- out.(i) + Atomic.get c) shard)
      t.counts;
    out

  let cumulative t =
    let c = counts t in
    for i = 1 to Array.length c - 1 do
      c.(i) <- c.(i) + c.(i - 1)
    done;
    c

  let count t = Array.fold_left ( + ) 0 (counts t)
  let sum t = Array.fold_left (fun acc s -> acc +. Atomic.get s) 0. t.sums

  let reset t =
    Array.iter (fun shard -> Array.iter (fun c -> Atomic.set c 0) shard) t.counts;
    Array.iter (fun s -> Atomic.set s 0.) t.sums
end

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t

(* A registry is a first-class value so a resident server can own its own
   name -> metric table: two servers (or a server and the CLI's default
   registry) then share no mutable state at all. The process-wide default
   below keeps every historical [counter name] call site unchanged. *)
type registry = { table : (string, metric) Hashtbl.t; mutex : Mutex.t }

let create_registry () = { table = Hashtbl.create 64; mutex = Mutex.create () }
let default = create_registry ()

let locked r f =
  Mutex.lock r.mutex;
  match f () with
  | v ->
      Mutex.unlock r.mutex;
      v
  | exception e ->
      Mutex.unlock r.mutex;
      raise e

let get_or_create r name ~make ~cast =
  locked r (fun () ->
      match Hashtbl.find_opt r.table name with
      | Some m -> cast m
      | None ->
          let m = make () in
          Hashtbl.add r.table name m;
          cast m)

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " already registered with another kind")

let counter_in r name =
  get_or_create r name
    ~make:(fun () -> Counter_m (Counter.create ()))
    ~cast:(function Counter_m c -> c | _ -> kind_error name)

let gauge_in r name =
  get_or_create r name
    ~make:(fun () -> Gauge_m (Gauge.create ()))
    ~cast:(function Gauge_m g -> g | _ -> kind_error name)

let histogram_in ?buckets r name =
  get_or_create r name
    ~make:(fun () -> Histogram_m (Histogram.create ?buckets ()))
    ~cast:(function
      | Histogram_m h ->
          (match buckets with
          | Some b when b <> h.Histogram.edges ->
              invalid_arg ("Metrics: " ^ name ^ " already registered with other buckets")
          | _ -> h)
      | _ -> kind_error name)

let counter name = counter_in default name
let gauge name = gauge_in default name
let histogram ?buckets name = histogram_in ?buckets default name

type snapshot =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      edges : float array;
      counts : int array;
      sum : float;
      count : int;
    }

let snapshot ?(registry = default) () =
  let entries =
    locked registry (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry.table [])
  in
  entries
  |> List.map (fun (name, m) ->
         let snap =
           match m with
           | Counter_m c -> Counter_value (Counter.value c)
           | Gauge_m g -> Gauge_value (Gauge.value g)
           | Histogram_m h ->
               Histogram_value
                 {
                   edges = Histogram.edges h;
                   counts = Histogram.counts h;
                   sum = Histogram.sum h;
                   count = Histogram.count h;
                 }
         in
         (name, snap))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset ?(registry = default) () =
  let entries =
    locked registry (fun () -> Hashtbl.fold (fun _ v acc -> v :: acc) registry.table [])
  in
  List.iter
    (function
      | Counter_m c -> Counter.reset c
      | Gauge_m g -> Gauge.reset g
      | Histogram_m h -> Histogram.reset h)
    entries
