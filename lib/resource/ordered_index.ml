(* Sorted parallel float arrays (keys, pool slots, stamps), binary search,
   shift on insert. Values never move: each is written once into an
   append-only pool, and the sorted arrays hold its pool slot as a float
   (exact up to 2^53). Shifting a float array is one memory move, while
   shifting a boxed or int array in the major heap pays a write barrier per
   moved slot. Removed entries' pool slots go on a free list and are reused
   by later inserts, so the pool never outgrows the largest live size.
   Unstamped indexes carry no stamp array at all. Each pool slot also holds
   a float beside its value, unboxed in a parallel array (the plan cache
   stores a configuration's cost there). *)

type 'a t = {
  stamped : bool;
  mutable keys : float array;
  mutable slots : float array;  (** pool slot of the value at each key *)
  mutable stamps : float array;  (** [[||]] unless [stamped] *)
  mutable n : int;
  mutable pool : 'a array;
  mutable costs : float array;  (** the float stored with each pool slot *)
  mutable pool_used : int;  (** pool slots ever handed out *)
  mutable free : int list;  (** handed-out pool slots of removed entries *)
}

let create ?(stamped = false) () =
  {
    stamped;
    keys = [||];
    slots = [||];
    stamps = [||];
    n = 0;
    pool = [||];
    costs = [||];
    pool_used = 0;
    free = [];
  }

let size t = t.n

(* Index of the first key >= [key], in [0, n]. *)
let lower_bound t key =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let value t pos = t.pool.(int_of_float t.slots.(pos))
let set_stamp t pos stamp = if t.stamped then t.stamps.(pos) <- float_of_int stamp

let grow_floats a n capacity =
  let b = Array.make capacity 0.0 in
  Array.blit a 0 b 0 n;
  b

let set_slot t slot value cost =
  t.pool.(slot) <- value;
  t.costs.(slot) <- cost

(* A pool slot for a new value: a freed one, else the next fresh one. *)
let store t value cost =
  match t.free with
  | slot :: rest ->
      t.free <- rest;
      set_slot t slot value cost;
      slot
  | [] ->
      let slot = t.pool_used in
      if slot = Array.length t.pool then begin
        let pool = Array.make (max 16 (2 * slot)) value in
        Array.blit t.pool 0 pool 0 slot;
        t.pool <- pool;
        t.costs <- grow_floats t.costs slot (Array.length pool)
      end;
      set_slot t slot value cost;
      t.pool_used <- slot + 1;
      slot

let insert ?(stamp = 0) ~cost t key value =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then begin
    set_slot t (int_of_float t.slots.(pos)) value cost;
    set_stamp t pos stamp
  end
  else begin
    if t.n = Array.length t.keys then begin
      let capacity = max 16 (2 * t.n) in
      t.keys <- grow_floats t.keys t.n capacity;
      t.slots <- grow_floats t.slots t.n capacity;
      if t.stamped then t.stamps <- grow_floats t.stamps t.n capacity
    end;
    Array.blit t.keys pos t.keys (pos + 1) (t.n - pos);
    Array.blit t.slots pos t.slots (pos + 1) (t.n - pos);
    if t.stamped then Array.blit t.stamps pos t.stamps (pos + 1) (t.n - pos);
    t.keys.(pos) <- key;
    t.slots.(pos) <- float_of_int (store t value cost);
    set_stamp t pos stamp;
    t.n <- t.n + 1
  end

let find_exact t key =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then Some (value t pos) else None

let find_costed t key =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then begin
    let slot = int_of_float t.slots.(pos) in
    Some (t.pool.(slot), t.costs.(slot))
  end
  else None

let remove t key =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then begin
    t.free <- int_of_float t.slots.(pos) :: t.free;
    Array.blit t.keys (pos + 1) t.keys pos (t.n - pos - 1);
    Array.blit t.slots (pos + 1) t.slots pos (t.n - pos - 1);
    if t.stamped then Array.blit t.stamps (pos + 1) t.stamps pos (t.n - pos - 1);
    t.n <- t.n - 1;
    true
  end
  else false

let within t ~center ~radius =
  let pos = lower_bound t (center -. radius) in
  let rec collect i acc =
    if i >= t.n || t.keys.(i) > center +. radius then List.rev acc
    else collect (i + 1) ((t.keys.(i), value t i) :: acc)
  in
  collect pos []

(* Only the successor and predecessor of [center] can be nearest; ties go
   to the predecessor, i.e. the lower key. *)
let nearest t ~center ~radius =
  if t.n = 0 then None
  else begin
    let pos = lower_bound t center in
    let best =
      if pos >= t.n then pos - 1
      else if pos = 0 then 0
      else if Float.abs (t.keys.(pos - 1) -. center) <= Float.abs (t.keys.(pos) -. center)
      then pos - 1
      else pos
    in
    if Float.abs (t.keys.(best) -. center) <= radius then Some (t.keys.(best), value t best)
    else None
  end

let touch t key stamp =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then set_stamp t pos stamp

let oldest t =
  if t.n = 0 then None
  else if not t.stamped then Some (t.keys.(0), 0)
  else begin
    let best = ref 0 in
    for i = 1 to t.n - 1 do
      if t.stamps.(i) < t.stamps.(!best) then best := i
    done;
    Some (t.keys.(!best), int_of_float t.stamps.(!best))
  end

let pool_size t = t.pool_used
let to_list t = List.init t.n (fun i -> (t.keys.(i), value t i))
