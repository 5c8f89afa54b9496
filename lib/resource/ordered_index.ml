(* Contiguous parallel key/value arrays, binary search, shift on insert. A
   stamped index keeps a third, float array of stamps (exact up to 2^53): a
   float array shifts with one memory move, while shifting an int array in
   the major heap pays a write barrier per slot, as the boxed [values] array
   does. Unstamped indexes carry no stamp array at all. *)

type 'a t = {
  stamped : bool;
  mutable keys : float array;
  mutable values : 'a array;
  mutable stamps : float array;  (** [[||]] unless [stamped] *)
  mutable n : int;
}

let create ?(stamped = false) () = { stamped; keys = [||]; values = [||]; stamps = [||]; n = 0 }
let size t = t.n

(* Index of the first key >= [key], in [0, n]. *)
let lower_bound t key =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let set_stamp t pos stamp = if t.stamped then t.stamps.(pos) <- float_of_int stamp

let insert ?(stamp = 0) t key value =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then begin
    t.values.(pos) <- value;
    set_stamp t pos stamp
  end
  else begin
    if t.n = Array.length t.keys then begin
      let capacity = max 16 (2 * t.n) in
      let keys = Array.make capacity 0.0 in
      let values = Array.make capacity value in
      Array.blit t.keys 0 keys 0 t.n;
      Array.blit t.values 0 values 0 t.n;
      t.keys <- keys;
      t.values <- values;
      if t.stamped then begin
        let stamps = Array.make capacity 0.0 in
        Array.blit t.stamps 0 stamps 0 t.n;
        t.stamps <- stamps
      end
    end;
    Array.blit t.keys pos t.keys (pos + 1) (t.n - pos);
    Array.blit t.values pos t.values (pos + 1) (t.n - pos);
    if t.stamped then Array.blit t.stamps pos t.stamps (pos + 1) (t.n - pos);
    t.keys.(pos) <- key;
    t.values.(pos) <- value;
    set_stamp t pos stamp;
    t.n <- t.n + 1
  end

let find_exact t key =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then Some t.values.(pos) else None

let remove t key =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then begin
    Array.blit t.keys (pos + 1) t.keys pos (t.n - pos - 1);
    Array.blit t.values (pos + 1) t.values pos (t.n - pos - 1);
    if t.stamped then Array.blit t.stamps (pos + 1) t.stamps pos (t.n - pos - 1);
    t.n <- t.n - 1;
    true
  end
  else false

let within t ~center ~radius =
  let pos = lower_bound t (center -. radius) in
  let rec collect i acc =
    if i >= t.n || t.keys.(i) > center +. radius then List.rev acc
    else collect (i + 1) ((t.keys.(i), t.values.(i)) :: acc)
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
    if Float.abs (t.keys.(best) -. center) <= radius then
      Some (t.keys.(best), t.values.(best))
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

let to_list t = List.init t.n (fun i -> (t.keys.(i), t.values.(i)))

