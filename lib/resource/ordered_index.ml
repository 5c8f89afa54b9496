(* Contiguous parallel key/value arrays, binary search, shift on insert. *)

type 'a t = { mutable keys : float array; mutable values : 'a array; mutable n : int }

let create () = { keys = [||]; values = [||]; n = 0 }
let size t = t.n

(* Index of the first key >= [key], in [0, n]. *)
let lower_bound t key =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let insert t key value =
  let pos = lower_bound t key in
  if pos < t.n && t.keys.(pos) = key then t.values.(pos) <- value
  else begin
    if t.n = Array.length t.keys then begin
      let capacity = max 16 (2 * t.n) in
      let keys = Array.make capacity 0.0 in
      let values = Array.make capacity value in
      Array.blit t.keys 0 keys 0 t.n;
      Array.blit t.values 0 values 0 t.n;
      t.keys <- keys;
      t.values <- values
    end;
    Array.blit t.keys pos t.keys (pos + 1) (t.n - pos);
    Array.blit t.values pos t.values (pos + 1) (t.n - pos);
    t.keys.(pos) <- key;
    t.values.(pos) <- value;
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

let to_list t = List.init t.n (fun i -> (t.keys.(i), t.values.(i)))

