(* The I/O loop: line-delimited JSON over stdio or a TCP socket.

   The driver alternates between slurping whatever request lines are already
   readable (admitting each into the engine's bounded queue, answering
   malformed or overflowing ones immediately with a typed rejection) and
   planning one wave of queued requests. Reading is greedy: under overload
   the queue fills and excess requests get [overloaded] responses right
   away — bounded memory and a signal the client can back off on, never
   unbounded queueing. *)

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pending : string;
  mutable eof : bool;
}

let reader fd = { fd; chunk = Bytes.create 8192; pending = ""; eof = false }

let fd_ready fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true

let take_line r =
  match String.index_opt r.pending '\n' with
  | Some i ->
      let line = String.sub r.pending 0 i in
      r.pending <- String.sub r.pending (i + 1) (String.length r.pending - i - 1);
      Some line
  | None ->
      if r.eof && r.pending <> "" then begin
        let line = r.pending in
        r.pending <- "";
        Some line
      end
      else None

let refill ~block r =
  if r.eof then false
  else if block || fd_ready r.fd then begin
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 ->
        r.eof <- true;
        false
    | n ->
        r.pending <- r.pending ^ Bytes.sub_string r.chunk 0 n;
        true
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        r.eof <- true;
        false
  end
  else false

(* [next_line ~block r] is the next complete line; with [block] it waits for
   one (or EOF), without it returns [None] as soon as reading would block. *)
let rec next_line ~block r =
  match take_line r with
  | Some line -> Some line
  | None -> if refill ~block r then next_line ~block r else None

(* Once [read] returned 0 the stream is over; [select] keeps marking an
   EOF'd fd readable, so probing it here again would spin. *)
let at_eof r = r.eof && r.pending = ""

(* ---------- the loop ---------- *)

let bad_request message =
  Protocol.Rejected { id = None; reason = Protocol.Bad_request; message }

(* Parse and admit one line; [Some response] must be answered immediately.
   Health probes bypass the queue entirely — a readiness check must answer
   even when the admission queue is full. Allocate requests are planned
   synchronously at admission: a global allocation is one indivisible
   decision over its whole query batch, so it never enters the per-request
   queue. *)
let admit engine line =
  if String.trim line = "" then None
  else
    match Protocol.parse_line line with
    | Error message -> Some (bad_request message)
    | Ok (Protocol.Health { id }) -> Some (Engine.health engine ~id)
    | Ok (Protocol.Allocate areq) -> Some (Engine.allocate engine areq)
    | Ok (Protocol.Request req) -> Engine.submit engine req

let run engine ~in_fd ~out_fd =
  let r = reader in_fd in
  let out = Buffer.create 4096 in
  let emit response =
    Buffer.add_string out (Protocol.response_to_json response);
    Buffer.add_char out '\n'
  in
  let flush_out () =
    if Buffer.length out > 0 then begin
      let s = Buffer.contents out in
      Buffer.clear out;
      let rec write off len =
        if len > 0 then begin
          let n = Unix.write_substring out_fd s off len in
          write (off + n) (len - n)
        end
      in
      write 0 (String.length s)
    end
  in
  let handle line = Option.iter emit (admit engine line) in
  let rec loop () =
    (* Block for input only when there is no queued work to make progress
       on; otherwise just sweep up what's already readable. *)
    let block = Engine.queue_depth engine = 0 in
    (match next_line ~block r with
    | Some line ->
        handle line;
        let rec burst () =
          match next_line ~block:false r with
          | Some line ->
              handle line;
              burst ()
          | None -> ()
        in
        burst ()
    | None -> ());
    let wave = Engine.process_wave engine in
    List.iter (fun (_req, response) -> emit response) wave;
    flush_out ();
    if (not (at_eof r)) || Engine.queue_depth engine > 0 then loop ()
  in
  try loop () with
  | Unix.Unix_error (Unix.EPIPE, _, _) -> ()
  | Sys_error _ -> ()

let serve_stdio engine = run engine ~in_fd:Unix.stdin ~out_fd:Unix.stdout

let serve_tcp ?max_connections engine ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 16;
  let actual_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  Printf.eprintf "raqo serve: listening on 127.0.0.1:%d\n%!" actual_port;
  let rec accept_loop served =
    match max_connections with
    | Some n when served >= n -> ()
    | _ ->
        let conn, _addr = Unix.accept sock in
        (try run engine ~in_fd:conn ~out_fd:conn
         with e ->
           Printf.eprintf "raqo serve: connection error: %s\n%!" (Printexc.to_string e));
        (try Unix.close conn with Unix.Unix_error _ -> ());
        accept_loop (served + 1)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () -> accept_loop 0)

(* In-memory variant with the same semantics as [run] fed by a client that
   writes every line before reading — the unit tests' entry point. *)
let serve_lines engine lines =
  let out = ref [] in
  let emit response = out := Protocol.response_to_json response :: !out in
  List.iter (fun line -> Option.iter emit (admit engine line)) lines;
  let rec waves () =
    match Engine.process_wave engine with
    | [] -> ()
    | wave ->
        List.iter (fun (_req, response) -> emit response) wave;
        waves ()
  in
  waves ();
  List.rev !out
