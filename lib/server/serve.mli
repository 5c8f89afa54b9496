(** The serve loop: line-delimited JSON requests in, one response line per
    request out (see {!Protocol}), over stdio or a loopback TCP socket.

    Responses for admitted requests come back in admission order; malformed
    lines and admission-queue overflows are answered immediately with typed
    [bad_request] / [overloaded] rejections (they may therefore appear ahead
    of earlier admitted requests — correlate by [id]). Blank lines are
    ignored. The loop plans a wave of queued requests whenever no new input
    is immediately readable, and exits once input reaches EOF and the
    queue is drained. *)

(** [run engine ~in_fd ~out_fd] serves until EOF on [in_fd]. *)
val run : Engine.t -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit

(** [serve_stdio engine] is {!run} over stdin/stdout. *)
val serve_stdio : Engine.t -> unit

(** [serve_tcp ?max_connections engine ~port] accepts loopback connections
    (sequentially) and serves each until its EOF; [port] 0 picks an
    ephemeral port (logged to stderr). Runs forever unless
    [max_connections] bounds it. *)
val serve_tcp : ?max_connections:int -> Engine.t -> port:int -> unit

(** [serve_lines engine lines] is the in-memory equivalent of a client that
    writes all [lines] then reads: admit everything (collecting immediate
    rejections), then drain waves. Response lines in emission order. *)
val serve_lines : Engine.t -> string list -> string list
