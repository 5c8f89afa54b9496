(** Exporters for the metrics registry and the span rings.

    Three formats: Chrome [trace_event] JSON (load in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}), Prometheus text exposition, and
    human-readable tables via {!Raqo_util.Table_fmt}. *)

(** Chrome trace: one complete ("ph":"X") event per span, timestamps and
    durations in microseconds, [tid] = domain id, span/parent ids in [args]
    so the hierarchy survives even where timestamps tie. *)
val chrome_json : Trace.event list -> string

(** [escape_json buf s] appends [s] to [buf] escaped for the inside of a
    JSON string: quote, backslash and control characters; other bytes pass
    through. The one JSON string escaper (the server's [Json] prints with
    it). *)
val escape_json : Buffer.t -> string -> unit

(** [write_chrome_trace path] dumps the current rings to [path]. *)
val write_chrome_trace : string -> unit

(** [fmt_float v] is the shortest decimal representation of [v] that reads
    back bit-identical through [float_of_string] — the encoding every
    exporter here (and the server protocol) uses for floats. *)
val fmt_float : float -> string

(** Prometheus text exposition of {!Metrics.snapshot} for [registry]
    (default: the process-wide registry): [# TYPE] comments, histogram
    [_bucket{le="..."}] series (cumulative, with [+Inf]), [_sum] and
    [_count]. Floats are printed round-trippably. *)
val prometheus : ?registry:Metrics.registry -> unit -> string

(** [parse_prometheus text] reads back the sample lines of an exposition:
    [(name-with-labels, value)] pairs in file order, comments and blank
    lines skipped. Inverse of {!prometheus} for the subset it emits. *)
val parse_prometheus : string -> (string * float) list

(** Per-span-name aggregate table (count, total/mean/min/max ms), widest
    total first. The [raqo trace] summary. *)
val span_summary : Trace.event list -> string

(** Registry contents as an aligned table (default: the process-wide
    registry). *)
val metrics_table : ?registry:Metrics.registry -> unit -> string
