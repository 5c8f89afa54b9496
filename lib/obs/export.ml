(* ---------- Chrome trace_event ---------- *)

let escape_json buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let chrome_json events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (e : Trace.event) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":\"";
      escape_json buf e.name;
      (* trace_event wants microseconds; keep ns precision in the fraction. *)
      Printf.bprintf buf
        "\",\"cat\":\"raqo\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
        (float_of_int e.start_ns /. 1e3)
        (float_of_int e.dur_ns /. 1e3)
        e.domain e.id e.parent)
    events;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json (Trace.events ())))

(* ---------- Prometheus text exposition ---------- *)

(* Shortest representation that round-trips through [float_of_string]:
   integral values print plainly, others at the lowest precision that reads
   back bit-identical (0.1 stays "0.1", not "0.10000000000000001"). A normal
   double whose shortest form has at most 15 digits prints that form at
   [%.15g] (every 15-digit decimal survives a trip through a double,
   DBL_DIG = 15; [%g] drops the trailing zeros, and the exponent style can
   only differ on integers below 1e15, printed above), so the search starts
   there. Subnormals carry fewer bits and start at 1. *)
let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else begin
    let rec shortest p =
      if p > 17 then Printf.sprintf "%.17g" v
      else
        let s = Printf.sprintf "%.*g" p v in
        if float_of_string s = v then s else shortest (p + 1)
    in
    shortest (if Float.classify_float v = FP_subnormal then 1 else 15)
  end

let prometheus ?registry () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, snap) ->
      match (snap : Metrics.snapshot) with
      | Metrics.Counter_value v ->
          Printf.bprintf buf "# TYPE %s counter\n%s %d\n" name name v
      | Metrics.Gauge_value v ->
          Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" name name (fmt_float v)
      | Metrics.Histogram_value { edges; counts; sum; count } ->
          Printf.bprintf buf "# TYPE %s histogram\n" name;
          let running = ref 0 in
          Array.iteri
            (fun i edge ->
              running := !running + counts.(i);
              Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" name (fmt_float edge) !running)
            edges;
          Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" name count;
          Printf.bprintf buf "%s_sum %s\n" name (fmt_float sum);
          Printf.bprintf buf "%s_count %d\n" name count)
    (Metrics.snapshot ?registry ());
  Buffer.contents buf

let parse_prometheus text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
               let name = String.sub line 0 i in
               let value = String.sub line (i + 1) (String.length line - i - 1) in
               (match float_of_string_opt value with
               | Some v -> Some (name, v)
               | None -> None))

(* ---------- Human-readable tables ---------- *)

let ms ns = float_of_int ns /. 1e6

let span_summary events =
  let tbl : (string, int ref * int ref * int ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      match Hashtbl.find_opt tbl e.name with
      | Some (n, total, mn, mx) ->
          incr n;
          total := !total + e.dur_ns;
          if e.dur_ns < !mn then mn := e.dur_ns;
          if e.dur_ns > !mx then mx := e.dur_ns
      | None -> Hashtbl.add tbl e.name (ref 1, ref e.dur_ns, ref e.dur_ns, ref e.dur_ns))
    events;
  let rows =
    Hashtbl.fold (fun name (n, total, mn, mx) acc -> (name, !n, !total, !mn, !mx) :: acc) tbl []
    |> List.sort (fun (_, _, ta, _, _) (_, _, tb, _, _) -> compare tb ta)
    |> List.map (fun (name, n, total, mn, mx) ->
           [
             name;
             string_of_int n;
             Raqo_util.Table_fmt.fseries (ms total);
             Raqo_util.Table_fmt.fseries (ms total /. float_of_int n);
             Raqo_util.Table_fmt.fseries (ms mn);
             Raqo_util.Table_fmt.fseries (ms mx);
           ])
  in
  Raqo_util.Table_fmt.render
    ~headers:[ "span"; "count"; "total ms"; "mean ms"; "min ms"; "max ms" ]
    rows

let metrics_table ?registry () =
  let rows =
    List.map
      (fun (name, snap) ->
        match (snap : Metrics.snapshot) with
        | Metrics.Counter_value v -> [ name; "counter"; string_of_int v ]
        | Metrics.Gauge_value v -> [ name; "gauge"; Raqo_util.Table_fmt.fseries v ]
        | Metrics.Histogram_value { sum; count; _ } ->
            let mean = if count = 0 then 0. else sum /. float_of_int count in
            [
              name;
              "histogram";
              Printf.sprintf "count=%d sum=%s mean=%s" count
                (Raqo_util.Table_fmt.fseries sum)
                (Raqo_util.Table_fmt.fseries mean);
            ])
      (Metrics.snapshot ?registry ())
  in
  Raqo_util.Table_fmt.render ~headers:[ "metric"; "kind"; "value" ] rows
