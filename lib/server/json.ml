(* A minimal JSON layer for the server's line protocol. The repo deliberately
   avoids new dependencies, and the protocol needs exactly one nonstandard
   property: floats must round-trip bit-identically, so responses can be
   diffed byte-for-byte against the one-shot CLI path. Printing reuses the
   shortest-round-trip encoder and the string escaper the exporters already
   ship. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
      if Float.is_nan v || Float.abs v = Float.infinity then
        (* JSON has no NaN/Inf; the planner never emits them in responses. *)
        invalid_arg "Json.to_string: non-finite number"
      else Buffer.add_string buf (Raqo_obs.Export.fmt_float v)
  | Str s ->
      Buffer.add_char buf '"';
      Raqo_obs.Export.escape_json buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Raqo_obs.Export.escape_json buf k;
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse_error of string

type state = { s : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let utf8_of_code buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then error st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> begin
        if st.pos >= String.length st.s then error st "unterminated escape";
        let e = st.s.[st.pos] in
        st.pos <- st.pos + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if st.pos + 4 > String.length st.s then error st "truncated \\u escape";
            let hex = String.sub st.s st.pos 4 in
            st.pos <- st.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code -> utf8_of_code buf code
            | None -> error st "bad \\u escape")
        | _ -> error st "unknown escape");
        go ()
      end
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.s && num_char st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  match float_of_string_opt (String.sub st.s start (st.pos - start)) with
  | Some v -> Num v
  | None -> error st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> error st "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields (kv :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev (kv :: acc)
          | _ -> error st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some c -> if c = '-' || (c >= '0' && c <= '9') then parse_number st else error st "unexpected character"

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error (Printf.sprintf "trailing input at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---------- accessors ---------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let keys = function Obj kvs -> List.map fst kvs | _ -> []
let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e15 -> Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
