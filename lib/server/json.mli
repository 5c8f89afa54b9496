(** Minimal JSON for the server's line protocol (no external dependency).
    Numbers are floats; printing uses {!Raqo_obs.Export.fmt_float}, the
    shortest encoding that round-trips through [float_of_string], so a cost
    printed by the server and one printed by the one-shot CLI path compare
    byte-for-byte. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] prints compactly (no whitespace), object fields in the
    order given. @raise Invalid_argument on NaN or infinite numbers. *)
val to_string : t -> string

(** [parse s] parses a complete JSON document; [Error] carries a message
    with a byte offset. *)
val parse : string -> (t, string) result

val member : string -> t -> t option
val keys : t -> string list
val to_float : t -> float option

(** [to_int v] is [Some] only for integral numbers within safe range. *)
val to_int : t -> int option

val to_str : t -> string option
val to_bool : t -> bool option
