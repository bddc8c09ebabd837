(** A minimal JSON value type with a hand-rolled encoder and decoder.

    The checker emits machine-readable diagnostics and telemetry reports
    (line-delimited JSON records); this module is the single encoder they
    share, kept dependency-free on purpose.  Encoding follows RFC 8259:
    strings escape the quote, the backslash and all control characters
    (the common ones as [\n]-style shorthands, the rest as [\u00XX]);
    non-ASCII bytes pass through untouched, so UTF-8 input stays UTF-8.
    Non-finite floats have no JSON spelling and encode as [null].

    The decoder accepts exactly the encoder's output language plus
    insignificant whitespace — enough for round-trip tests and for small
    consumers of our own records, not a general-purpose validating
    parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering — one call per NDJSON record. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; [Error] carries a message with the byte
    offset of the failure.  Trailing non-whitespace input is an error. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k], if any; [None] on
    non-objects. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
