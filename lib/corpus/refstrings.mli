(** A reference-counted string table: corpus program for the
    reference-count extension ([refcounted]/[newref]/[killref]/[tempref])
    the paper cites from the LCLint guide [3].  The count arithmetic is
    real, so the same program validates under the interpreter. *)

val client_balanced : string
(** Every reference released: clean statically and dynamically. *)

val client_leaky : string
(** One reference never released: a static [mustfree] and two dynamically
    leaked blocks. *)

val check : ?flags:Annot.Flags.t -> string -> Check.result
(** Check the implementation together with a client. *)

val interpret : string -> Rtcheck.result
