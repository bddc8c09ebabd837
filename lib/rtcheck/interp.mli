(** The C-subset interpreter over the instrumented heap.

    Strict by design: every memory access goes through {!Heap}, so null
    dereferences, uses of undefined values, dangling accesses and bad
    frees are detected on the executed path — and only there, the paper's
    central observation about run-time tools.

    Most callers should use {!Rtcheck.run}; this interface exists for the
    facade and for tests that drive execution directly. *)

exception Return of Heap.slot
exception Break_exc
exception Continue_exc
exception Exit_program of int

exception Abort of string
(** Execution cannot continue because the program used a construct the
    interpreter does not support ([goto], struct-by-value calls, ...) —
    a genuine harness limitation. *)

(** Execution stopped by a resource cap, not by the program.  Distinct
    from {!Abort} so the differential oracle can tell "the program
    looped and we cut it off" (expected) from "the interpreter gave up"
    (a harness bug). *)
type limit = Lsteps | Lerrors

exception Limit of limit * string

type frame = {
  mutable vars : (string * (Heap.ptr * Sema.Ctype.t)) list;
  frame_depth : int;
}

type state = {
  prog : Sema.program;
  heap : Heap.t;
  globals : (string, Heap.ptr * Sema.Ctype.t) Hashtbl.t;
  fundefs : (string, Sema.funsig * Cfront.Ast.fundef) Hashtbl.t;
  literals : (string, Heap.ptr) Hashtbl.t;
  output : Buffer.t;
  mutable frames : frame list;
  mutable steps : int;
  max_steps : int;
  max_errors : int;
  mutable rng : int;
  mutable alloc_requests : int;
      (** heap allocation requests seen so far (1-based when gating) *)
  oom_fail : int option;
      (** fail exactly this allocation request (OOM fault injection) *)
}

val call_fundef :
  state -> Sema.funsig -> Cfront.Ast.fundef ->
  (Heap.slot * Sema.Ctype.t) list -> loc:Cfront.Loc.t -> Heap.slot
(** Call a defined function with evaluated arguments. *)
