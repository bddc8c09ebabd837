(** The instrumented heap: the run-time analogue of the paper's run-time
    comparison tools (dmalloc [10], mprof [11], Purify).

    Every object lives in a numbered block; every slot carries a
    definedness bit (like Purify's initialization tracking).  The heap
    records allocation sites so leak reports can point somewhere useful,
    and remembers freed blocks forever so dangling accesses are diagnosed
    rather than recycled. *)

open Cfront

type storage_kind =
  | Kheap  (** from [malloc]/[calloc]/[realloc] *)
  | Kstack of int  (** automatic storage; the int is the frame depth *)
  | Kstatic  (** string literals, static-duration objects *)
  | Kglobal of string  (** a global variable's storage *)

type slot =
  | Sundef
  | Sint of int64
  | Sfloat of float
  | Sptr of ptr
  | Snull

(** A pointer value: block id plus slot offset.  [p_off <> 0] makes it an
    offset (interior) pointer in the paper's terms. *)
and ptr = { p_block : int; p_off : int }

type block = {
  b_id : int;
  b_kind : storage_kind;
  b_size : int;
  mutable b_slots : slot array;
  mutable b_live : bool;
  b_alloc_site : Loc.t;  (** where the block was allocated *)
  mutable b_free_site : Loc.t option;
}

(** Run-time errors, mirroring what the paper says run-time tools catch
    (and what LCLint misses or catches statically). *)
type error_kind =
  | Enull_deref
  | Euse_undefined  (** read of an uninitialized slot *)
  | Euse_after_free
  | Edouble_free
  | Efree_offset  (** freeing an interior pointer *)
  | Efree_nonheap  (** freeing stack/static/global storage *)
  | Ebounds  (** slot access outside the block *)
  | Ebad_arg of string

type error = { e_kind : error_kind; e_loc : Loc.t; e_msg : string }

let error_kind_string = function
  | Enull_deref -> "null-dereference"
  | Euse_undefined -> "uninitialized-read"
  | Euse_after_free -> "use-after-free"
  | Edouble_free -> "double-free"
  | Efree_offset -> "free-of-offset-pointer"
  | Efree_nonheap -> "free-of-nonheap-storage"
  | Ebounds -> "out-of-bounds"
  | Ebad_arg s -> "bad-argument:" ^ s

(* The differential oracle's shared error-class vocabulary.  The static
   side of the same mapping lives in Check.Errclass (diagnostic code ->
   class); both must agree on these names, and the contract is pinned by
   test_difftest.ml. *)
let error_class = function
  | Enull_deref -> "null-deref"
  | Euse_undefined -> "use-undef"
  | Euse_after_free -> "use-after-free"
  | Edouble_free -> "double-free"
  | Efree_offset -> "free-offset"
  | Efree_nonheap -> "free-static"
  | Ebounds -> "bounds"
  | Ebad_arg _ -> "bad-arg"

let class_leak = "leak"
let class_global_leak = "global-leak"

(** Per-allocation-site statistics, in the spirit of mprof [11] ("a
    memory allocation profiler for C and Lisp programs"). *)
type site_stats = {
  mutable st_allocs : int;
  mutable st_frees : int;
  mutable st_slots : int;  (** total slots allocated at this site *)
}

type t = {
  mutable blocks : (int, block) Hashtbl.t;
  mutable next_id : int;
  mutable errors : error list;  (** reversed *)
  mutable heap_allocs : int;
  mutable heap_frees : int;
  profile : (Loc.t, site_stats) Hashtbl.t;
}

let create () =
  {
    blocks = Hashtbl.create 256;
    next_id = 1;
    errors = [];
    heap_allocs = 0;
    heap_frees = 0;
    profile = Hashtbl.create 64;
  }

let site_stats h loc =
  match Hashtbl.find_opt h.profile loc with
  | Some st -> st
  | None ->
      let st = { st_allocs = 0; st_frees = 0; st_slots = 0 } in
      Hashtbl.replace h.profile loc st;
      st

let report h kind ~loc fmt =
  Fmt.kstr
    (fun msg -> h.errors <- { e_kind = kind; e_loc = loc; e_msg = msg } :: h.errors)
    fmt

let errors h = List.rev h.errors

let alloc h ~kind ~size ~loc : ptr =
  let size = max size 0 in
  let id = h.next_id in
  h.next_id <- id + 1;
  let b =
    {
      b_id = id;
      b_kind = kind;
      b_size = size;
      b_slots = Array.make (max size 1) Sundef;
      b_live = true;
      b_alloc_site = loc;
      b_free_site = None;
    }
  in
  Hashtbl.replace h.blocks id b;
  (match kind with
  | Kheap ->
      h.heap_allocs <- h.heap_allocs + 1;
      let st = site_stats h loc in
      st.st_allocs <- st.st_allocs + 1;
      st.st_slots <- st.st_slots + size
  | _ -> ());
  { p_block = id; p_off = 0 }

let find h id = Hashtbl.find_opt h.blocks id

(** Validate an access through [p]; returns the block if the access is
    allowed to proceed (error already reported otherwise). *)
let access h (p : ptr) ~(count : int) ~loc : block option =
  match find h p.p_block with
  | None ->
      report h Euse_after_free ~loc "access through unknown block %d" p.p_block;
      None
  | Some b ->
      if not b.b_live then begin
        report h Euse_after_free ~loc
          "access through pointer into freed storage (allocated at %s%s)"
          (Loc.to_string b.b_alloc_site)
          (match b.b_free_site with
          | Some l -> ", freed at " ^ Loc.to_string l
          | None -> "");
        None
      end
      else if p.p_off < 0 || p.p_off + count > b.b_size then begin
        report h Ebounds ~loc
          "access at offset %d (size %d) outside block of %d slots" p.p_off
          count b.b_size;
        None
      end
      else Some b

let read h (p : ptr) ~loc : slot option =
  match access h p ~count:1 ~loc with
  | None -> None
  | Some b -> Some b.b_slots.(p.p_off)

let write h (p : ptr) (v : slot) ~loc : unit =
  match access h p ~count:1 ~loc with
  | None -> ()
  | Some b -> b.b_slots.(p.p_off) <- v

let free h (p : ptr) ~loc : unit =
  match find h p.p_block with
  | None -> report h Edouble_free ~loc "free of unknown block"
  | Some b ->
      if not b.b_live then
        report h Edouble_free ~loc "double free (allocated at %s, freed at %s)"
          (Loc.to_string b.b_alloc_site)
          (match b.b_free_site with Some l -> Loc.to_string l | None -> "?")
      else if p.p_off <> 0 then
        report h Efree_offset ~loc
          "free of offset pointer (offset %d into block allocated at %s)"
          p.p_off
          (Loc.to_string b.b_alloc_site)
      else begin
        match b.b_kind with
        | Kheap ->
            b.b_live <- false;
            b.b_free_site <- Some loc;
            h.heap_frees <- h.heap_frees + 1;
            let st = site_stats h b.b_alloc_site in
            st.st_frees <- st.st_frees + 1
        | Kstack _ ->
            report h Efree_nonheap ~loc "free of automatic (stack) storage"
        | Kstatic -> report h Efree_nonheap ~loc "free of static storage"
        | Kglobal g ->
            report h Efree_nonheap ~loc "free of global storage (%s)" g
      end

(** Kill a stack frame's blocks (scope exit). *)
let release_frame h ~depth =
  Hashtbl.iter
    (fun _ b ->
      match b.b_kind with
      | Kstack d when d >= depth && b.b_live ->
          b.b_live <- false;
          b.b_free_site <- None
      | _ -> ())
    h.blocks

(** Leak report at program exit: live heap blocks, split into those still
    reachable from a root set and those unreachable (a genuine leak).
    [roots] are pointers still stored in globals/statics; the paper notes
    run-time tools report storage reachable from global and static
    variables that was never deallocated. *)
type leak = { lk_block : block; lk_reachable : bool }

let leak_class (l : leak) =
  if l.lk_reachable then class_global_leak else class_leak

let leaks h ~(roots : ptr list) : leak list =
  (* mark phase over the pointer graph *)
  let marked = Hashtbl.create 64 in
  let rec mark (p : ptr) =
    match find h p.p_block with
    | Some b when b.b_live && not (Hashtbl.mem marked b.b_id) ->
        Hashtbl.replace marked b.b_id ();
        Array.iter (function Sptr q -> mark q | _ -> ()) b.b_slots
    | _ -> ()
  in
  List.iter mark roots;
  Hashtbl.fold
    (fun _ b acc ->
      if b.b_live && b.b_kind = Kheap then
        { lk_block = b; lk_reachable = Hashtbl.mem marked b.b_id } :: acc
      else acc)
    h.blocks []
  |> List.sort (fun a b -> compare a.lk_block.b_id b.lk_block.b_id)


(** The allocation profile, heaviest site first: (site, stats). *)
let profile_rows h : (Loc.t * site_stats) list =
  Hashtbl.fold (fun loc st acc -> (loc, st) :: acc) h.profile []
  |> List.sort (fun (_, a) (_, b) -> compare b.st_slots a.st_slots)
