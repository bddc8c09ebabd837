(** The direct call graph over a {!Sema.program}.

    Nodes are the functions *defined* in the program (we can only infer
    annotations from bodies we can see); an edge [f -> g] records a direct
    call [g(...)] somewhere in [f]'s body.  Calls through function
    pointers are invisible, exactly as they are to the checker itself.

    {!sccs} returns Tarjan's strongly connected components in bottom-up
    (callee-first) order: by the time inference reaches a component, every
    component it calls into has already been summarized.  Mutual recursion
    lands both functions in one component, which the fixpoint engine then
    iterates over. *)

type t = {
  cg_nodes : string list;  (** defined functions, source order *)
  cg_edges : (string, string list) Hashtbl.t;
      (** per node: callees that are themselves defined, call order *)
}

let calls (g : t) (name : string) : string list =
  Option.value (Hashtbl.find_opt g.cg_edges name) ~default:[]

let defined_callees (g : t) (f : Cfront.Ast.fundef) : string list =
  List.filter (Hashtbl.mem g.cg_edges) (Sema.calls_of_fundef f)

let build (prog : Sema.program) : t =
  let defs = Sema.fundefs prog in
  let g =
    {
      cg_nodes = List.map (fun ((fs : Sema.funsig), _) -> fs.Sema.fs_name) defs;
      cg_edges = Hashtbl.create 16;
    }
  in
  List.iter (fun name -> Hashtbl.replace g.cg_edges name []) g.cg_nodes;
  List.iter
    (fun ((fs : Sema.funsig), f) ->
      Hashtbl.replace g.cg_edges fs.Sema.fs_name (defined_callees g f))
    defs;
  g

(* Tarjan's algorithm.  Components are emitted when their root closes,
   which happens only after every component reachable from them — i.e.
   callees come out first, giving the bottom-up order directly. *)
let sccs (g : t) : string list list =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (calls g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      (* pop the component *)
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if String.equal w v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) g.cg_nodes;
  List.rev !out

let is_recursive (g : t) (component : string list) : bool =
  match component with
  | [ v ] -> List.mem v (calls g v)
  | [] -> false
  | _ -> true
