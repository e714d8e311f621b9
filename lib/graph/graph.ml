open Msc_ir

type stage = { name : string; stencil : Stencil.t }

type t = {
  source : Tensor.t;
  stages : stage list;
  output : string;
  merged : bool;
}

(* ------------------------------------------------------------------ *)
(* Reads and dependency edges.                                         *)

let is_stage t name = List.exists (fun s -> String.equal s.name name) t.stages

let stage t name =
  match List.find_opt (fun s -> String.equal s.name name) t.stages with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Graph.stage: no stage %S" name)

(* Distinct tensor names a stage reads: the stage input (read by [State]
   terms and by kernels through their input tensor) plus every tensor the
   kernel expressions access. *)
let reads s =
  let st = s.stencil in
  let acc = ref [] in
  let add n = if not (List.exists (String.equal n) !acc) then acc := n :: !acc in
  let has_state =
    List.exists (fun t -> Option.is_none t.Stencil.kernel) (Stencil.terms st)
  in
  if has_state then add st.Stencil.grid.Tensor.name;
  List.iter
    (fun (k : Kernel.t) ->
      add k.Kernel.input.Tensor.name;
      List.iter (fun (a : Expr.access) -> add a.Expr.tensor)
        (Expr.distinct_accesses k.Kernel.expr))
    (Stencil.kernels st);
  List.rev !acc

let deps t s = List.filter (is_stage t) (reads s)

let consumers t name =
  List.filter (fun s -> List.exists (String.equal name) (reads s)) t.stages

let reads_source t s = List.exists (String.equal t.source.Tensor.name) (reads s)

(* Per-dimension max |offset| with which [reader] accesses tensor [name].
   [State] terms read at offset zero, which the zero init already covers. *)
let edge_radius ~ndim reader name =
  let r = Array.make ndim 0 in
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun (a : Expr.access) ->
          if String.equal a.Expr.tensor name then
            Array.iteri (fun d o -> r.(d) <- max r.(d) (abs o)) a.Expr.offsets)
        (Expr.distinct_accesses k.Kernel.expr))
    (Stencil.kernels reader.stencil);
  r

(* ------------------------------------------------------------------ *)
(* Validation + construction.                                          *)

let topo_sort ~names stages =
  let stage_deps s =
    List.filter (fun n -> List.exists (String.equal n) names) (reads s)
  in
  let rec loop sorted remaining =
    match remaining with
    | [] -> List.rev sorted
    | _ -> (
        let emitted n =
          List.exists (fun s -> String.equal s.name n) sorted
        in
        let ready s = List.for_all emitted (stage_deps s) in
        match List.partition ready remaining with
        | [], stuck ->
            invalid_arg
              (Printf.sprintf "Graph.make: dependency cycle through stages %s"
                 (String.concat ", " (List.map (fun s -> s.name) stuck)))
        | ready, rest -> loop (List.rev_append ready sorted) rest)
  in
  loop [] stages

let make ?(merged = false) ~source ~output stages =
  if stages = [] then invalid_arg "Graph.make: a graph needs at least one stage";
  let names = List.map (fun s -> s.name) stages in
  let dup =
    List.find_opt
      (fun n -> List.length (List.filter (String.equal n) names) > 1)
      names
  in
  (match dup with
  | Some n -> invalid_arg (Printf.sprintf "Graph.make: duplicate stage %S" n)
  | None -> ());
  if List.exists (String.equal source.Tensor.name) names then
    invalid_arg
      (Printf.sprintf "Graph.make: stage %S shadows the source tensor"
         source.Tensor.name);
  if not (List.exists (String.equal output) names) then
    invalid_arg (Printf.sprintf "Graph.make: output stage %S not defined" output);
  List.iter
    (fun s ->
      let g = s.stencil.Stencil.grid in
      if g.Tensor.shape <> source.Tensor.shape then
        invalid_arg
          (Printf.sprintf
             "Graph.make: stage %S input shape differs from the source" s.name);
      let from_stage = List.exists (String.equal g.Tensor.name) names in
      if
        (not from_stage)
        && not (String.equal g.Tensor.name source.Tensor.name)
      then
        invalid_arg
          (Printf.sprintf
             "Graph.make: stage %S reads unknown tensor %S as input" s.name
             g.Tensor.name);
      if from_stage && Stencil.time_window s.stencil > 1 then
        invalid_arg
          (Printf.sprintf
             "Graph.make: stage %S reads stage %S at dt > 1; only the source \
              carries a time window"
             s.name g.Tensor.name);
      (* Kernel aux tensors must be either coefficient grids, earlier
         stage outputs, or the source; there is nothing else to bind. *)
      ())
    stages;
  (* Every intermediate buffer holds only the current step, so a stage
     consumed by others cannot also be the stepped output. *)
  let output_consumers =
    List.filter
      (fun s ->
        (not (String.equal s.name output))
        && List.exists (String.equal output) (reads s))
      stages
  in
  (match output_consumers with
  | c :: _ ->
      invalid_arg
        (Printf.sprintf
           "Graph.make: output stage %S is read by stage %S; the output must \
            be a sink"
           output c.name)
  | [] -> ());
  let stages = topo_sort ~names stages in
  { source; stages; output; merged }

let with_merged t merged = { t with merged }
let single st = make ~source:st.Stencil.grid ~output:st.Stencil.name
    [ { name = st.Stencil.name; stencil = st } ]

let output_stage t = stage t t.output

(* ------------------------------------------------------------------ *)
(* Halo / extension analysis.                                          *)

(* Ghost-zone extension per stage: how far outside the interior a stage
   must be computed so every consumer's reads (which themselves may run
   extended) are covered. Output runs interior-only. *)
let extensions t =
  let nd = Tensor.ndim t.source in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let e = Array.make nd 0 in
      if not (String.equal s.name t.output) then
        List.iter
          (fun c ->
            let ec = Hashtbl.find tbl c.name in
            let r = edge_radius ~ndim:nd c s.name in
            Array.iteri (fun d _ -> e.(d) <- max e.(d) (ec.(d) + r.(d))) e)
          (consumers t s.name);
      Hashtbl.replace tbl s.name e)
    (List.rev t.stages);
  tbl

let extension t name = Hashtbl.find (extensions t) name

let required_halo t =
  let nd = Tensor.ndim t.source in
  let exts = extensions t in
  let h = Array.make nd 1 in
  List.iter
    (fun s ->
      let e = Hashtbl.find exts s.name in
      let r = Stencil.radius s.stencil in
      Array.iteri (fun d _ -> h.(d) <- max h.(d) (e.(d) + r.(d))) h)
    t.stages;
  h

let time_window t =
  List.fold_left
    (fun acc s ->
      if String.equal s.stencil.Stencil.grid.Tensor.name t.source.Tensor.name
      then max acc (Stencil.time_window s.stencil)
      else acc)
    1 t.stages

let sweeps_per_step t = List.length t.stages

(* Coefficient grids: aux tensors that are neither stages nor the source. *)
let coefficient_tensors t =
  let acc = ref [] in
  let add (x : Tensor.t) =
    if
      (not (is_stage t x.Tensor.name))
      && (not (String.equal x.Tensor.name t.source.Tensor.name))
      && not
           (List.exists
              (fun (y : Tensor.t) -> String.equal y.Tensor.name x.Tensor.name)
              !acc)
    then acc := x :: !acc
  in
  List.iter
    (fun s ->
      List.iter
        (fun (k : Kernel.t) -> List.iter add k.Kernel.aux)
        (Stencil.kernels s.stencil))
    t.stages;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Geometry rewriting: every tensor in the graph gets the same shape
   and (uniform, deep) halo, so one index space covers all stages.      *)

let reshape ?shape ~halo t =
  let shape = Option.value shape ~default:t.source.Tensor.shape in
  {
    t with
    source = { t.source with Tensor.shape = Array.copy shape; halo = Array.copy halo };
    stages =
      List.map
        (fun s -> { s with stencil = Stencil.reshape ~shape ~halo s.stencil })
        t.stages;
  }

(* ------------------------------------------------------------------ *)
(* Structural equality (fixpoint detection for the pass driver).       *)

let tensor_equal (a : Tensor.t) (b : Tensor.t) =
  String.equal a.Tensor.name b.Tensor.name
  && a.Tensor.kind = b.Tensor.kind
  && a.Tensor.dtype = b.Tensor.dtype
  && a.Tensor.shape = b.Tensor.shape
  && a.Tensor.halo = b.Tensor.halo
  && a.Tensor.time_window = b.Tensor.time_window

let kernel_equal (a : Kernel.t) (b : Kernel.t) =
  String.equal a.Kernel.name b.Kernel.name
  && tensor_equal a.Kernel.input b.Kernel.input
  && List.length a.Kernel.aux = List.length b.Kernel.aux
  && List.for_all2 tensor_equal a.Kernel.aux b.Kernel.aux
  && a.Kernel.index_vars = b.Kernel.index_vars
  && a.Kernel.bindings = b.Kernel.bindings
  && Expr.equal a.Kernel.expr b.Kernel.expr

let rec stencil_expr_equal a b =
  match (a, b) with
  | Stencil.Apply (k, dt), Stencil.Apply (k', dt') ->
      dt = dt' && kernel_equal k k'
  | Stencil.State d, Stencil.State d' -> d = d'
  | Stencil.Scale (c, x), Stencil.Scale (c', y) ->
      c = c' && stencil_expr_equal x y
  | Stencil.Sum (x, y), Stencil.Sum (x', y')
  | Stencil.Diff (x, y), Stencil.Diff (x', y') ->
      stencil_expr_equal x x' && stencil_expr_equal y y'
  | _ -> false

let stage_equal a b =
  String.equal a.name b.name
  && String.equal a.stencil.Stencil.name b.stencil.Stencil.name
  && tensor_equal a.stencil.Stencil.grid b.stencil.Stencil.grid
  && stencil_expr_equal a.stencil.Stencil.expr b.stencil.Stencil.expr

let equal a b =
  tensor_equal a.source b.source
  && String.equal a.output b.output
  && a.merged = b.merged
  && List.length a.stages = List.length b.stages
  && List.for_all2 stage_equal a.stages b.stages

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let pp_dims fmt a =
  Format.fprintf fmt "%s"
    (String.concat "x" (Array.to_list (Array.map string_of_int a)))

let to_dot t =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph pipeline {\n";
  pr "  rankdir=LR;\n";
  let h = required_halo t in
  pr "  label=\"stages=%d halo=[%s]%s\";\n" (List.length t.stages)
    (String.concat "," (Array.to_list (Array.map string_of_int h)))
    (if t.merged then " merged" else "");
  pr "  \"%s\" [shape=box,style=bold];\n" t.source.Tensor.name;
  List.iter
    (fun (x : Tensor.t) -> pr "  \"%s\" [shape=box,style=dashed];\n" x.Tensor.name)
    (coefficient_tensors t);
  let exts = extensions t in
  List.iter
    (fun s ->
      let e = Hashtbl.find exts s.name in
      let r = Stencil.radius s.stencil in
      let peri = if String.equal s.name t.output then ",peripheries=2" else "" in
      pr "  \"%s\" [shape=ellipse,label=\"%s\\nr=[%s] e=[%s]\"%s];\n" s.name
        s.name
        (String.concat "," (Array.to_list (Array.map string_of_int r)))
        (String.concat "," (Array.to_list (Array.map string_of_int e)))
        peri)
    t.stages;
  List.iter
    (fun s -> List.iter (fun n -> pr "  \"%s\" -> \"%s\";\n" n s.name) (reads s))
    t.stages;
  pr "}\n";
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "@[<v>graph %s -> %s (%d stage%s%s, halo [%a])@,"
    t.source.Tensor.name t.output (List.length t.stages)
    (if List.length t.stages = 1 then "" else "s")
    (if t.merged then ", merged" else "")
    pp_dims (required_halo t);
  List.iter
    (fun s ->
      Format.fprintf fmt "  %s <- %s@," s.name
        (String.concat ", " (reads s)))
    t.stages;
  Format.fprintf fmt "@]"
