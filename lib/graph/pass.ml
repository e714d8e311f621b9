open Msc_ir

type t = { name : string; run : Graph.t -> Graph.t }

(* ------------------------------------------------------------------ *)
(* Dead-stage elimination: keep only stages transitively reachable     *)
(* from the output.                                                    *)

let dead_stage_elim =
  let run (g : Graph.t) =
    let live = Hashtbl.create 16 in
    let rec mark name =
      if not (Hashtbl.mem live name) then begin
        Hashtbl.add live name ();
        List.iter mark (Graph.deps g (Graph.stage g name))
      end
    in
    mark g.Graph.output;
    let stages = List.filter (fun s -> Hashtbl.mem live s.Graph.name) g.Graph.stages in
    if List.length stages = List.length g.Graph.stages then g
    else
      Graph.make ~merged:g.Graph.merged ~source:g.Graph.source
        ~output:g.Graph.output stages
  in
  { name = "dead-stage-elim"; run }

(* ------------------------------------------------------------------ *)
(* Producer -> consumer fusion.                                        *)

let rec contains_var = function
  | Expr.Var _ -> true
  | Expr.Fconst _ | Expr.Iconst _ | Expr.Param _ | Expr.Access _ -> false
  | Expr.Unop (_, e) -> contains_var e
  | Expr.Binop (_, a, b) -> contains_var a || contains_var b
  | Expr.Call (_, args) -> List.exists contains_var args

(* The value producer [p] writes at offset [o] from the current point,
   as an expression over p's *own* inputs: parameters substituted from
   the bindings (they would otherwise collide with the consumer's), every
   access shifted by [o], the term scale folded in as an explicit
   multiply only when it is not 1 (a sweep seeds its accumulator with an
   unscaled first term without a multiplication, and the naive reference
   must see the same bits). *)
let producer_value ~scale ~kernel ~input_name offsets =
  let shift (a : Expr.access) =
    { a with Expr.offsets = Array.mapi (fun d o -> o + offsets.(d)) a.Expr.offsets }
  in
  let body =
    match kernel with
    | None ->
        Expr.Access { Expr.tensor = input_name; offsets = Array.copy offsets }
    | Some (k : Kernel.t) ->
        Expr.map_expr
          (fun e ->
            match e with
            | Expr.Param nm -> (
                match List.assoc_opt nm k.Kernel.bindings with
                | Some v -> Some (Expr.Fconst v)
                | None -> None)
            | Expr.Access a -> Some (Expr.Access (shift a))
            | _ -> None)
          k.Kernel.expr
  in
  if scale = 1.0 then body else Expr.Binop (Expr.Mul, Expr.Fconst scale, body)

(* The per-edge cost rule: inlining [p] makes [c] evaluate p's fold once
   per distinct offset it reads p at, instead of reading a tile-local
   window. Inline only when that at most doubles c's work:
   [(d - 1) * flops p <= flops c]. *)
let worth_inlining (p : Graph.stage) (c : Graph.stage) =
  let offsets =
    List.sort_uniq compare
      (List.concat_map
         (fun (k : Kernel.t) ->
           List.filter_map
             (fun (a : Expr.access) ->
               if String.equal a.Expr.tensor p.Graph.name then
                 Some (Array.to_list a.Expr.offsets)
               else None)
             (Expr.distinct_accesses k.Kernel.expr))
         (Stencil.kernels c.Graph.stencil))
  in
  (List.length offsets - 1) * Stencil.flops_per_point p.Graph.stencil
  <= Stencil.flops_per_point c.Graph.stencil

(* Try to fold producer stage [p] into its single consumer. Returns the
   rewritten graph, or None when any eligibility rule or the edge rule
   [worth] fails. *)
let try_fuse ~max_radius ~worth (g : Graph.t) (p : Graph.stage) =
  if String.equal p.Graph.name g.Graph.output then None
  else
    match Graph.consumers g p.Graph.name with
    | [] | _ :: _ :: _ -> None
    | [ c ] -> (
        match Stencil.terms p.Graph.stencil with
        | [ { Stencil.scale; kernel; dt = 1 } ] -> (
            let body_ok =
              match kernel with
              | None -> true
              | Some k -> not (contains_var k.Kernel.expr)
            in
            if not (body_ok && worth p c) then None
            else
              let i_p = p.Graph.stencil.Stencil.grid in
              let c_terms = Stencil.terms c.Graph.stencil in
              let reading_as_input =
                String.equal c.Graph.stencil.Stencil.grid.Tensor.name
                  p.Graph.name
              in
              (* Re-pointing c's input at p's input would silently change
                 what c's State terms mean. *)
              let state_conflict =
                reading_as_input
                && List.exists (fun t -> Option.is_none t.Stencil.kernel) c_terms
              in
              (* After fusion a kernel term of c that read p now reads
                 p's input; if that term's stencil input *is* p's input,
                 its dt stamps those reads — p computed from dt = 1, so
                 any other dt changes meaning. *)
              let new_grid =
                if reading_as_input then i_p else c.Graph.stencil.Stencil.grid
              in
              let dt_conflict =
                String.equal i_p.Tensor.name new_grid.Tensor.name
                && List.exists
                     (fun t ->
                       match t.Stencil.kernel with
                       | Some k ->
                           t.Stencil.dt <> 1
                           && List.exists
                                (fun (a : Expr.access) ->
                                  String.equal a.Expr.tensor p.Graph.name)
                                (Expr.accesses k.Kernel.expr)
                       | None -> false)
                     c_terms
              in
              if state_conflict || dt_conflict then None
              else begin
                (* Tensor environment for rebinding aux lists. *)
                let env = ref [] in
                let bind (x : Tensor.t) =
                  if
                    not
                      (List.exists
                         (fun (y : Tensor.t) ->
                           String.equal y.Tensor.name x.Tensor.name)
                         !env)
                  then env := x :: !env
                in
                bind g.Graph.source;
                bind i_p;
                (match kernel with
                | Some k ->
                    bind k.Kernel.input;
                    List.iter bind k.Kernel.aux
                | None -> ());
                List.iter
                  (fun (k : Kernel.t) ->
                    bind k.Kernel.input;
                    List.iter bind k.Kernel.aux)
                  (Stencil.kernels c.Graph.stencil);
                let lookup n =
                  match
                    List.find_opt
                      (fun (x : Tensor.t) -> String.equal x.Tensor.name n)
                      !env
                  with
                  | Some x -> x
                  | None ->
                      invalid_arg
                        (Printf.sprintf "Pass.fuse: unbound tensor %S" n)
                in
                (* Rewrite each kernel expression of c. *)
                let subst expr =
                  Expr.map_expr
                    (fun e ->
                      match e with
                      | Expr.Access a
                        when String.equal a.Expr.tensor p.Graph.name ->
                          Some
                            (producer_value ~scale ~kernel
                               ~input_name:i_p.Tensor.name a.Expr.offsets)
                      | _ -> None)
                    expr
                in
                let new_exprs =
                  List.map
                    (fun (k : Kernel.t) ->
                      let reads_p =
                        List.exists
                          (fun (a : Expr.access) ->
                            String.equal a.Expr.tensor p.Graph.name)
                          (Expr.accesses k.Kernel.expr)
                      in
                      if reads_p then (k, Simplify.expr (subst k.Kernel.expr), true)
                      else (k, k.Kernel.expr, false))
                    (Stencil.kernels c.Graph.stencil)
                in
                (* Composed stage radius; bail past the SPM clamp. *)
                let nd = Tensor.ndim g.Graph.source in
                let h = Array.make nd 0 in
                List.iter
                  (fun (_, expr, _) ->
                    List.iter
                      (fun (a : Expr.access) ->
                        Array.iteri
                          (fun d o -> h.(d) <- max h.(d) (abs o))
                          a.Expr.offsets)
                      (Expr.distinct_accesses expr))
                  new_exprs;
                if Array.exists (fun r -> r > max_radius) h then None
                else begin
                  let regrid (x : Tensor.t) =
                    { x with Tensor.halo = Array.copy h }
                  in
                  let new_grid_t = regrid new_grid in
                  let rebuilt =
                    List.map
                      (fun ((k : Kernel.t), expr, fused) ->
                        let aux_names =
                          List.filter
                            (fun n ->
                              not (String.equal n new_grid_t.Tensor.name))
                            (List.sort_uniq String.compare
                               (List.map
                                  (fun (a : Expr.access) -> a.Expr.tensor)
                                  (Expr.distinct_accesses expr)))
                        in
                        let aux =
                          List.map (fun n -> regrid (lookup n)) aux_names
                        in
                        let name =
                          if fused then k.Kernel.name ^ "_o_" ^ p.Graph.name
                          else k.Kernel.name
                        in
                        ( k.Kernel.name,
                          Kernel.make ~bindings:k.Kernel.bindings ~aux ~name
                            ~input:new_grid_t ~index_vars:k.Kernel.index_vars
                            expr ))
                      new_exprs
                  in
                  let stencil =
                    Stencil.make ~name:c.Graph.stencil.Stencil.name
                      ~grid:new_grid_t
                      (Stencil.map_kernels
                         (fun k -> List.assoc k.Kernel.name rebuilt)
                         c.Graph.stencil.Stencil.expr)
                  in
                  let stages =
                    List.filter_map
                      (fun s ->
                        if String.equal s.Graph.name p.Graph.name then None
                        else if String.equal s.Graph.name c.Graph.name then
                          Some { s with Graph.stencil }
                        else Some s)
                      g.Graph.stages
                  in
                  Some
                    (Graph.make ~merged:g.Graph.merged ~source:g.Graph.source
                       ~output:g.Graph.output stages)
                end
              end)
        | _ -> None)

let fusion ~name ~max_radius ~worth =
  let run (g : Graph.t) =
    let rec first = function
      | [] -> g
      | p :: rest -> (
          match try_fuse ~max_radius ~worth g p with
          | Some g' -> g'
          | None -> first rest)
    in
    first g.Graph.stages
  in
  { name; run }

let fuse ?(max_radius = 8) () = fusion ~name:"fuse" ~max_radius ~worth:worth_inlining

let inline_all ?(max_radius = 8) () =
  fusion ~name:"inline-all" ~max_radius ~worth:(fun _ _ -> true)

(* ------------------------------------------------------------------ *)
(* Shared-halo merging: mark the graph for one deep exchange per step. *)

let merge_halos ?(max_width = 8) () =
  let run (g : Graph.t) =
    if g.Graph.merged then g
    else if Array.for_all (fun w -> w <= max_width) (Graph.required_halo g)
    then Graph.with_merged g true
    else g
  in
  { name = "merge-halos"; run }

let default_pipeline = [ dead_stage_elim; fuse (); merge_halos () ]

(* ------------------------------------------------------------------ *)
(* Fixpoint driver.                                                    *)

type placement = Inlined of string | Tile_local | Output | Dead

let placements ~(raw : Graph.t) (g : Graph.t) =
  let rec absorbed name =
    List.find_map
      (fun (c : Graph.stage) ->
        if Graph.is_stage g c.Graph.name then Some c.Graph.name
        else absorbed c.Graph.name)
      (Graph.consumers raw name)
  in
  List.map
    (fun (s : Graph.stage) ->
      let name = s.Graph.name in
      ( name,
        if String.equal name g.Graph.output then Output
        else if Graph.is_stage g name then Tile_local
        else match absorbed name with Some x -> Inlined x | None -> Dead ))
    raw.Graph.stages

let apply ?(trace = Msc_trace.disabled) ?(max_rounds = 50) passes g =
  let step g =
    List.fold_left
      (fun acc p ->
        let t0 = Msc_trace.begin_span trace in
        let out = p.run acc in
        Msc_trace.end_span trace ("pass." ^ p.name) t0;
        if not (Graph.equal out acc) then
          Msc_trace.add trace ("pass.changed." ^ p.name) 1.0;
        out)
      g passes
  in
  let rec loop round g =
    if round >= max_rounds then g
    else
      let g' = step g in
      if Graph.equal g' g then g else loop (round + 1) g'
  in
  let out = loop 0 g in
  if List.exists (fun p -> String.equal p.name "fuse") passes then
    List.iter
      (function
        | _, Inlined _ -> Msc_trace.add trace "pass.fuse.inlined" 1.0
        | _, Tile_local -> Msc_trace.add trace "pass.fuse.tile_local" 1.0
        | _, (Output | Dead) -> ())
      (placements ~raw:g out);
  out
