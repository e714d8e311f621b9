open Msc_ir
module Schedule = Msc_schedule.Schedule
module Plan = Msc_schedule.Plan

let cpes_of (plan : Plan.t) =
  match plan.Plan.parallel with
  | Plan.Seq -> 64
  | Plan.Block n | Plan.Round_robin n -> n

let radius_of (st : Stencil.t) = Stencil.radius st

let distinct_dts (st : Stencil.t) =
  List.sort_uniq compare (List.map (fun t -> t.Stencil.dt) (Stencil.terms st))

let args_struct (st : Stencil.t) =
  let tw = Stencil.time_window st in
  let fields =
    List.init tw (fun k -> Printf.sprintf "const ELEM *s%d;" (k + 1))
    @ List.map
        (fun (tensor : Tensor.t) -> Printf.sprintf "const ELEM *%s;" tensor.Tensor.name)
        (Emit_common.aux_tensors st)
  in
  Printf.sprintf "typedef struct { %s ELEM *out; } msc_step_args;"
    (String.concat " " fields)

let generate_master ?(steps = 10) (plan : Plan.t) =
  let st : Stencil.t = plan.Plan.stencil in
  let w = C_writer.create () in
  Emit_common.emit_prelude w st;
  C_writer.line w "#include <athread.h>";
  C_writer.blank w;
  C_writer.line w "%s" (args_struct st);
  C_writer.line w "extern void SLAVE_FUN(msc_step_slave)(msc_step_args *);";
  C_writer.blank w;
  Emit_common.emit_init_fn w st;
  C_writer.blank w;
  Emit_common.emit_checksum_fn w st;
  C_writer.blank w;
  Emit_common.emit_aux_init_fns w st;
  let tw = Stencil.time_window st in
  let auxes = Emit_common.aux_tensors st in
  let params =
    String.concat ", "
      (List.init tw (fun k -> Printf.sprintf "const ELEM *s%d" (k + 1))
      @ List.map
          (fun (tensor : Tensor.t) -> Printf.sprintf "const ELEM *%s" tensor.Tensor.name)
          auxes)
  in
  C_writer.block w (Printf.sprintf "static void msc_step(%s, ELEM *out)" params)
    (fun () ->
      let inits =
        String.concat ", "
          (List.init tw (fun k -> Printf.sprintf "s%d" (k + 1))
          @ List.map (fun (tensor : Tensor.t) -> tensor.Tensor.name) auxes)
      in
      C_writer.line w "msc_step_args args = { %s, out };" inits;
      C_writer.line w "athread_spawn(msc_step_slave, &args);";
      C_writer.line w "athread_join();");
  C_writer.blank w;
  (* Same ring-buffer main as the CPU target, wrapped with athread init/halt. *)
  C_writer.block w "static int msc_run(int steps)" (fun () ->
      C_writer.line w "ELEM *win[%d];" (tw + 1);
      C_writer.block w (Printf.sprintf "for (int b = 0; b < %d; ++b)" (tw + 1))
        (fun () -> C_writer.line w "win[b] = (ELEM *)malloc(TOTAL * sizeof(ELEM));");
      C_writer.block w (Printf.sprintf "for (int dt = 1; dt <= %d; ++dt)" tw)
        (fun () -> C_writer.line w "msc_init(win[%d - dt]);" tw);
      C_writer.line w "memset(win[%d], 0, TOTAL * sizeof(ELEM));" tw;
      List.iter
        (fun (tensor : Tensor.t) ->
          let name = tensor.Tensor.name in
          C_writer.line w "ELEM *%s = (ELEM *)malloc(TOTAL * sizeof(ELEM));" name;
          C_writer.line w "msc_init_aux_%s(%s);" name name)
        auxes;
      C_writer.line w "int cur = %d;" (tw - 1);
      C_writer.block w "for (int t = 0; t < steps; ++t)" (fun () ->
          C_writer.line w "ELEM *out = win[(cur + 1) %% %d];" (tw + 1);
          C_writer.line w "memset(out, 0, TOTAL * sizeof(ELEM));";
          let args =
            String.concat ", "
              (List.init tw (fun k ->
                   Printf.sprintf "win[(cur - %d + %d) %% %d]" k (tw + 1) (tw + 1))
              @ List.map (fun (tensor : Tensor.t) -> tensor.Tensor.name) auxes)
          in
          C_writer.line w "msc_step(%s, out);" args;
          C_writer.line w "cur = (cur + 1) %% %d;" (tw + 1));
      C_writer.line w "msc_report(win[cur]);";
      C_writer.block w (Printf.sprintf "for (int b = 0; b < %d; ++b)" (tw + 1))
        (fun () -> C_writer.line w "free(win[b]);");
      List.iter
        (fun (tensor : Tensor.t) -> C_writer.line w "free(%s);" tensor.Tensor.name)
        auxes;
      C_writer.line w "return 0;");
  C_writer.blank w;
  C_writer.block w "int main(int argc, char **argv)" (fun () ->
      C_writer.line w "int steps = argc > 1 ? atoi(argv[1]) : %d;" steps;
      C_writer.line w "athread_init();";
      C_writer.line w "int rc = msc_run(steps);";
      C_writer.line w "athread_halt();";
      C_writer.line w "return rc;");
  C_writer.contents w

let generate_slave (plan : Plan.t) =
  let st : Stencil.t = plan.Plan.stencil in
  let w = C_writer.create () in
  let dims = Emit_common.dims_of st in
  let nd = Array.length dims in
  let tile = plan.Plan.tile in
  let radius = radius_of st in
  let cpes = cpes_of plan in
  let counts = Array.mapi (fun d t -> (dims.(d) + t - 1) / t) tile in
  let ntasks = plan.Plan.tiles_count in
  Emit_common.emit_prelude w st;
  C_writer.line w "#include <slave.h>";
  C_writer.line w "#include <dma.h>";
  C_writer.blank w;
  C_writer.line w "%s" (args_struct st);
  C_writer.blank w;
  Array.iteri (fun d t -> C_writer.line w "#define T%d %d" d t) tile;
  Array.iteri (fun d c -> C_writer.line w "#define NT%d %d" d c) counts;
  Array.iteri (fun d r -> C_writer.line w "#define R%d %d" d r) radius;
  (* Padded local tile extents for the read buffers. *)
  Array.iteri
    (fun d t -> C_writer.line w "#define L%d %d" d (t + (2 * radius.(d))))
    tile;
  C_writer.line w "#define NTASKS %d" ntasks;
  C_writer.line w "#define CPES %d" cpes;
  let l_total = String.concat " * " (List.init nd (Printf.sprintf "L%d")) in
  let t_total = String.concat " * " (List.init nd (Printf.sprintf "T%d")) in
  C_writer.line w "#define READ_ELEMS (%s)" l_total;
  C_writer.line w "#define WRITE_ELEMS (%s)" t_total;
  (* Local (scratchpad) index macros. *)
  let args_r = String.concat ", " (List.init nd (Printf.sprintf "u%d")) in
  let bidx body = body in
  let build prefix =
    let rec go d acc =
      if d = nd then acc
      else go (d + 1) (Printf.sprintf "(%s) * %s%d + (u%d)" acc prefix d d)
    in
    go 1 "(u0)"
  in
  C_writer.line w "#define BIDX_R(%s) ((size_t)(%s))" args_r (bidx (build "L"));
  C_writer.line w "#define BIDX_W(%s) ((size_t)(%s))" args_r (bidx (build "T"));
  C_writer.blank w;
  let dts = distinct_dts st in
  let auxes = Emit_common.aux_tensors st in
  List.iter
    (fun dt ->
      C_writer.line w "__thread_local ELEM buf_read_%d[READ_ELEMS];" dt)
    dts;
  List.iter
    (fun (tensor : Tensor.t) ->
      C_writer.line w "__thread_local ELEM buf_aux_%s[READ_ELEMS];" tensor.Tensor.name)
    auxes;
  C_writer.line w "__thread_local ELEM buf_write[WRITE_ELEMS];";
  C_writer.blank w;
  C_writer.block w "void msc_step_slave(msc_step_args *a)" (fun () ->
      C_writer.line w "const int my_id = athread_get_id(-1);";
      C_writer.line w "volatile int reply = 0;";
      C_writer.block w
        "for (int task = my_id; task < NTASKS; task += CPES)" (fun () ->
          (* Decode the linear task id into tile coordinates. *)
          C_writer.line w "int rest = task;";
          for d = nd - 1 downto 0 do
            C_writer.line w "const int to%d = rest %% NT%d; rest /= NT%d;" d d d
          done;
          List.iteri
            (fun d _ ->
              C_writer.line w "const int lo%d = to%d * T%d;" d d d;
              C_writer.line w
                "const int len%d = (lo%d + T%d <= N%d) ? T%d : (N%d - lo%d);" d d d d
                d d d)
            (Array.to_list tile);
          C_writer.blank w;
          C_writer.line w "/* compute_at(buffer_read, %so): stage padded tiles into SPM */"
            (List.nth (Schedule.dim_names nd) (nd - 1));
          C_writer.line w "reply = 0;";
          C_writer.line w "int rows = 0;";
          (* Row-wise DMA gets: rows run over all but the last dimension of
             the padded tile; each row is a contiguous run. *)
          let row_loops body =
            let rec go d =
              if d = nd - 1 then body ()
              else
                C_writer.block w
                  (Printf.sprintf
                     "for (int u%d = 0; u%d < len%d + 2 * R%d; ++u%d)" d d d d d)
                  (fun () -> go (d + 1))
            in
            go 0
          in
          let stage ~field ~buffer =
            row_loops (fun () ->
                let src_coords =
                  String.concat ", "
                    (List.init nd (fun d ->
                         if d = nd - 1 then Printf.sprintf "lo%d - R%d" d d
                         else Printf.sprintf "lo%d - R%d + u%d" d d d))
                in
                let dst_coords =
                  String.concat ", "
                    (List.init nd (fun d ->
                         if d = nd - 1 then "0" else Printf.sprintf "u%d" d))
                in
                C_writer.line w
                  "athread_get(PE_MODE, (void *)&a->%s[IDX(%s)], &%s[BIDX_R(%s)], (len%d + 2 * R%d) * sizeof(ELEM), (void *)&reply, 0, 0, 0);"
                  field src_coords buffer dst_coords (nd - 1) (nd - 1);
                C_writer.line w "rows++;")
          in
          List.iter
            (fun dt ->
              stage ~field:(Printf.sprintf "s%d" dt)
                ~buffer:(Printf.sprintf "buf_read_%d" dt))
            dts;
          List.iter
            (fun (tensor : Tensor.t) ->
              stage ~field:tensor.Tensor.name
                ~buffer:("buf_aux_" ^ tensor.Tensor.name))
            auxes;
          C_writer.line w "while (reply < rows) ; /* wait for DMA gets */";
          C_writer.blank w;
          C_writer.line w "/* compute the tile entirely out of SPM */";
          let rec compute_loops d =
            if d = nd then begin
              let vars = List.init nd (Printf.sprintf "u%d") in
              let write_coords = String.concat ", " vars in
              let input_name = st.Stencil.grid.Tensor.name in
              let index ~dt (acc : Expr.access) =
                let array =
                  if String.equal acc.Expr.tensor input_name then
                    Printf.sprintf "buf_read_%d" dt
                  else "buf_aux_" ^ acc.Expr.tensor
                in
                let subs =
                  List.mapi
                    (fun d v ->
                      Printf.sprintf "%s + R%d + (%d)" v d acc.Expr.offsets.(d))
                    vars
                in
                Printf.sprintf "%s[BIDX_R(%s)]" array (String.concat ", " subs)
              in
              (* One fused sum per point, the runtime sweep's fold. *)
              C_writer.line w "buf_write[BIDX_W(%s)] = (ELEM)(%s);" write_coords
                (String.concat " + " (Emit_common.point_terms st ~index))
            end
            else
              C_writer.block w
                (Printf.sprintf "for (int u%d = 0; u%d < len%d; ++u%d)" d d d d)
                (fun () -> compute_loops (d + 1))
          in
          compute_loops 0;
          C_writer.blank w;
          C_writer.line w "/* compute_at(buffer_write, ...): flush the tile */";
          C_writer.line w "reply = 0;";
          C_writer.line w "rows = 0;";
          let rec put_loops d =
            if d = nd - 1 then begin
              let src_coords =
                String.concat ", "
                  (List.init nd (fun d -> if d = nd - 1 then "0" else Printf.sprintf "u%d" d))
              in
              let dst_coords =
                String.concat ", "
                  (List.init nd (fun d ->
                       if d = nd - 1 then Printf.sprintf "lo%d" d
                       else Printf.sprintf "lo%d + u%d" d d))
              in
              C_writer.line w
                "athread_put(PE_MODE, &buf_write[BIDX_W(%s)], &a->out[IDX(%s)], len%d * sizeof(ELEM), (void *)&reply, 0, 0);"
                src_coords dst_coords (nd - 1);
              C_writer.line w "rows++;"
            end
            else
              C_writer.block w
                (Printf.sprintf "for (int u%d = 0; u%d < len%d; ++u%d)" d d d d)
                (fun () -> put_loops (d + 1))
          in
          put_loops 0;
          C_writer.line w "while (reply < rows) ; /* wait for DMA puts */"));
  C_writer.contents w
