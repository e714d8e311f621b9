let bar_chart ?title ?(width = 50) ?(unit_label = "") entries =
  let buf = Buffer.create 1024 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  let label_width =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 0 entries
  in
  let vmax = List.fold_left (fun acc (_, v) -> max acc v) 0.0 entries in
  let vmax = if vmax <= 0.0 then 1.0 else vmax in
  let emit (label, v) =
    let v = max v 0.0 in
    let n = int_of_float (Float.round (v /. vmax *. float_of_int width)) in
    Buffer.add_string buf (Table.pad Table.Left label_width label);
    Buffer.add_string buf " |";
    Buffer.add_string buf (String.make n '#');
    Buffer.add_string buf (Printf.sprintf " %.3g%s\n" v unit_label)
  in
  List.iter emit entries;
  Buffer.contents buf

let series_glyphs = [| '#'; '*'; '+'; 'o'; 'x'; '@'; '%'; '=' |]

let line_chart ?title ?(height = 16) ?(width = 64) ?(x_label = "x") ?(y_label = "y")
    series =
  let buf = Buffer.create 2048 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  let all_points = List.concat_map snd series in
  if all_points = [] then Buffer.add_string buf "(empty chart)\n"
  else begin
    let xs = List.map fst all_points and ys = List.map snd all_points in
    let xmin = List.fold_left min (List.hd xs) xs
    and xmax = List.fold_left max (List.hd xs) xs
    and ymin = List.fold_left min (List.hd ys) ys
    and ymax = List.fold_left max (List.hd ys) ys in
    let xspan = if xmax -. xmin <= 0.0 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, points) ->
        let glyph = series_glyphs.(si mod Array.length series_glyphs) in
        List.iter
          (fun (x, y) ->
            let col =
              int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
            in
            let row =
              height - 1
              - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
            in
            if row >= 0 && row < height && col >= 0 && col < width then
              grid.(row).(col) <- glyph)
          points)
      series;
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "  %c = %s\n" series_glyphs.(si mod Array.length series_glyphs) name))
      series;
    Buffer.add_string buf (Printf.sprintf "%s (max %.4g)\n" y_label ymax);
    Array.iter
      (fun row ->
        Buffer.add_string buf "  |";
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf "  +";
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "   %s: %.4g .. %.4g (%s min %.4g)\n" x_label xmin xmax y_label ymin)
  end;
  Buffer.contents buf
