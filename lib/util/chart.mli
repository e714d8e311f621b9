(** Plain-text charts used to render the paper's figures in a terminal. *)

val bar_chart :
  ?title:string -> ?width:int -> ?unit_label:string ->
  (string * float) list -> string
(** Horizontal bar chart, one labelled bar per entry, scaled to the maximum
    value. Negative values are clamped to zero. *)

val line_chart :
  ?title:string -> ?height:int -> ?width:int -> ?x_label:string ->
  ?y_label:string -> (string * (float * float) list) list -> string
(** Multi-series scatter/line plot on a character grid; each series is drawn
    with its own glyph. *)
