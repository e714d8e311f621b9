(** Minimal indented C source builder. *)

type t

val create : unit -> t
val line : t -> ('a, unit, string, unit) format4 -> 'a
(** Emit one line at the current indentation. *)

val blank : t -> unit
val block : t -> string -> (unit -> unit) -> unit
(** [block w header body] emits [header {], the body one level deeper,
    then [}]. *)

val raw : t -> string -> unit
(** Emit preformatted text verbatim (e.g. a pragma at column 0). *)

val contents : t -> string
