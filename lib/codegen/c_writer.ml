type t = { buf : Buffer.t; mutable indent : int }

let create () = { buf = Buffer.create 4096; indent = 0 }

let emit t s =
  if String.length s > 0 then Buffer.add_string t.buf (String.make (2 * t.indent) ' ');
  Buffer.add_string t.buf s;
  Buffer.add_char t.buf '\n'

let line t fmt = Printf.ksprintf (emit t) fmt
let blank t = Buffer.add_char t.buf '\n'

let block t header body =
  emit t (header ^ " {");
  t.indent <- t.indent + 1;
  body ();
  t.indent <- t.indent - 1;
  emit t "}"

let raw t s =
  Buffer.add_string t.buf s;
  if String.length s = 0 || s.[String.length s - 1] <> '\n' then
    Buffer.add_char t.buf '\n'

let contents t = Buffer.contents t.buf
