type event =
  | Span of { name : string; ts : float; dur : float; tid : int }
  | Counter of { name : string; ts : float; value : float; tid : int }

type active = {
  clock : unit -> float;
  t0 : float;
  mutex : Mutex.t;
  mutable shared : event list;  (* newest first; guarded by [mutex] *)
  mutable buffers : (int * event list ref) list;  (* (tid, buffer); guarded *)
}

type t = active option

(* The calling domain's binding to a trace: events recorded on this domain
   for [sink] go into [buf] without locking ([buf] is owned by this domain;
   it is only read by others after the region's domains have joined). *)
type attachment = { sink : active; a_tid : int; buf : event list ref }

let dls_key : attachment option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let disabled = None

let create ?(clock = Unix.gettimeofday) () =
  Some
    { clock; t0 = clock (); mutex = Mutex.create (); shared = []; buffers = [] }

let enabled = Option.is_some

let attach_worker t ~tid =
  match t with
  | None -> ()
  | Some a -> (
      match Domain.DLS.get dls_key with
      | Some at when at.sink == a && at.a_tid = tid -> ()
      | _ ->
          let buf = ref [] in
          Mutex.lock a.mutex;
          a.buffers <- (tid, buf) :: a.buffers;
          Mutex.unlock a.mutex;
          Domain.DLS.set dls_key (Some { sink = a; a_tid = tid; buf }))

let emit a ev =
  match Domain.DLS.get dls_key with
  | Some at when at.sink == a -> at.buf := ev :: !(at.buf)
  | _ ->
      Mutex.lock a.mutex;
      a.shared <- ev :: a.shared;
      Mutex.unlock a.mutex

let cur_tid a =
  match Domain.DLS.get dls_key with
  | Some at when at.sink == a -> at.a_tid
  | _ -> 0

let now a = a.clock () -. a.t0

let[@inline] begin_span t = match t with None -> 0. | Some a -> now a

let end_span ?tid t name ts0 =
  match t with
  | None -> ()
  | Some a ->
      let tid = match tid with Some w -> w | None -> cur_tid a in
      emit a (Span { name; ts = ts0; dur = now a -. ts0; tid })

let end_span_on t ~tid name ts0 =
  match t with
  | None -> ()
  | Some a -> emit a (Span { name; ts = ts0; dur = now a -. ts0; tid })

let span ?tid t name f =
  match t with
  | None -> f ()
  | Some _ -> (
      let ts0 = begin_span t in
      match f () with
      | v ->
          end_span ?tid t name ts0;
          v
      | exception e ->
          end_span ?tid t name ts0;
          raise e)

let emit_span ?tid t name ~dur_s =
  match t with
  | None -> ()
  | Some a ->
      let tid = match tid with Some w -> w | None -> cur_tid a in
      emit a (Span { name; ts = now a; dur = dur_s; tid })

let add ?tid t name value =
  match t with
  | None -> ()
  | Some a ->
      let tid = match tid with Some w -> w | None -> cur_tid a in
      emit a (Counter { name; ts = now a; value; tid })

let add_on t ~tid name value =
  match t with
  | None -> ()
  | Some a -> emit a (Counter { name; ts = now a; value; tid })

(* ------------------------------------------------------------------ *)
(* Inspection *)

let event_ts = function Span { ts; _ } | Counter { ts; _ } -> ts

let events t =
  match t with
  | None -> []
  | Some a ->
      Mutex.lock a.mutex;
      let all =
        List.fold_left
          (fun acc (_, buf) -> List.rev_append !buf acc)
          (List.rev a.shared) a.buffers
      in
      Mutex.unlock a.mutex;
      List.stable_sort (fun x y -> Float.compare (event_ts x) (event_ts y)) all

let span_count t =
  List.length (List.filter (function Span _ -> true | _ -> false) (events t))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON numbers must be finite and must not be bare OCaml float notation
   like "1." or "nan". *)
let json_float x =
  if Float.is_nan x then "0"
  else if x = Float.infinity then "1e308"
  else if x = Float.neg_infinity then "-1e308"
  else Printf.sprintf "%.6g" x

let to_chrome_json t =
  match events t with
  | [] -> "[]\n"
  | evs ->
      let b = Buffer.create 4096 in
      Buffer.add_string b "[";
      List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",\n " else Buffer.add_string b "\n ";
      (match ev with
      | Span { name; ts; dur; tid } ->
          Printf.bprintf b
            {|{"name":"%s","cat":"msc","ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d}|}
            (json_escape name)
            (json_float (ts *. 1e6))
            (json_float (dur *. 1e6))
            tid
      | Counter { name; ts; value; tid } ->
          Printf.bprintf b
            {|{"name":"%s","cat":"msc","ph":"C","ts":%s,"pid":1,"tid":%d,"args":{"value":%s}}|}
            (json_escape name)
            (json_float (ts *. 1e6))
            tid (json_float value)))
        evs;
      Buffer.add_string b "\n]\n";
      Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Aggregate report *)

type phase = {
  phase : string;
  calls : int;
  total_s : float;
  mean_s : float;
  share : float;
}

type total = { counter : string; count : int; sum : float }

let phases t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Span { name; dur; _ } ->
          let calls, tot =
            match Hashtbl.find_opt tbl name with
            | Some (c, s) -> (c, s)
            | None -> (0, 0.0)
          in
          Hashtbl.replace tbl name (calls + 1, tot +. dur)
      | Counter _ -> ())
    (events t);
  let grand = Hashtbl.fold (fun _ (_, s) acc -> acc +. s) tbl 0.0 in
  Hashtbl.fold
    (fun phase (calls, total_s) acc ->
      {
        phase;
        calls;
        total_s;
        mean_s = total_s /. float_of_int (max 1 calls);
        share = (if grand > 0.0 then total_s /. grand else 0.0);
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> Float.compare b.total_s a.total_s)

let totals t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Counter { name; value; _ } ->
          let count, sum =
            match Hashtbl.find_opt tbl name with
            | Some (c, s) -> (c, s)
            | None -> (0, 0.0)
          in
          Hashtbl.replace tbl name (count + 1, sum +. value)
      | Span _ -> ())
    (events t);
  Hashtbl.fold (fun counter (count, sum) acc -> { counter; count; sum } :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.counter b.counter)

let report t =
  match t with
  | None -> "(tracing disabled)\n"
  | Some _ ->
      let b = Buffer.create 1024 in
      let ps = phases t in
      if ps <> [] then
        Buffer.add_string b
          (Msc_util.Table.render ~title:"trace: per-phase aggregate"
             ~header:[ "phase"; "calls"; "total"; "mean"; "share" ]
             (List.map
                (fun p ->
                  [
                    p.phase;
                    string_of_int p.calls;
                    Msc_util.Units_fmt.seconds p.total_s;
                    Msc_util.Units_fmt.seconds p.mean_s;
                    Printf.sprintf "%.1f%%" (100.0 *. p.share);
                  ])
                ps));
      let ts = totals t in
      if ts <> [] then begin
        if ps <> [] then Buffer.add_char b '\n';
        Buffer.add_string b
          (Msc_util.Table.render ~title:"trace: counters"
             ~header:[ "counter"; "events"; "sum" ]
             (List.map
                (fun c ->
                  [
                    c.counter;
                    string_of_int c.count;
                    Msc_util.Table.fmt_float ~decimals:1 c.sum;
                  ])
                ts))
      end;
      if Buffer.length b = 0 then "(empty trace)\n" else Buffer.contents b
