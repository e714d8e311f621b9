(* The Msc_trace subsystem: span/counter recording, chrome-trace export,
   the disabled-sink fast path, and Pipeline-vs-legacy agreement. *)

open Helpers
module Trace = Msc_trace

(* --- a hand-rolled JSON syntax checker (no JSON library in the tree) --- *)

let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let fail = Stdlib.Exit in
  let expect c = if peek () = Some c then advance () else raise fail in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> raise fail
  and literal lit =
    String.iter expect lit
  and string_lit () =
    expect '"';
    let rec chars () =
      match peek () with
      | None -> raise fail
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> raise fail
              done
          | _ -> raise fail);
          chars ()
      | Some c when Char.code c < 0x20 -> raise fail
      | Some _ ->
          advance ();
          chars ()
    in
    chars ()
  and number () =
    let digits () =
      let start = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = start then raise fail
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ())
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems ()
        | Some ']' -> advance ()
        | _ -> raise fail
      in
      elems ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' -> advance ()
        | _ -> raise fail
      in
      members ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | done_ -> done_
  | exception Stdlib.Exit -> false

let json_checker_sanity () =
  List.iter
    (fun (ok, s) -> check_bool s ok (json_well_formed s))
    [
      (true, "[]");
      (true, {|[{"a":1,"b":[true,null,-1.5e-3]},"x\n"]|});
      (false, "[");
      (false, {|{"a":}|});
      (false, {|[1,]|});
      (false, "[1] trailing");
    ]

(* --- recording --- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let span_nesting () =
  let tr = Trace.create () in
  let result =
    Trace.span tr "outer" (fun () ->
        Trace.span tr "inner" (fun () -> 41) + 1)
  in
  check_int "closure result" 42 result;
  check_int "two spans" 2 (Trace.span_count tr);
  let find name =
    List.find_map
      (function
        | Trace.Span { name = n; ts; dur; _ } when n = name -> Some (ts, dur)
        | _ -> None)
      (Trace.events tr)
    |> Option.get
  in
  let outer_ts, outer_dur = find "outer" and inner_ts, inner_dur = find "inner" in
  check_bool "inner within outer (start)" true (inner_ts >= outer_ts);
  check_bool "inner within outer (dur)" true (inner_dur <= outer_dur);
  check_bool "durations non-negative" true (inner_dur >= 0.0 && outer_dur >= 0.0)

let span_on_exception () =
  let tr = Trace.create () in
  (try Trace.span tr "boom" (fun () -> failwith "boom") with Failure _ -> ());
  check_int "span recorded despite raise" 1 (Trace.span_count tr)

let counter_aggregation () =
  let tr = Trace.create () in
  Trace.add tr "bytes" 100.0;
  Trace.add tr "bytes" 28.0;
  Trace.add tr "trials" 1.0;
  match Trace.totals tr with
  | [ b; t ] ->
      check_string "alphabetical" "bytes" b.Trace.counter;
      check_int "two increments" 2 b.Trace.count;
      check_float "summed" 128.0 b.Trace.sum;
      check_string "second" "trials" t.Trace.counter;
      check_float "unit sum" 1.0 t.Trace.sum
  | l -> Alcotest.failf "expected 2 totals, got %d" (List.length l)

let phase_aggregation () =
  let tr = Trace.create () in
  Trace.emit_span tr "a" ~dur_s:0.3;
  Trace.emit_span tr "a" ~dur_s:0.1;
  Trace.emit_span tr "b" ~dur_s:0.6;
  match Trace.phases tr with
  | [ b; a ] ->
      check_string "largest first" "b" b.Trace.phase;
      check_int "calls" 2 a.Trace.calls;
      check_float "total" 0.4 a.Trace.total_s;
      check_float "mean" 0.2 a.Trace.mean_s;
      check_float "share" 0.4 a.Trace.share
  | l -> Alcotest.failf "expected 2 phases, got %d" (List.length l)

let worker_buffers_merge () =
  let tr = Trace.create () in
  let pool = Msc_util.Domain_pool.create 3 in
  Msc_util.Domain_pool.parallel_for pool
    ~on_worker:(fun w -> Trace.attach_worker tr ~tid:w)
    ~lo:0 ~hi:64
    (fun _ -> Trace.add tr "tick" 1.0);
  match Trace.totals tr with
  | [ t ] ->
      check_string "tick" "tick" t.Trace.counter;
      check_int "all worker events merged" 64 t.Trace.count
  | l -> Alcotest.failf "expected 1 total, got %d" (List.length l)

(* --- chrome export --- *)

let chrome_json_well_formed () =
  let tr = Trace.create () in
  Trace.span tr "sweep \"q\" \\ phase" (fun () -> ());
  Trace.add tr "bytes" 12.5;
  Trace.emit_span tr "dma" ~dur_s:1e-5;
  let js = Trace.to_chrome_json tr in
  check_bool "well-formed JSON" true (json_well_formed js);
  check_bool "complete event" true (contains ~needle:{|"ph":"X"|} js);
  check_bool "counter event" true (contains ~needle:{|"ph":"C"|} js);
  check_bool "escaped name" true (contains ~needle:{|sweep \"q\" \\ phase|} js)

let chrome_json_disabled () =
  check_string "disabled exports empty array" "[]"
    (String.trim (Trace.to_chrome_json Trace.disabled))

let report_renders () =
  let tr = Trace.create () in
  Trace.emit_span tr "sweep" ~dur_s:0.25;
  Trace.add tr "sweep.points" 4096.0;
  let r = Trace.report tr in
  check_bool "phase table" true (contains ~needle:"sweep" r);
  check_bool "counter table" true (contains ~needle:"sweep.points" r)

(* --- the disabled sink --- *)

let disabled_noop () =
  let tr = Trace.disabled in
  check_bool "disabled" false (Trace.enabled tr);
  check_float "begin_span is 0" 0.0 (Trace.begin_span tr);
  Trace.end_span tr "x" 0.0;
  Trace.add tr "c" 1.0;
  Trace.emit_span tr "y" ~dur_s:1.0;
  Trace.attach_worker tr ~tid:3;
  check_int "still no events" 0 (List.length (Trace.events tr));
  check_int "result passes through" 7 (Trace.span tr "z" (fun () -> 7));
  check_bool "no phases" true (Trace.phases tr = []);
  check_bool "no totals" true (Trace.totals tr = [])

(* --- pipeline integration --- *)

let pipeline_matches_untraced () =
  let _, st = stencil_3d7pt ~n:10 () in
  let untraced =
    (* Tracing must be purely observational: a traced run agrees bit-for-bit
       with the same pipeline run without a sink. *)
    Msc.Pipeline.run ~steps:4
      (Msc.Pipeline.make ~stencil:st
         ~config:(Msc.Exec.Config.make ~pool:(Msc.Domain_pool.create 2) ())
         ())
  in
  let trace = Trace.create () in
  let p =
    Msc.Pipeline.make ~stencil:st
      ~config:(Msc.Exec.Config.make ~pool:(Msc.Domain_pool.create 2) ())
      ~trace ()
  in
  let piped = Msc.Pipeline.run ~steps:4 p in
  check_float "identical result" 0.0
    (Msc.Grid.max_rel_error ~reference:untraced piped);
  let phases = List.map (fun ph -> ph.Trace.phase) (Trace.phases trace) in
  List.iter
    (fun name -> check_bool name true (List.mem name phases))
    [ "sweep"; "bc.apply"; "window.rotate" ];
  let pts =
    List.find (fun t -> t.Trace.counter = "sweep.points") (Trace.totals trace)
  in
  check_float "points = 4 steps x 10^3" (4.0 *. 1000.0) pts.Trace.sum

(* Every compiled kernel term counts the form the JIT lowered it to, and
   every compiled sweep its loop nest: the chain/tree choice and the nest
   decide compile time and sweep rate. *)
let jit_form_counters () =
  let config = Msc.Exec.Config.make ~backend:Msc.Backend.Compiled_c () in
  let counter trace name =
    match List.find_opt (fun t -> t.Trace.counter = name) (Trace.totals trace) with
    | Some t -> t.Trace.sum
    | None -> 0.0
  in
  let traced st =
    let trace = Trace.create () in
    ignore (Msc.Runtime.create ~config ~trace st);
    trace
  in
  let _, st = stencil_3d7pt ~n:6 () in
  let t = traced st in
  check_float "two chain terms" 2.0 (counter t "jit.form.chain");
  check_float "no tree term" 0.0 (counter t "jit.form.tree");
  (* c * (sum of reads) keeps its written association: a tree. *)
  let t = traced (stencil_wave2d ~n:6 ()) in
  check_float "one tree term" 1.0 (counter t "jit.form.tree");
  check_float "no chain term" 0.0 (counter t "jit.form.chain");
  List.iter
    (fun (name, dims, nest) ->
      let b = Msc.Suite.find name in
      let t = traced (Msc.Suite.stencil ~dims b) in
      List.iter
        (fun n ->
          check_float
            (Printf.sprintf "%s: jit.nest.%s" name n)
            (if String.equal n nest then 1.0 else 0.0)
            (counter t ("jit.nest." ^ n)))
        [ "row_block"; "passes" ])
    [
      ("2d9pt_box", [| 12; 16 |], "row_block");
      ("3d7pt_star", [| 6; 7; 8 |], "passes");
      ("2d169pt_box", [| 16; 16 |], "passes");
    ]

let distributed_traces_halo () =
  let _, st = stencil_2d9pt_box () in
  let trace = Trace.create () in
  let p = Msc.Pipeline.make ~stencil:st ~trace () in
  let dist = Msc.Pipeline.distribute ~ranks_shape:[| 2; 2 |] p in
  Msc.Distributed.run dist 2;
  let phases = List.map (fun ph -> ph.Trace.phase) (Trace.phases trace) in
  List.iter
    (fun name -> check_bool name true (List.mem name phases))
    [ "halo.pack"; "halo.exchange"; "halo.unpack"; "halo.window"; "sweep" ];
  (* Spans carry the rank as tid: a 2x2 grid must show ranks 0..3. *)
  let tids =
    List.filter_map
      (function Trace.Span { name = "sweep"; tid; _ } -> Some tid | _ -> None)
      (Trace.events trace)
    |> List.sort_uniq compare
  in
  check_bool "all 4 ranks traced" true (tids = [ 0; 1; 2; 3 ])

(* Halo events are recorded per rank per exchange, not per message: one
   halo.pack span, one halo.bytes counter, one halo.exchange span and one
   halo.unpack span. At 4x4 ranks a box stencil sends 84 messages per
   step, yet a step records exactly 4 halo events per rank. *)
let halo_events_scale_with_ranks () =
  let _, st = stencil_2d9pt_box ~m:16 ~n:16 () in
  let halo_events ~ranks_shape =
    let trace = Trace.create () in
    let dist = Msc.Distributed.create ~trace ~ranks_shape st in
    let sent = Msc.Mpi.messages_sent (Msc.Distributed.mpi dist) in
    let is_halo (e : Trace.event) =
      match e with
      | Trace.Span { name; _ } | Trace.Counter { name; _ } ->
          List.mem name [ "halo.pack"; "halo.bytes"; "halo.exchange"; "halo.unpack" ]
    in
    let count () = List.length (List.filter is_halo (Trace.events trace)) in
    let c0 = count () in
    Msc.Distributed.step dist;
    (count () - c0, Msc.Mpi.messages_sent (Msc.Distributed.mpi dist) - sent)
  in
  let ev4, msgs4 = halo_events ~ranks_shape:[| 2; 2 |] in
  let ev16, msgs16 = halo_events ~ranks_shape:[| 4; 4 |] in
  check_int "2x2 box: 12 messages" 12 msgs4;
  check_int "4x4 box: 84 messages" 84 msgs16;
  check_int "2x2: 4 halo events per rank" 16 ev4;
  check_int "4x4: 4 halo events per rank" 64 ev16

let suites =
  [
    ( "trace.record",
      [
        tc "json checker sanity" json_checker_sanity;
        tc "span nesting" span_nesting;
        tc "span on exception" span_on_exception;
        tc "counter aggregation" counter_aggregation;
        tc "phase aggregation" phase_aggregation;
        tc "worker buffers merge" worker_buffers_merge;
      ] );
    ( "trace.export",
      [
        tc "chrome json well-formed" chrome_json_well_formed;
        tc "chrome json disabled" chrome_json_disabled;
        tc "report renders" report_renders;
      ] );
    ( "trace.pipeline",
      [
        tc "disabled sink no-op" disabled_noop;
        tc "pipeline matches untraced" pipeline_matches_untraced;
        tc "distributed traces halo" distributed_traces_halo;
        tc "halo events scale with ranks" halo_events_scale_with_ranks;
        tc "jit form counters" jit_form_counters;
      ] );
  ]
