(* Unit tests for the benchmark's helpers, and a smoke run of all four
   workloads at tiny sizes that must print every metric BENCHMARK.json
   names, with a finite value, and fail no operation. *)

open Msc_bench

let close = Alcotest.float 1e-9

let span ?(tid = 0) name ts dur = { Spans.name; ts; dur; tid }

let self_of spans = Spans.self_times ~root_tid:99 (Array.of_list spans)

let test_self_nested () =
  (* root [0,10] > call [2,8] > library span [3,4] on another timeline *)
  let s =
    self_of [ span ~tid:99 "root" 0. 10.; span ~tid:99 "call" 2. 6.; span ~tid:0 "lib" 3. 1. ]
  in
  Alcotest.(check (array close)) "self" [| 4.; 5.; 1. |] s

let test_self_parallel_children () =
  (* Two workers overlap inside one call: their union, not their sum, is
     subtracted. *)
  let s =
    self_of
      [ span ~tid:99 "call" 0. 10.; span ~tid:0 "tile" 1. 3.; span ~tid:1 "tile" 3. 3. ]
  in
  Alcotest.(check (array close)) "self" [| 5.; 3.; 3. |] s

let test_self_same_timeline () =
  (* Spans on one worker timeline nest among themselves first. *)
  let s =
    self_of
      [
        span ~tid:99 "step" 0. 10.;
        span ~tid:3 "overlap" 1. 4.;
        span ~tid:3 "sweep" 2. 2.;
        span ~tid:3 "pack" 6. 1.;
        span ~tid:0 "outside" 20. 1.;
      ]
  in
  Alcotest.(check (array close)) "self" [| 5.; 2.; 2.; 1.; 1. |] s

let test_totals () =
  let t =
    Spans.totals ~root_tid:99
      (Array.of_list [ span ~tid:99 "step" 0. 4.; span ~tid:99 "step" 5. 4.; span "sweep" 1. 2. ])
  in
  let x = t "step" in
  Alcotest.(check int) "calls" 2 x.Spans.calls;
  Alcotest.check close "total" 8. x.Spans.total_s;
  Alcotest.check close "self" 6. x.Spans.self_s;
  Alcotest.(check int) "absent" 0 (t "nothing").Spans.calls

let test_summarize () =
  let secs = Array.init 100 (fun i -> float_of_int (i + 1) *. 1e-3) in
  let whole = Steps.summarize ~blocks:1 ~points:1e6 secs in
  Alcotest.(check int) "steps" 100 whole.Steps.steps;
  Alcotest.check close "p50" 50.5 whole.Steps.p50_ms;
  Alcotest.check close "p90" 90.1 whole.Steps.p90_ms;
  Alcotest.check close "mpts" (100. /. 5.05) whole.Steps.mpts_per_s;
  (* Ten blocks of ten steps: every statistic comes from the fastest
     block, steps 1..10 ms. *)
  let best = Steps.summarize ~blocks:10 ~points:1e6 secs in
  Alcotest.check close "block p50" 5.5 best.Steps.p50_ms;
  Alcotest.check close "block p90" 9.1 best.Steps.p90_ms;
  Alcotest.check close "block mpts" (10. /. 0.055) best.Steps.mpts_per_s;
  let few = Steps.summarize ~blocks:10 ~points:1e6 [| 2e-3; 4e-3 |] in
  Alcotest.check close "fewer steps than blocks" 2. few.Steps.p50_ms

let test_combine_geomean () =
  let one mpts ms = { Steps.steps = 10; mpts_per_s = mpts; p50_ms = ms; p90_ms = ms } in
  let c = Steps.combine [ one 2. 1.; one 8. 100. ] in
  Alcotest.(check int) "steps" 20 c.Steps.steps;
  Alcotest.check close "mpts" 4. c.Steps.mpts_per_s;
  Alcotest.check close "p50" 10. c.Steps.p50_ms

let test_buf () =
  let b = Steps.buf () in
  for i = 1 to 5000 do
    Steps.push b (float_of_int i)
  done;
  let xs = Steps.samples b in
  Alcotest.(check int) "len" 5000 (Array.length xs);
  Alcotest.check close "last" 5000. xs.(4999)

let test_json () =
  let j = Json.parse {| {"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA"}} |} in
  Alcotest.(check (list (option (float 0.)))) "numbers" [ Some 1.; Some (-2500.); None; None ]
    (List.map Json.to_float (Json.to_list (Json.member "a" j)));
  Alcotest.(check (option string)) "string" (Some "x\"yA")
    (Json.to_string (Json.member "c" (Json.member "b" j)));
  Alcotest.(check string) "number" "0.10000000000000001" (Json.number 0.1);
  Alcotest.(check string) "integer" "42" (Json.number 42.)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let workloads = [ "stream3d"; "suite_cold"; "halo_2d"; "pipeline_img" ]

let test_smoke () =
  let spec = Json.parse (read_file "../../BENCHMARK.json") in
  let names key =
    List.filter_map (fun m -> Json.to_string (Json.member "name" m)) (Json.to_list (Json.member key spec))
  in
  let expected = names "end_to_end" @ names "per_layer" in
  let log = "smoke.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let ic, oc = Unix.pipe () in
  let pid =
    Unix.create_process "../main.exe" [| "../main.exe"; "--smoke" |] Unix.stdin oc fd
  in
  Unix.close oc;
  Unix.close fd;
  let out = In_channel.input_all (Unix.in_channel_of_descr ic) in
  let _, status = Unix.waitpid [] pid in
  let fail msg =
    prerr_string (read_file log);
    Alcotest.fail msg
  in
  if status <> Unix.WEXITED 0 then fail "main.exe --smoke exited non-zero";
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
  let r = Json.parse last in
  if Json.member "correct" r <> Json.Bool true then fail "smoke run not correct";
  if Json.to_float (Json.member "failed" r) <> Some 0. then fail "smoke run failed operations";
  let printed = Json.to_assoc (Json.member "metrics" r) in
  List.iter
    (fun w ->
      let mine =
        List.filter_map
          (fun (k, v) ->
            match String.split_on_char '/' k with
            | [ w'; name ] when w' = w -> Some (name, v)
            | _ -> None)
          printed
      in
      List.iter
        (fun name ->
          match Option.bind (List.assoc_opt name mine) (fun v -> Json.to_float (Json.member "value" v)) with
          | Some x when Float.is_finite x -> ()
          | _ -> fail (Printf.sprintf "%s: %s missing or not finite" w name))
        expected;
      List.iter
        (fun (name, _) ->
          if not (List.mem name expected) then
            fail (Printf.sprintf "%s: %s is printed but not in BENCHMARK.json" w name))
        mine)
    workloads;
  Sys.remove log

let () =
  Alcotest.run "benchmark"
    [
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick test_self_nested;
          Alcotest.test_case "parallel children" `Quick test_self_parallel_children;
          Alcotest.test_case "same timeline" `Quick test_self_same_timeline;
          Alcotest.test_case "totals" `Quick test_totals;
        ] );
      ( "steps",
        [
          Alcotest.test_case "percentiles" `Quick test_summarize;
          Alcotest.test_case "geomean" `Quick test_combine_geomean;
          Alcotest.test_case "buffer" `Quick test_buf;
        ] );
      ("json", [ Alcotest.test_case "parse and print" `Quick test_json ]);
      ("smoke", [ Alcotest.test_case "all workloads" `Slow test_smoke ]);
    ]
