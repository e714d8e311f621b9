(* Unit and property tests for msc_util: PRNG, statistics, regression,
   tables, charts, units, domain pool. *)

open Helpers
module Prng = Msc_util.Prng
module Stats = Msc_util.Stats
module Regress = Msc_util.Regress
module Table = Msc_util.Table
module Chart = Msc_util.Chart
module Units_fmt = Msc_util.Units_fmt
module Domain_pool = Msc_util.Domain_pool

(* --- PRNG --- *)

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  check_bool "different streams" false (Prng.next_int64 a = Prng.next_int64 b)

let prng_copy_independent () =
  let a = Prng.create 7 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b);
  ignore (Prng.next_int64 a);
  (* b is one draw behind a now; their next outputs must differ. *)
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  check_bool "independent after divergence" false (Int64.equal xa xb)

let prng_uniform_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let u = Prng.uniform rng in
    check_bool "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let prng_int_range () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let k = Prng.int rng 17 in
    check_bool "in [0,17)" true (k >= 0 && k < 17)
  done

let prng_mean_reasonable () =
  let rng = Prng.create 5 in
  let xs = Array.init 20000 (fun _ -> Prng.uniform rng) in
  check_bool "mean near 0.5" true (Float.abs (Stats.mean xs -. 0.5) < 0.02)

let prng_gaussian_moments () =
  let rng = Prng.create 6 in
  let xs = Array.init 20000 (fun _ -> Prng.gaussian rng) in
  check_bool "mean near 0" true (Float.abs (Stats.mean xs) < 0.05);
  check_bool "stddev near 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.05)

let prng_shuffle_permutes () =
  let rng = Prng.create 8 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let prng_split_independent () =
  let rng = Prng.create 9 in
  let child = Prng.split rng in
  check_bool "child differs from parent stream" false
    (Prng.next_int64 child = Prng.next_int64 rng)

(* --- Stats --- *)

let stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let stats_geomean () =
  check_float "geomean of 2,8" 4.0 (Stats.geomean [| 2.0; 8.0 |])

let stats_stddev () =
  check_float "population stddev" 1.0 (Stats.stddev [| 1.0; 3.0; 1.0; 3.0 |])

let stats_minmax () =
  check_float "min" (-3.0) (Stats.minimum [| 2.0; -3.0; 7.0 |]);
  check_float "max" 7.0 (Stats.maximum [| 2.0; -3.0; 7.0 |])

let stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25 interpolates" 2.0 (Stats.percentile xs 25.0)

let stats_percentile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.percentile xs 50.0);
  Alcotest.(check (array (float 0.0))) "untouched" [| 3.0; 1.0; 2.0 |] xs

let stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  check_int "n" 3 s.Stats.n;
  check_float "median" 2.0 s.Stats.median

(* --- Regression --- *)

let regress_exact_linear () =
  (* y = 3 + 2 x0 - x1 must be recovered exactly. *)
  let rng = Prng.create 11 in
  let features =
    Array.init 50 (fun _ -> [| Prng.float rng 10.0; Prng.float rng 10.0 |])
  in
  let targets = Array.map (fun f -> 3.0 +. (2.0 *. f.(0)) -. f.(1)) features in
  let m = Regress.fit ~features ~targets in
  check_bool "intercept" true (Float.abs (m.Regress.intercept -. 3.0) < 1e-6);
  check_bool "coef0" true (Float.abs (m.Regress.coefficients.(0) -. 2.0) < 1e-6);
  check_bool "coef1" true (Float.abs (m.Regress.coefficients.(1) +. 1.0) < 1e-6);
  check_bool "r2 = 1" true (m.Regress.r_squared > 0.999999)

let regress_noisy_r2 () =
  let rng = Prng.create 12 in
  let features = Array.init 200 (fun _ -> [| Prng.float rng 5.0 |]) in
  let targets =
    Array.map (fun f -> (4.0 *. f.(0)) +. Prng.gaussian rng) features
  in
  let m = Regress.fit ~features ~targets in
  check_bool "slope near 4" true (Float.abs (m.Regress.coefficients.(0) -. 4.0) < 0.2);
  check_bool "good fit" true (m.Regress.r_squared > 0.9)

let regress_predict () =
  let m =
    Regress.fit
      ~features:[| [| 0.0 |]; [| 1.0 |]; [| 2.0 |]; [| 3.0 |] |]
      ~targets:[| 1.0; 3.0; 5.0; 7.0 |]
  in
  check_bool "predicts y=2x+1" true (Float.abs (Regress.predict m [| 10.0 |] -. 21.0) < 1e-6)

let regress_shape_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Regress.fit: shape") (fun () ->
      ignore (Regress.fit ~features:[||] ~targets:[||]));
  Alcotest.check_raises "underdetermined"
    (Invalid_argument "Regress.fit: underdetermined") (fun () ->
      ignore (Regress.fit ~features:[| [| 1.0; 2.0 |] |] ~targets:[| 1.0 |]))

let solve_linear_system () =
  (* 2x + y = 5; x - y = 1  ->  x = 2, y = 1 *)
  let x = Regress.solve_linear_system [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] [| 5.0; 1.0 |] in
  check_bool "x" true (Float.abs (x.(0) -. 2.0) < 1e-9);
  check_bool "y" true (Float.abs (x.(1) -. 1.0) < 1e-9)

let solve_singular_rejected () =
  check_bool "singular raises" true
    (try
       ignore
         (Regress.solve_linear_system
            [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]
            [| 1.0; 2.0 |]);
       false
     with Invalid_argument _ -> true)

(* --- Table / Chart / Units --- *)

let table_alignment () =
  let out = Table.render ~header:[ "a"; "b" ] [ [ "xx"; "1" ]; [ "y"; "22" ] ] in
  let lines = String.split_on_char '\n' out in
  check_bool "has 4+ lines" true (List.length lines >= 4);
  check_bool "header first" true
    (String.length (List.nth lines 0) > 0 && String.sub (List.nth lines 0) 0 1 = "a")

let table_ragged_rows_padded () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  check_bool "renders without exception" true (String.length out > 0)

let table_fmt () =
  check_string "float" "3.14" (Table.fmt_float 3.14159);
  check_string "speedup" "24.40x" (Table.fmt_speedup 24.4)

let chart_bar () =
  let out = Chart.bar_chart [ ("a", 1.0); ("b", 2.0) ] in
  check_bool "bars drawn" true (String.contains out '#')

let chart_line_empty () =
  let out = Chart.line_chart [ ("s", []) ] in
  check_bool "empty chart ok" true (String.length out > 0)

let chart_line_points () =
  let out =
    Chart.line_chart [ ("s", [ (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) ]) ]
  in
  check_bool "grid drawn" true (String.contains out '#')

let units_seconds () =
  check_string "ms" "1.5 ms" (Units_fmt.seconds 0.0015);
  check_string "us" "2 us" (Units_fmt.seconds 2e-6);
  check_string "s" "3 s" (Units_fmt.seconds 3.0)

let units_bytes () =
  check_string "KiB" "64.00 KiB" (Units_fmt.bytes 65536);
  check_string "B" "12 B" (Units_fmt.bytes 12)

(* --- Domain pool --- *)

let pool_parallel_for_covers () =
  let pool = Domain_pool.create 4 in
  let hits = Array.make 1000 0 in
  Domain_pool.parallel_for pool ~lo:0 ~hi:1000 (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri (fun i h -> check_int (Printf.sprintf "index %d hit once" i) 1 h) hits

let pool_round_robin_covers () =
  let pool = Domain_pool.create 3 in
  let hits = Array.make 100 0 in
  Domain_pool.parallel_chunks pool ~lo:0 ~hi:100 (fun ~worker:_ i ->
      hits.(i) <- hits.(i) + 1);
  Array.iter (fun h -> check_int "hit once" 1 h) hits

let pool_round_robin_worker_assignment () =
  let pool = Domain_pool.create 4 in
  let owner = Array.make 40 (-1) in
  Domain_pool.parallel_chunks pool ~lo:0 ~hi:40 (fun ~worker i -> owner.(i) <- worker);
  Array.iteri
    (fun i w -> check_int (Printf.sprintf "i=%d owner" i) (i mod 4) w)
    owner

(* Contiguous blocks, longer ones first; [parallel_blocks] deals the
   same blocks, and an empty block's worker still gets its call. *)
let pool_block_assignment () =
  let pool = Domain_pool.create 3 in
  let ranges ~lo ~hi =
    let m = Mutex.create () and got = ref [] in
    Domain_pool.parallel_ranges pool ~lo ~hi (fun a b ->
        Mutex.protect m (fun () -> got := (a, b) :: !got));
    List.sort compare !got
  in
  check_bool "10 over 3" true (ranges ~lo:2 ~hi:12 = [ (2, 6); (6, 9); (9, 12) ]);
  check_bool "2 over 3" true (ranges ~lo:0 ~hi:2 = [ (0, 1); (1, 2); (2, 2) ]);
  let owner = Array.make 10 (-1) in
  Domain_pool.parallel_blocks pool ~lo:0 ~hi:10 (fun ~worker i -> owner.(i) <- worker);
  check_bool "blocks dealt as ranges" true (owner = [| 0; 0; 0; 0; 1; 1; 1; 2; 2; 2 |])

let pool_empty_range () =
  let pool = Domain_pool.create 4 in
  Domain_pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "must not run")

let pool_exception_propagates () =
  let pool = Domain_pool.create 2 in
  check_bool "exception surfaces" true
    (try
       Domain_pool.parallel_for pool ~lo:0 ~hi:10 (fun i ->
           if i = 7 then failwith "boom");
       false
     with Failure _ -> true)

let pool_sequential_fallback () =
  let acc = ref 0 in
  Domain_pool.parallel_for Domain_pool.sequential ~lo:0 ~hi:10 (fun i -> acc := !acc + i);
  check_int "sum" 45 !acc

let qcheck_tests =
  [
    qc "percentile within [min,max]"
      QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
      (fun l ->
        let xs = Array.of_list l in
        let p = Stats.percentile xs 37.0 in
        p >= Stats.minimum xs && p <= Stats.maximum xs);
    qc "mean between min and max"
      QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-50.) 50.))
      (fun l ->
        let xs = Array.of_list l in
        let m = Stats.mean xs in
        m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9);
    qc "prng int bound" QCheck.(pair small_int (int_range 1 1000)) (fun (seed, n) ->
        let rng = Prng.create seed in
        let k = Prng.int rng n in
        k >= 0 && k < n);
  ]

let suites =
  [
    ( "util.prng",
      [
        tc "deterministic" prng_deterministic;
        tc "seeds differ" prng_seeds_differ;
        tc "copy" prng_copy_independent;
        tc "uniform in range" prng_uniform_range;
        tc "int in range" prng_int_range;
        tc "uniform mean" prng_mean_reasonable;
        tc "gaussian moments" prng_gaussian_moments;
        tc "shuffle permutes" prng_shuffle_permutes;
        tc "split independent" prng_split_independent;
      ] );
    ( "util.stats",
      [
        tc "mean" stats_mean;
        tc "geomean" stats_geomean;
        tc "stddev" stats_stddev;
        tc "minmax" stats_minmax;
        tc "percentile" stats_percentile;
        tc "percentile pure" stats_percentile_does_not_mutate;
        tc "summary" stats_summary;
      ] );
    ( "util.regress",
      [
        tc "exact linear recovery" regress_exact_linear;
        tc "noisy fit" regress_noisy_r2;
        tc "predict" regress_predict;
        tc "shape errors" regress_shape_errors;
        tc "gaussian elimination" solve_linear_system;
        tc "singular rejected" solve_singular_rejected;
      ] );
    ( "util.render",
      [
        tc "table alignment" table_alignment;
        tc "ragged rows" table_ragged_rows_padded;
        tc "formatters" table_fmt;
        tc "bar chart" chart_bar;
        tc "empty line chart" chart_line_empty;
        tc "line chart points" chart_line_points;
        tc "units seconds" units_seconds;
        tc "units bytes" units_bytes;
      ] );
    ( "util.domain_pool",
      [
        tc "parallel_for covers once" pool_parallel_for_covers;
        tc "round robin covers once" pool_round_robin_covers;
        tc "round robin assignment" pool_round_robin_worker_assignment;
        tc "block assignment" pool_block_assignment;
        tc "empty range" pool_empty_range;
        tc "exception propagates" pool_exception_propagates;
        tc "sequential fallback" pool_sequential_fallback;
      ] );
    ("util.properties", qcheck_tests);
  ]
