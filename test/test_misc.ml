(* Coverage for smaller corners: DMA transfer arithmetic, SPM allocation
   listing, loop-nest ordering details, MPI FIFO properties, network-model
   monotonicities, and an end-to-end smoke of the installed CLI binary. *)

open Helpers
module Dma = Msc_sunway.Dma
module Spm = Msc_sunway.Spm
module Mpi = Msc_comm.Mpi_sim
module Netmodel = Msc_comm.Netmodel
module Loopnest = Msc_schedule.Loopnest
module Schedule = Msc_schedule.Schedule

(* --- DMA arithmetic --- *)

let dma_combine_and_scale () =
  let a = { Dma.bytes = 100.0; descriptors = 3 } in
  let b = { Dma.bytes = 50.0; descriptors = 2 } in
  let c = Dma.combine a b in
  check_float "bytes" 150.0 c.Dma.bytes;
  check_int "descriptors" 5 c.Dma.descriptors;
  let s = Dma.scale c 2.5 in
  check_float "scaled bytes" 375.0 s.Dma.bytes;
  check_int "scaled descriptors ceil" 13 s.Dma.descriptors

let dma_no_transfer_free () =
  let e = { Dma.descriptor_latency_s = 1e-6; bandwidth_gbs = 10.0; concurrent_engines = 4 } in
  check_float "zero time" 0.0 (Dma.time e Dma.no_transfer)

(* --- SPM listing --- *)

let spm_allocations_listed () =
  let spm = Spm.create () in
  ignore (Spm.alloc spm ~name:"a" ~bytes:10);
  ignore (Spm.alloc spm ~name:"b" ~bytes:20);
  Alcotest.(check (list (pair string int)))
    "insertion order"
    [ ("a", 10); ("b", 20) ]
    (Spm.allocations spm)

(* --- Loop-nest ordering --- *)

let loopnest_transposed_not_contiguous () =
  let k, _ = stencil_3d7pt ~n:16 () in
  let sched =
    Schedule.reorder
      (Schedule.tile Schedule.empty [| 2; 4; 8 |])
      [ "zo"; "yo"; "xo"; "zi"; "yi"; "xi" ]
  in
  let nest = Loopnest.lower_exn k sched in
  (* Innermost is xi = dimension 0, not the contiguous dimension 2. *)
  check_bool "not contiguous" false (Loopnest.innermost_contiguous nest)

let loopnest_pp_smoke () =
  let k, _ = stencil_3d7pt ~n:16 () in
  let nest = Loopnest.lower_exn k (Schedule.sunway_canonical ~tile:[| 2; 4; 8 |] k) in
  let s = Format.asprintf "%a" Loopnest.pp nest in
  check_bool "mentions dma" true (String.length s > 50)

(* --- MPI FIFO property --- *)

let mpi_fifo_property =
  qc ~count:50 "per-channel FIFO under interleaving"
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 0 2) small_nat))
    (fun sends ->
      let mpi = Mpi.create ~nranks:4 () in
      (* Send payload i on channel (tag t), each send through a freshly
         resolved endpoint; receive everything and check each channel's
         order. *)
      List.iteri
        (fun i (tag, _) ->
          Mpi.port_send
            (Mpi.send_port mpi ~src:0 ~dst:1 ~tag)
            (Bytes.of_string (string_of_int i)))
        sends;
      let per_tag = Hashtbl.create 4 in
      List.iteri (fun i (tag, _) -> Hashtbl.add per_tag tag i) sends;
      let ok = ref true in
      List.iter
        (fun tag ->
          let expected = List.rev (Hashtbl.find_all per_tag tag) in
          let slot = Mpi.recv_slot mpi ~dst:1 ~src:0 ~tag in
          List.iter
            (fun i ->
              let got = Bytes.to_string (Mpi.slot_wait slot) in
              if got <> string_of_int i then ok := false)
            expected)
        [ 0; 1; 2 ];
      !ok && Mpi.pending_messages mpi = 0)

(* --- Network model monotonicities --- *)

let netmodel_monotone_in_messages () =
  List.iter
    (fun net ->
      let t k =
        Netmodel.exchange_time net ~nranks:64 ~messages_per_rank:k
          ~bytes_per_message:1e4
      in
      check_bool (net.Netmodel.name ^ " monotone") true (t 8 > t 2))
    [ Netmodel.sunway_taihulight; Netmodel.tianhe3_prototype; Netmodel.shared_memory ]

let netmodel_master_scales_with_ranks () =
  let t n =
    Netmodel.master_coordinated_time Netmodel.shared_memory ~nranks:n
      ~messages_per_rank:4 ~bytes_per_message:1e4
  in
  check_bool "4x ranks -> 4x time" true (Float.abs ((t 28 /. t 7) -. 4.0) < 1e-6)

(* --- Machine pretty-printers --- *)

let pp_smoke () =
  let b = Msc_benchsuite.Suite.find "3d7pt_star" in
  let st = Msc_benchsuite.Suite.stencil b in
  let ssched = Msc_benchsuite.Settings.sunway_schedule b st in
  (match Msc_sunway.Sim.simulate st ssched with
  | Ok r ->
      check_bool "sunway report prints" true
        (String.length (Format.asprintf "%a" Msc_sunway.Sim.pp_report r) > 20)
  | Error m -> Alcotest.fail m);
  let msched = Msc_benchsuite.Settings.matrix_schedule b st in
  match Msc_matrix.Sim.simulate st msched with
  | Ok r ->
      check_bool "matrix report prints" true
        (String.length (Format.asprintf "%a" Msc_matrix.Sim.pp_report r) > 20)
  | Error m -> Alcotest.fail m

(* --- CLI binary smoke --- *)

(* The CLI at ../bin/msc_cli.exe from this test binary's directory in the
   build tree (the test stanza depends on it), so the test runs from any
   working directory. *)
let cli_path =
  let exe = Sys.executable_name in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  Filename.concat (Filename.dirname exe)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "msc_cli.exe"))

let run_cli args =
  let tmp = Filename.temp_file "msc_cli" ".out" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli_path) args (Filename.quote tmp))
  in
  let ic = open_in tmp in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  (rc, out)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.equal (String.sub haystack i n) needle || scan (i + 1)) in
  scan 0

let cli_smoke () =
  if not (Sys.file_exists cli_path) then Alcotest.failf "no CLI binary at %s" cli_path
  else begin
    let rc, out = run_cli "list" in
    check_int "list exits 0" 0 rc;
    check_bool "lists benchmarks" true (contains ~needle:"3d7pt_star" out);
    let rc, out = run_cli "simulate -b 2d169pt_box -p sunway" in
    check_int "simulate exits 0" 0 rc;
    check_bool "compute bound" true (contains ~needle:"compute-bound" out);
    let rc, out = run_cli "experiment table4" in
    check_int "experiment exits 0" 0 rc;
    check_bool "prints table" true (contains ~needle:"2d121pt_box" out);
    let rc, _ = run_cli "experiment nonsense" in
    check_bool "unknown experiment fails" true (rc <> 0);
    (* verify checks the backend it is given, and names the one that ran. *)
    let rc, out = run_cli "verify -b 3d13pt_star --backend compiled_c" in
    check_int "verify exits 0" 0 rc;
    let cc =
      Sys.command "command -v cc > /dev/null 2>&1 || command -v gcc > /dev/null 2>&1"
      = 0
    in
    check_bool "verify names the backend that ran" true
      (contains ~needle:(if cc then "on compiled_c" else "on interp") out);
    (* A positional benchmark runs as -b does; a pipeline stays a pipeline. *)
    let rc, out = run_cli "verify 2d9pt_star --backend compiled_c" in
    check_int "verify NAME exits 0" 0 rc;
    check_bool "verify NAME runs the benchmark" true
      (contains
         ~needle:("2d9pt_star: 5 steps on " ^ if cc then "compiled_c" else "interp")
         out);
    let rc, _ = run_cli "verify 2d9pt" in
    check_bool "ambiguous NAME fails" true (rc <> 0);
    (* A temporal depth below 1 is rejected with an error naming it. *)
    let rc, out = run_cli "solve --dims 8x8 --depth 0" in
    check_bool "solve --depth 0 fails" true (rc <> 0);
    check_bool "the error names the depth" true (contains ~needle:"depth 0" out)
  end

let suites =
  [
    ( "misc.dma_spm",
      [
        tc "combine/scale" dma_combine_and_scale;
        tc "no transfer" dma_no_transfer_free;
        tc "spm allocations" spm_allocations_listed;
      ] );
    ( "misc.loopnest",
      [
        tc "transposed order" loopnest_transposed_not_contiguous;
        tc "pp" loopnest_pp_smoke;
      ] );
    ("misc.mpi_props", [ mpi_fifo_property ]);
    ( "misc.netmodel",
      [
        tc "monotone in messages" netmodel_monotone_in_messages;
        tc "master linear in ranks" netmodel_master_scales_with_ranks;
      ] );
    ("misc.pp", [ tc "sim reports" pp_smoke ]);
    ("misc.cli", [ slow "binary smoke" cli_smoke ]);
  ]
