(* The repository benchmark. See README.md in this directory.

   The parent process runs each workload in a child process of its own
   (this executable again, with --child), one at a time, each with a fresh
   empty kernel cache and temp directory under .bench-work/ that is removed
   when the child ends. Traced runs also start a STREAM-triad child, so its
   arrays never count toward a workload's peak memory. *)

module Json = Msc_bench.Json

let usage =
  {|usage:
  main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
      Run one workload (default: all four) and print its metrics as one
      JSON object on the last line of standard output. --trace 1 prints the
      per-layer metrics instead of the end-to-end ones.
  main.exe --smoke
      All four workloads at tiny sizes, both metric sets.
  main.exe --compare A B
      Relative difference of every metric between two saved outputs; exits 1
      when an end-to-end metric is worse than its bound in BENCHMARK.json.
workloads: stream3d suite_cold halo_2d pipeline_img|}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Files and processes *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let work_root = ".bench-work"

(* A fresh directory for one child, removed (with [work_root] when empty)
   after [f] returns or raises. *)
let with_workdir name f =
  let dir =
    Filename.concat (Sys.getcwd ())
      (Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())))
  in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let running_child = ref None

(* Run this executable with [args] and extra environment, waiting at most
   until [deadline]; a child still running then is killed. *)
let run_child ~deadline ~env args =
  let inherited =
    Array.of_list
      (List.filter
         (fun kv ->
           not
             (List.exists
                (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") kv)
                env))
         (Array.to_list (Unix.environment ())))
  in
  let env = Array.append (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env)) inherited in
  let pid =
    Unix.create_process_env Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      env Unix.stdin Unix.stderr Unix.stderr
  in
  running_child := Some pid;
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Printf.eprintf "child %s timed out\n%!" (String.concat " " args);
          1
        end
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 1
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let code = wait () in
  running_child := None;
  code

(* Stop the running child before going down on SIGINT/SIGTERM. *)
let install_signal_handlers () =
  let handler _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !running_child;
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)

(* ------------------------------------------------------------------ *)
(* Results *)

type result = {
  attempted : int;
  failed : int;
  metrics : Workloads.metric list;
}

(* Child → parent: one line per fact, floats in hex so no digit is lost. *)
let write_result path (r : result) =
  let oc = open_out path in
  Printf.fprintf oc "attempted %d\nfailed %d\n" r.attempted r.failed;
  List.iter
    (fun (x : Workloads.metric) -> Printf.fprintf oc "metric %s %s %h\n" x.name x.unit x.value)
    r.metrics;
  close_out oc

let read_result path =
  let lines = try Probe.read_lines path with Sys_error _ -> [] in
  List.fold_left
    (fun r line ->
      match String.split_on_char ' ' line with
      | [ "attempted"; n ] -> { r with attempted = int_of_string n }
      | [ "failed"; n ] -> { r with failed = int_of_string n }
      | [ "metric"; name; unit; v ] ->
          { r with metrics = r.metrics @ [ { Workloads.name; unit; value = float_of_string v } ] }
      | _ -> r)
    { attempted = 0; failed = 0; metrics = [] }
    lines

let correct r =
  r.failed = 0 && r.attempted > 0
  && List.for_all (fun (x : Workloads.metric) -> Float.is_finite x.value) r.metrics

let json_line r =
  let metrics =
    List.map
      (fun (x : Workloads.metric) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote x.name)
          (Json.number x.value) (Json.quote x.unit))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed (String.concat ", " metrics)

let print_table title r =
  Printf.eprintf "\n== %s: %s, %d ops attempted, %d failed\n" title
    (if correct r then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter
    (fun (x : Workloads.metric) ->
      Printf.eprintf "  %-36s %16.6g %s\n" x.name x.value x.unit)
    r.metrics;
  flush stderr

(* ------------------------------------------------------------------ *)
(* Parent *)

(* Everything a run must finish within, child processes included. *)
let run_budget_s = 170.0

type mode = { seed : int; seconds : float; trace : bool; smoke : bool }

let triad_gbs ~smoke ~deadline =
  let mib =
    if smoke then 16
    else
      match Probe.llc_bytes () with
      | Some b -> (4 * b + (1 lsl 20) - 1) lsr 20
      | None -> 512
  in
  with_workdir "triad" (fun dir ->
      let out = Filename.concat dir "result" in
      let code = run_child ~deadline ~env:[] [ "--triad"; "--mib"; string_of_int mib; "--out"; out ] in
      match Probe.read_lines out with
      | [ v ] when code = 0 -> float_of_string v
      | _ -> nan)

let run_workload ~deadline (md : mode) name =
  let r =
    with_workdir name (fun dir ->
        let tmp = Filename.concat dir "tmp" and out = Filename.concat dir "result" in
        mkdir_p tmp;
        let code =
          run_child ~deadline
            ~env:[ ("MSC_KERNEL_CACHE", Filename.concat dir "kernels"); ("TMPDIR", tmp) ]
            ([ "--child"; name; "--seed"; string_of_int md.seed;
               "--seconds"; Printf.sprintf "%h" md.seconds;
               "--trace"; (if md.trace then "1" else "0"); "--out"; out ]
            @ if md.smoke then [ "--smoke" ] else [])
        in
        let r = read_result out in
        if code = 0 then r else { r with failed = r.failed + 1; attempted = r.attempted + 1 })
  in
  if not md.trace then r
  else
    let gbs = triad_gbs ~smoke:md.smoke ~deadline in
    let computed =
      List.find_map
        (fun (x : Workloads.metric) ->
          if x.name = "sweep.computed_gbs" then Some x.value else None)
        r.metrics
      |> Option.value ~default:nan
    in
    {
      r with
      metrics =
        r.metrics
        @ [
            { Workloads.name = "host.triad_gbs"; unit = "GB/s"; value = gbs };
            { name = "sweep.bw_fraction"; unit = "frac"; value = computed /. gbs };
          ];
    }

let run_parent (md : mode) workloads =
  install_signal_handlers ();
  let deadline = Unix.gettimeofday () +. run_budget_s in
  let results =
    List.map
      (fun name ->
        let r = run_workload ~deadline md name in
        print_table name r;
        (name, r))
      workloads
  in
  let final =
    match results with
    | [ (_, r) ] -> r
    | _ ->
        List.fold_left
          (fun acc (name, r) ->
            {
              attempted = acc.attempted + r.attempted;
              failed = acc.failed + r.failed;
              metrics =
                acc.metrics
                @ List.map
                    (fun (x : Workloads.metric) -> { x with name = name ^ "/" ^ x.name })
                    r.metrics;
            })
          { attempted = 0; failed = 0; metrics = [] }
          results
  in
  print_endline (json_line final);
  if not (correct final) then exit 1

(* ------------------------------------------------------------------ *)
(* Child modes *)

(* Writes the end-to-end metrics, or the per-layer ones when traced, or
   both for a smoke run. The parent set MSC_KERNEL_CACHE to a fresh
   directory this child owns. *)
let run_child_workload (md : mode) ~out name =
  let pool = Msc.Domain_pool.create (min 2 (Domain.recommended_domain_count ())) in
  let config = Msc.Exec.Config.make ~backend:Msc.Backend.Compiled_c ~pool () in
  let o =
    {
      Workloads.seed = md.seed;
      seconds = md.seconds;
      trace = md.trace;
      smoke = md.smoke;
      cache_root = Msc.Jit.cache_dir ();
    }
  in
  let result () =
    { attempted = !Workloads.attempted; failed = !Workloads.failed; metrics = [] }
  in
  match
    Fun.protect
      ~finally:(fun () -> Msc.Domain_pool.shutdown pool)
      (fun () -> Workloads.run o (Workloads.find ~config o name))
  with
  | e2e, layers ->
      let metrics = if md.smoke then e2e @ layers else if md.trace then layers else e2e in
      let r = { (result ()) with metrics } in
      write_result out r;
      if not (correct r) then exit 1
  | exception e ->
      Printf.eprintf "%s failed: %s\n%!" name (Printexc.to_string e);
      let r = result () in
      write_result out { r with attempted = r.attempted + 1; failed = r.failed + 1 };
      exit 1

let run_triad ~mib ~out =
  let workers = min 2 (Domain.recommended_domain_count ()) in
  let gbs = Probe.triad_gbs ~workers ~bytes_per_array:(mib lsl 20) ~reps:5 in
  let oc = open_out out in
  Printf.fprintf oc "%h\n" gbs;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Compare *)

let load_result path =
  let lines = List.filter (fun l -> String.trim l <> "") (Probe.read_lines path) in
  match List.rev lines with
  | [] -> die "%s: empty" path
  | last :: _ -> (
      match Json.parse last with
      | j ->
          List.filter_map
            (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float (Json.member "value" v)))
            (Json.to_assoc (Json.member "metrics" j))
      | exception Json.Parse_error msg -> die "%s: %s" path msg)

(* (better, bound) of each end-to-end metric, from BENCHMARK.json. *)
let bounds () =
  match Json.parse (String.concat "\n" (Probe.read_lines "BENCHMARK.json")) with
  | j ->
      List.filter_map
        (fun e ->
          match
            ( Json.to_string (Json.member "name" e),
              Json.to_string (Json.member "better" e),
              Json.to_float (Json.member "bound" e) )
          with
          | Some n, Some better, Some bound -> Some (n, (better, bound))
          | _ -> None)
        (Json.to_list (Json.member "end_to_end" j))
  | exception Json.Parse_error _ -> []

let compare a b =
  let ra = load_result a and rb = load_result b and bounds = bounds () in
  let base name =
    match String.rindex_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let flagged = ref 0 in
  Printf.printf "%-48s %16s %16s %9s\n" "metric" "A" "B" "B/A-1";
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name rb with
      | None -> Printf.printf "%-48s %16.6g %16s\n" name va "missing"
      | Some vb ->
          let rel = if va = vb then 0.0 else (vb -. va) /. Float.abs va in
          let flag =
            match List.assoc_opt (base name) bounds with
            | Some ("lower", bound) when rel > bound -> "  WORSE THAN BOUND"
            | Some ("higher", bound) when rel < -.bound -> "  WORSE THAN BOUND"
            | _ -> ""
          in
          if flag <> "" then incr flagged;
          Printf.printf "%-48s %16.6g %16.6g %+8.2f%%%s\n" name va vb (100.0 *. rel) flag)
    ra;
  List.iter
    (fun (name, vb) ->
      if not (List.mem_assoc name ra) then Printf.printf "%-48s %16s %16.6g\n" name "missing" vb)
    rb;
  if !flagged > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Arguments *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let md = ref { seed = 1; seconds = 12.0; trace = false; smoke = false } in
  let workload = ref None and child = ref None and out = ref "" in
  let triad = ref false and mib = ref 0 and cmp = ref None in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" flag v
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> md := { !md with seed = int_arg "--seed" v }; parse rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> md := { !md with seconds = s }; parse rest
        | _ -> die "--seconds: not a positive number: %s" v)
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> md := { !md with trace = false }; parse rest
        | "1" -> md := { !md with trace = true }; parse rest
        | _ -> die "--trace takes 0 or 1, not %s" v)
    | "--smoke" :: rest -> md := { !md with smoke = true; trace = true; seconds = 0.2 }; parse rest
    | "--compare" :: a :: b :: rest -> cmp := Some (a, b); parse rest
    | "--child" :: v :: rest -> child := Some v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--triad" :: rest -> triad := true; parse rest
    | "--mib" :: v :: rest -> mib := int_arg "--mib" v; parse rest
    | ("-h" | "--help") :: _ -> print_endline usage; exit 0
    | a :: _ -> die "unknown argument %s\n%s" a usage
  in
  parse args;
  let md = !md in
  match (!cmp, !child, !triad) with
  | Some (a, b), _, _ -> compare a b
  | None, Some name, _ -> run_child_workload md ~out:!out name
  | None, None, true -> run_triad ~mib:!mib ~out:!out
  | None, None, false -> (
      match !workload with
      | Some w when List.mem w Workloads.names -> run_parent md [ w ]
      | Some w -> die "unknown workload %s\n%s" w usage
      | None -> run_parent md Workloads.names)
