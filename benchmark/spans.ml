(* Self time of traced spans.

   The benchmark records its own spans (one timeline, [root_tid]) around
   each public call it makes, and the library records spans inside those
   calls on worker or rank timelines. Spans on one timeline nest by time.
   A span with no parent on its own timeline belongs to the innermost
   root-timeline span that contains it, so work a call hands to pool
   workers counts as that call's children.

   A span's self time is its duration minus the part of its interval its
   children cover. Children running in parallel on different timelines
   are merged as a union of intervals, never summed, so self time stays
   within [0, dur]. *)

type span = { name : string; ts : float; dur : float; tid : int }

let stop s = s.ts +. s.dur
let contains p c = p.ts <= c.ts && stop c <= stop p

(* Parent index of every span, [-1] for top-level spans. *)
let parents ~root_tid (spans : span array) =
  let n = Array.length spans in
  let parent = Array.make n (-1) in
  let by_tid = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let tid = spans.(i).tid in
    Hashtbl.replace by_tid tid
      (i :: Option.value (Hashtbl.find_opt by_tid tid) ~default:[])
  done;
  (* Earlier start first; on a tie the longer span is the outer one. *)
  let order idx =
    List.stable_sort
      (fun i j ->
        match Float.compare spans.(i).ts spans.(j).ts with
        | 0 -> Float.compare spans.(j).dur spans.(i).dur
        | c -> c)
      idx
  in
  let nest idx =
    let stack = ref [] in
    List.iter
      (fun i ->
        let rec pop () =
          match !stack with
          | j :: rest when not (contains spans.(j) spans.(i)) ->
              stack := rest;
              pop ()
          | _ -> ()
        in
        pop ();
        (match !stack with j :: _ -> parent.(i) <- j | [] -> ());
        stack := i :: !stack)
      (order idx)
  in
  Hashtbl.iter (fun _ idx -> nest idx) by_tid;
  let roots =
    Array.of_list (order (Option.value (Hashtbl.find_opt by_tid root_tid) ~default:[]))
  in
  (* Last root span starting at or before [ts]; its ancestors are the only
     root spans that can contain a span starting at [ts]. *)
  let last_root_before ts =
    let lo = ref 0 and hi = ref (Array.length roots) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if spans.(roots.(mid)).ts <= ts then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then -1 else roots.(!lo - 1)
  in
  Array.iteri
    (fun i s ->
      if s.tid <> root_tid && parent.(i) < 0 then begin
        let j = ref (last_root_before s.ts) in
        while !j >= 0 && not (contains spans.(!j) s) do
          j := parent.(!j)
        done;
        parent.(i) <- !j
      end)
    spans;
  parent

(* Total length of a union of intervals. *)
let union_length ivs =
  let ivs = List.sort compare ivs in
  let rec go acc cur_lo cur_hi = function
    | [] -> acc +. (cur_hi -. cur_lo)
    | (lo, hi) :: rest ->
        if lo > cur_hi then go (acc +. (cur_hi -. cur_lo)) lo hi rest
        else go acc cur_lo (Float.max cur_hi hi) rest
  in
  match ivs with [] -> 0.0 | (lo, hi) :: rest -> go 0.0 lo hi rest

let self_times ~root_tid spans =
  let parent = parents ~root_tid spans in
  let children = Array.make (Array.length spans) [] in
  Array.iteri (fun i p -> if p >= 0 then children.(p) <- i :: children.(p)) parent;
  Array.mapi
    (fun i s ->
      let covered =
        union_length
          (List.map
             (fun c -> (Float.max s.ts spans.(c).ts, Float.min (stop s) (stop spans.(c))))
             children.(i))
      in
      Float.max 0.0 (s.dur -. covered))
    spans

type totals = { calls : int; total_s : float; self_s : float }

(* Per-name aggregates of duration and self time. *)
let totals ~root_tid spans =
  let self = self_times ~root_tid spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let t =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace tbl s.name
        { calls = t.calls + 1; total_s = t.total_s +. s.dur; self_s = t.self_s +. self.(i) })
    spans;
  fun name ->
    Option.value (Hashtbl.find_opt tbl name)
      ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
