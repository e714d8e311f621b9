(* Persistent worker pool.

   Workers are spawned once (lazily, at the first parallel region) and then
   parked on a condition variable between dispatches, so a long run of
   timesteps pays Domain.spawn exactly [workers - 1] times instead of once
   per step. Dispatch hands every worker the same per-worker closure tagged
   with a monotonically increasing epoch; workers run their share, decrement
   [pending], and park again. The caller's domain always executes worker 0's
   share itself, so a dispatch costs one broadcast plus one wait, never a
   spawn/join. *)

type state = {
  mutex : Mutex.t;
  work_ready : Condition.t;  (* workers park here between dispatches *)
  work_done : Condition.t;  (* the dispatcher waits here for [pending = 0] *)
  mutable job : (int -> unit) option;  (* the current epoch's per-worker task *)
  mutable epoch : int;
  mutable pending : int;  (* helpers not yet finished with the current epoch *)
  mutable stop : bool;
}

type t = {
  workers : int;
  state : state;
  failure : exn option Atomic.t;  (* first exception of the current epoch *)
  mutable domains : unit Domain.t list;  (* live helper domains *)
  mutable spawn_total : int;  (* Domain.spawn calls over the pool's lifetime *)
}

let hard_limit = 128

let make_state () =
  {
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    job = None;
    epoch = 0;
    pending = 0;
    stop = false;
  }

let create n =
  (* Oversubscription past the recommended count is allowed (correctness
     tests exercise multi-domain paths even on single-CPU hosts); the hard
     limit guards the runtime's domain cap. *)
  {
    workers = max 1 (min n hard_limit);
    state = make_state ();
    failure = Atomic.make None;
    domains = [];
    spawn_total = 0;
  }

let size t = t.workers
let spawn_total t = t.spawn_total
let sequential = create 1

let record_failure t exn =
  ignore (Atomic.compare_and_set t.failure None (Some exn))

(* A helper domain's life: park until the epoch advances (or [stop]), run the
   job, report completion, park again. The job itself runs outside the lock. *)
let worker_loop t w =
  let st = t.state in
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock st.mutex;
    while (not st.stop) && st.epoch = !seen do
      Condition.wait st.work_ready st.mutex
    done;
    if st.stop then begin
      Mutex.unlock st.mutex;
      running := false
    end
    else begin
      seen := st.epoch;
      let job = match st.job with Some j -> j | None -> fun _ -> () in
      Mutex.unlock st.mutex;
      (try job w with exn -> record_failure t exn);
      Mutex.lock st.mutex;
      st.pending <- st.pending - 1;
      if st.pending = 0 then Condition.broadcast st.work_done;
      Mutex.unlock st.mutex
    end
  done

let shutdown t =
  if t.domains <> [] then begin
    let st = t.state in
    Mutex.lock st.mutex;
    st.stop <- true;
    Condition.broadcast st.work_ready;
    Mutex.unlock st.mutex;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* Reset so a post-shutdown dispatch can respawn (counted in
       [spawn_total]). *)
    st.stop <- false
  end

let ensure_spawned t =
  if t.domains = [] && t.workers > 1 then begin
    t.domains <-
      List.init (t.workers - 1) (fun k -> Domain.spawn (fun () -> worker_loop t (k + 1)));
    t.spawn_total <- t.spawn_total + (t.workers - 1);
    (* Parked helpers must not outlive a dropped pool: without this backstop
       every abandoned pool would pin its domains against the runtime's
       domain cap for the life of the process. Workers are woken and joined,
       which is fast because they are parked, not computing. *)
    Gc.finalise shutdown t
  end

let run_workers ?on_worker t per_worker =
  let per_worker =
    match on_worker with
    | None -> per_worker
    | Some hook ->
        fun w ->
          hook w;
          per_worker w
  in
  if t.workers = 1 then per_worker 0
  else begin
    ensure_spawned t;
    let st = t.state in
    Mutex.lock st.mutex;
    st.job <- Some per_worker;
    st.epoch <- st.epoch + 1;
    st.pending <- t.workers - 1;
    Condition.broadcast st.work_ready;
    Mutex.unlock st.mutex;
    (* The dispatcher doubles as worker 0; its exception must not skip the
       completion wait, or the next dispatch would race the helpers. *)
    (try per_worker 0 with exn -> record_failure t exn);
    Mutex.lock st.mutex;
    while st.pending > 0 do
      Condition.wait st.work_done st.mutex
    done;
    st.job <- None;
    Mutex.unlock st.mutex;
    match Atomic.get t.failure with
    | None -> ()
    | Some exn ->
        Atomic.set t.failure None;
        raise exn
  end

(* The module's one contiguous split: worker [w] owns [[range_start w,
   range_start (w + 1))]; block sizes differ by at most one, the longer
   blocks first (the dispatching worker 0 starts before its helpers
   wake). *)
let range_start t ~lo ~hi w =
  let n = max 0 (hi - lo) in
  lo + (w * (n / t.workers)) + min w (n mod t.workers)

let parallel_blocks ?on_worker t ~lo ~hi body =
  if hi <= lo then ()
  else if t.workers = 1 && Option.is_none on_worker then
    for i = lo to hi - 1 do
      body ~worker:0 i
    done
  else
    run_workers ?on_worker t (fun w ->
        for i = range_start t ~lo ~hi w to range_start t ~lo ~hi (w + 1) - 1 do
          body ~worker:w i
        done)

let parallel_for ?on_worker t ~lo ~hi body =
  parallel_blocks ?on_worker t ~lo ~hi (fun ~worker:_ i -> body i)

let parallel_ranges t ~lo ~hi body =
  run_workers t (fun w -> body (range_start t ~lo ~hi w) (range_start t ~lo ~hi (w + 1)))

let parallel_chunks ?on_worker t ~lo ~hi body =
  if hi <= lo then ()
  else begin
    let per_worker w =
      let i = ref (lo + w) in
      while !i < hi do
        body ~worker:w !i;
        i := !i + t.workers
      done
    in
    run_workers ?on_worker t per_worker
  end
