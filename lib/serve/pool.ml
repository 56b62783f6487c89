type config = {
  workers : int;
  queue_capacity : int;
  degraded_crash_threshold : int;
  degraded_window_s : float;
  degraded_cooldown_s : float;
}

type stats = {
  queue_depth : int;
  inflight : int;
  submitted : int;
  completed : int;
  shed : int;
  crashes : int;
  respawns : int;
  degraded_entries : int;
  degraded_now : bool;
  workers : int;
}

type worker_slot = {
  slot_id : int;
  mutable domain : unit Domain.t option;
  mutable consecutive_crashes : int;
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  work_ready : Condition.t;  (* queue gained a job, or stopping *)
  idle : Condition.t;  (* a job finished, or the queue emptied *)
  crashed : Condition.t;  (* a worker died; wakes the supervisor *)
  queue : (unit -> unit) Queue.t;
  slots : worker_slot array;
  dead : int Queue.t;  (* slot ids awaiting respawn *)
  mutable accepting : bool;
  mutable stopping : bool;
  mutable inflight : int;
  mutable submitted : int;
  mutable completed : int;
  mutable shed : int;
  mutable crashes : int;
  mutable respawns : int;
  mutable degraded_entries : int;
  mutable degraded_until : float;  (* degraded while now < this *)
  mutable crash_times : float list;  (* recent, newest first *)
  mutable supervisor : Thread.t option;
}

(* Call with t.mutex held. *)
let degraded_locked t = Clock.now () < t.degraded_until

let record_crash_locked t =
  let t_now = Clock.now () in
  t.crashes <- t.crashes + 1;
  t.crash_times <-
    t_now
    :: List.filter (fun ts -> t_now -. ts <= t.cfg.degraded_window_s)
         t.crash_times;
  if
    List.length t.crash_times >= t.cfg.degraded_crash_threshold
    && not (degraded_locked t)
  then begin
    t.degraded_entries <- t.degraded_entries + 1;
    t.degraded_until <- t_now +. t.cfg.degraded_cooldown_s
  end

let rec worker_loop t slot =
  let job =
    Mutex.protect t.mutex (fun () ->
        while Queue.is_empty t.queue && not t.stopping do
          Condition.wait t.work_ready t.mutex
        done;
        if Queue.is_empty t.queue then None
        else begin
          t.inflight <- t.inflight + 1;
          Some (Queue.pop t.queue)
        end)
  in
  match job with
  | None -> ()  (* stopping *)
  | Some job ->
    let finish () =
      Mutex.protect t.mutex (fun () ->
          t.inflight <- t.inflight - 1;
          t.completed <- t.completed + 1;
          Condition.broadcast t.idle)
    in
    (try job ()
     with exn ->
       (* Worker-fatal: account the aborted job, mark this slot dead and
          let the supervisor respawn it. *)
       finish ();
       Mutex.protect t.mutex (fun () ->
           record_crash_locked t;
           Queue.push slot.slot_id t.dead;
           Condition.broadcast t.crashed);
       raise exn);
    slot.consecutive_crashes <- 0;
    finish ();
    worker_loop t slot

let spawn_worker t slot =
  slot.domain <-
    Some
      (Domain.spawn (fun () -> try worker_loop t slot with _ -> ()))

let supervisor_loop t =
  let rec next () =
    let dead_slot =
      Mutex.protect t.mutex (fun () ->
          while Queue.is_empty t.dead && not t.stopping do
            Condition.wait t.crashed t.mutex
          done;
          if Queue.is_empty t.dead then None else Some (Queue.pop t.dead))
    in
    match dead_slot with
    | None -> ()
    | Some id ->
      let slot = t.slots.(id) in
      (match slot.domain with
       | Some d -> Domain.join d
       | None -> ());
      slot.domain <- None;
      (* Deterministic exponential backoff keyed by this worker's
         consecutive crash count — a crash storm cannot hot-loop the
         respawn path. *)
      Unix.sleepf (Retry.backoff_s ~attempt:slot.consecutive_crashes);
      slot.consecutive_crashes <- slot.consecutive_crashes + 1;
      let stop = Mutex.protect t.mutex (fun () -> t.stopping) in
      if not stop then begin
        spawn_worker t slot;
        Mutex.protect t.mutex (fun () -> t.respawns <- t.respawns + 1)
      end;
      next ()
  in
  next ()

let create (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Pool.create: workers < 1";
  if cfg.queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity < 1";
  let t =
    {
      cfg;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      idle = Condition.create ();
      crashed = Condition.create ();
      queue = Queue.create ();
      slots =
        Array.init cfg.workers (fun slot_id ->
            { slot_id; domain = None; consecutive_crashes = 0 });
      dead = Queue.create ();
      accepting = true;
      stopping = false;
      inflight = 0;
      submitted = 0;
      completed = 0;
      shed = 0;
      crashes = 0;
      respawns = 0;
      degraded_entries = 0;
      degraded_until = neg_infinity;
      crash_times = [];
      supervisor = None;
    }
  in
  Array.iter (fun slot -> spawn_worker t slot) t.slots;
  t.supervisor <- Some (Thread.create supervisor_loop t);
  t

let submit t ~heavy job =
  Mutex.protect t.mutex (fun () ->
      if not t.accepting then begin
        t.shed <- t.shed + 1;
        Error (Fault.overload "server is draining for shutdown")
      end
      else if heavy && degraded_locked t then begin
        t.shed <- t.shed + 1;
        Error
          (Fault.overload
             "degraded mode: batch requests shed, point queries still served")
      end
      else if Queue.length t.queue >= t.cfg.queue_capacity then begin
        t.shed <- t.shed + 1;
        Error
          (Fault.overload
             (Printf.sprintf "admission queue full (%d pending)"
                (Queue.length t.queue)))
      end
      else begin
        t.submitted <- t.submitted + 1;
        Queue.push job t.queue;
        Condition.signal t.work_ready;
        Ok ()
      end)

let degraded t = Mutex.protect t.mutex (fun () -> degraded_locked t)

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        queue_depth = Queue.length t.queue;
        inflight = t.inflight;
        submitted = t.submitted;
        completed = t.completed;
        shed = t.shed;
        crashes = t.crashes;
        respawns = t.respawns;
        degraded_entries = t.degraded_entries;
        degraded_now = degraded_locked t;
        workers = t.cfg.workers;
      })

let drain t ~timeout_s =
  let deadline = Clock.now () +. timeout_s in
  Mutex.protect t.mutex (fun () ->
      t.accepting <- false;
      let rec wait () =
        if Queue.is_empty t.queue && t.inflight = 0 then true
        else if Clock.now () >= deadline then false
        else begin
          (* Condition.wait has no timeout; poll at a coarse grain so a
             stuck in-flight job cannot hang shutdown forever. *)
          Mutex.unlock t.mutex;
          Thread.delay 0.01;
          Mutex.lock t.mutex;
          wait ()
        end
      in
      wait ())

let shutdown t =
  ignore (drain t ~timeout_s:5.0);
  Mutex.protect t.mutex (fun () ->
      t.stopping <- true;
      Condition.broadcast t.work_ready;
      Condition.broadcast t.crashed);
  Array.iter
    (fun slot ->
      match slot.domain with
      | Some d ->
        Domain.join d;
        slot.domain <- None
      | None -> ())
    t.slots;
  match t.supervisor with
  | Some th ->
    Thread.join th;
    t.supervisor <- None
  | None -> ()
