module M = Bunshin_machine.Machine
module Nxe = Bunshin_nxe.Nxe
module Server = Bunshin_workloads.Server
module Tel = Bunshin_telemetry.Telemetry
module Faults = Bunshin_faults.Faults
module Trace = Bunshin_program.Trace
module Rng = Bunshin_util.Rng
module Stats = Bunshin_util.Stats

(* ------------------------------------------------------------------ *)
(* Request sources *)

type source = {
  src_names : string list;
  src_request : req_id:int -> Trace.t list;
}

let server_source ?(n = 3) kind ~file_kb ~connections =
  if n < 1 then invalid_arg "Serve.server_source: n must be >= 1";
  if connections < 1 then invalid_arg "Serve.server_source: connections must be >= 1";
  let names = List.init n (fun i -> Printf.sprintf "%s/v%d" (Server.kind_name kind) i) in
  (* One stream per group: the request's wire gap is the single-stream
     one, not [make]'s shared-link gap — fan-in is the pool's job. *)
  let idle = Server.network_gap_us ~file_kb in
  {
    src_names = names;
    src_request =
      (fun ~req_id ->
        let ops = Server.request_ops kind ~file_kb ~connections ~idle ~req_id in
        List.init n (fun _ -> ops));
  }

let rec scale_ops f ops =
  List.map
    (fun op ->
      match op with
      | Trace.Work { func; cost } -> Trace.Work { func; cost = cost *. f }
      | Trace.Idle d -> Trace.Idle (d *. f)
      | Trace.Spawn t -> Trace.Spawn (scale_ops f t)
      | Trace.Fork t -> Trace.Fork (scale_ops f t)
      | op -> op)
    ops

let jittered ?(jitter = 0.3) ~seed src =
  if not (jitter >= 0.0 && jitter < 1.0) then
    invalid_arg "Serve.jittered: jitter must be in [0, 1)";
  {
    src with
    src_request =
      (fun ~req_id ->
        (* Per-request factor from a request-keyed stream: deterministic
           in req_id alone, so a solo replay sees the same scaling. *)
        let rng = Rng.create (seed + ((req_id + 1) * 2654435761)) in
        let f = Rng.float_in rng (1.0 -. jitter) (1.0 +. jitter) in
        List.map (scale_ops f) (src.src_request ~req_id));
  }

(* ------------------------------------------------------------------ *)
(* Configuration *)

type config = {
  pool_capacity : int;
  queue_capacity : int;
  batch : int;
  retire_idle_us : float;
  nxe : Nxe.config;
  seed : int;
  slo : Tel.Slo.target;
  keep_reports : bool;
  fault_plan : (int -> Faults.plan option) option;
}

let default_config =
  {
    pool_capacity = 8;
    queue_capacity = 64;
    batch = 4;
    retire_idle_us = 10_000.0;
    nxe = Nxe.selective;
    seed = 42;
    slo = { Tel.Slo.slo_quantile = 99.0; slo_limit_us = 500.0 };
    keep_reports = false;
    fault_plan = None;
  }

let validate cfg ~offered_rps ~requests =
  if cfg.pool_capacity < 1 then invalid_arg "Serve.run: pool_capacity must be >= 1";
  if cfg.queue_capacity < 1 then invalid_arg "Serve.run: queue_capacity must be >= 1";
  if cfg.batch < 1 then invalid_arg "Serve.run: batch must be >= 1";
  if not (cfg.retire_idle_us >= 0.0 && Float.is_finite cfg.retire_idle_us) then
    invalid_arg "Serve.run: retire_idle_us must be finite and >= 0";
  if not (offered_rps > 0.0 && Float.is_finite offered_rps) then
    invalid_arg "Serve.run: offered_rps must be finite and > 0";
  if requests < 1 then invalid_arg "Serve.run: requests must be >= 1";
  if not (cfg.slo.Tel.Slo.slo_quantile > 0.0 && cfg.slo.Tel.Slo.slo_quantile < 100.0) then
    invalid_arg "Serve.run: slo_quantile must be in (0, 100)"

(* ------------------------------------------------------------------ *)
(* Outcomes and report *)

type outcome =
  | Completed of { rq_arrival : float; rq_start : float; rq_finish : float; rq_group : int }
  | Rejected of { rq_arrival : float }
  | Faulted of { rq_arrival : float; rq_start : float; rq_finish : float; rq_group : int }

type report = {
  sv_offered_rps : float;
  sv_requests : int;
  sv_completed : int;
  sv_rejected : int;
  sv_faulted : int;
  sv_makespan : float;
  sv_throughput_rps : float;
  sv_rejection_rate : float;
  sv_p50 : float;
  sv_p95 : float;
  sv_p99 : float;
  sv_p999 : float;
  sv_live_p99 : float;
  sv_breach_fraction : float;
  sv_burn_rate : float;
  sv_mean_service_us : float;
  sv_groups_spawned : int;
  sv_groups_retired : int;
  sv_peak_groups : int;
  sv_poll_wakeups : int;
  sv_poll_events : int;
  sv_outcomes : outcome array;
  sv_reports : (int * Nxe.report) list;
}

let group_run cfg src ~req_id =
  let traces = src.src_request ~req_id in
  let faults = match cfg.fault_plan with Some f -> f req_id | None -> None in
  Nxe.run_traces ~config:cfg.nxe ?faults ~names:src.src_names traces

let solo_report ?(config = default_config) src ~req_id = group_run config src ~req_id

(* ------------------------------------------------------------------ *)
(* The pool *)

(* One pool slot: the record belongs to its worker fiber for its whole
   life.  Retirement clears the slot but leaves the record with the old
   fiber (g_retiring set), so a later respawn into the same slot gets a
   fresh record and cannot race the dying fiber. *)
type group = {
  g_slot : int;
  mutable g_tid : M.tid option;
  mutable g_retiring : bool;
  g_batch : int array;
  mutable g_count : int;
  mutable g_idle_since : float;
}

(* Front-end CPU costs, µs. *)
let spawn_cost = 150.0 (* fork a fresh group's variants *)
let dispatch_cost = 2.0 (* one dispatcher cycle *)
let admit_cost = 0.2 (* one arrival: accept + enqueue *)

let run ?(config = default_config) src ~offered_rps ~requests =
  let cfg = config in
  validate cfg ~offered_rps ~requests;
  let m = M.create () in
  let front = M.new_proc m ~name:"serve-frontend" ~working_set:0.5 () in
  let poll = M.Poll.create () in
  (* The live monitor's window is sized to the expected run (~2x the
     pure-arrival span) so end-of-run quantiles reflect steady state,
     independent of the offered load under test. *)
  let sub_us = Float.max 10_000.0 (1e6 *. float_of_int requests /. offered_rps /. 4.0) in
  let window = Tel.Slo.window ~sub_windows:8 ~sub_us () in
  let arrival = Array.make requests 0.0 in
  let outcomes = Array.make requests None in
  let resolved = ref 0 in
  let last_resolution = ref 0.0 in
  let latencies = ref [] in
  let reports = ref [] in
  let service_sum = ref 0.0 in
  let served = ref 0 in
  let shutdown = ref false in
  (* bounded admission queue: a flat ring of request ids *)
  let qbuf = Array.make cfg.queue_capacity 0 in
  let qhead = ref 0 and qlen = ref 0 in
  let qpush rid =
    qbuf.((!qhead + !qlen) mod cfg.queue_capacity) <- rid;
    incr qlen
  in
  let qpop () =
    let rid = qbuf.(!qhead) in
    qhead := (!qhead + 1) mod cfg.queue_capacity;
    decr qlen;
    rid
  in
  let slots = Array.make cfg.pool_capacity None in
  let live = ref 0 and spawned = ref 0 and retired = ref 0 and peak = ref 0 in
  let resolve rid o =
    (match outcomes.(rid) with
     | Some _ -> failwith "Serve.run: request resolved twice"
     | None -> outcomes.(rid) <- Some o);
    incr resolved;
    if M.now m > !last_resolution then last_resolution := M.now m
  in
  let serve_one g rid =
    let start = M.now m in
    let r = group_run cfg src ~req_id:rid in
    (* The nested engine run IS the service: the group occupies its slot
       for the run's simulated span (its CPU is accounted inside the
       nested machine — groups have their own cores). *)
    M.sleep m r.Nxe.total_time;
    let finish = M.now m in
    service_sum := !service_sum +. r.Nxe.total_time;
    incr served;
    if cfg.keep_reports then reports := (rid, r) :: !reports;
    match r.Nxe.outcome with
    | `All_finished ->
      let lat = finish -. arrival.(rid) in
      latencies := lat :: !latencies;
      Tel.Slo.observe window ~now:finish lat;
      resolve rid
        (Completed { rq_arrival = arrival.(rid); rq_start = start; rq_finish = finish; rq_group = g.g_slot })
    | `Aborted _ ->
      resolve rid
        (Faulted { rq_arrival = arrival.(rid); rq_start = start; rq_finish = finish; rq_group = g.g_slot })
  in
  let worker g =
    M.compute m spawn_cost;
    let rec loop () =
      if g.g_count > 0 then begin
        let n = g.g_count in
        for i = 0 to n - 1 do
          serve_one g g.g_batch.(i)
        done;
        g.g_count <- 0;
        g.g_idle_since <- M.now m;
        M.Poll.post m poll g.g_slot;
        loop ()
      end
      else if g.g_retiring || !shutdown then ()
      else begin
        M.park m;
        loop ()
      end
    in
    loop ()
  in
  let spawn_group slot =
    let g =
      {
        g_slot = slot;
        g_tid = None;
        g_retiring = false;
        g_batch = Array.make cfg.batch 0;
        g_count = 0;
        g_idle_since = M.now m;
      }
    in
    slots.(slot) <- Some g;
    incr spawned;
    incr live;
    if !live > !peak then peak := !live;
    g.g_tid <- Some (M.spawn m front ~name:(Printf.sprintf "group%d" !spawned) (fun () -> worker g));
    g
  in
  let dispatch_to g =
    let k = min cfg.batch !qlen in
    for i = 0 to k - 1 do
      g.g_batch.(i) <- qpop ()
    done;
    g.g_count <- k;
    match g.g_tid with Some tid -> M.wake m tid | None -> ()
  in
  let find_idle () =
    let found = ref None in
    Array.iter
      (fun s ->
        match (s, !found) with
        | Some g, None when (not g.g_retiring) && g.g_count = 0 -> found := Some g
        | _ -> ())
      slots;
    !found
  in
  let free_slot () =
    let idx = ref (-1) in
    Array.iteri (fun i s -> if s = None && !idx < 0 then idx := i) slots;
    !idx
  in
  let assign () =
    let continue_ = ref true in
    while !continue_ && !qlen > 0 do
      match find_idle () with
      | Some g -> dispatch_to g
      | None ->
        if !live < cfg.pool_capacity then dispatch_to (spawn_group (free_slot ()))
        else continue_ := false
    done
  in
  let retire_idle () =
    if !qlen = 0 then
      Array.iter
        (fun s ->
          match s with
          | Some g
            when g.g_count = 0 && (not g.g_retiring)
                 && M.now m -. g.g_idle_since >= cfg.retire_idle_us ->
            g.g_retiring <- true;
            slots.(g.g_slot) <- None;
            decr live;
            incr retired;
            (match g.g_tid with Some tid -> M.wake m tid | None -> ())
          | _ -> ())
        slots
  in
  let generator () =
    let rng = Rng.create cfg.seed in
    let mean = 1e6 /. offered_rps in
    for rid = 0 to requests - 1 do
      if rid > 0 then M.sleep m (Rng.exponential rng ~mean);
      arrival.(rid) <- M.now m;
      M.compute m admit_cost;
      if !qlen >= cfg.queue_capacity then begin
        (* backpressure: an explicit verdict at arrival time, never an
           unbounded queue.  The post is a tick so the dispatcher can
           re-check termination. *)
        resolve rid (Rejected { rq_arrival = arrival.(rid) });
        M.Poll.post m poll (-1)
      end
      else begin
        qpush rid;
        M.Poll.post m poll (-1)
      end
    done
  in
  let dispatcher () =
    let rec dloop () =
      if !resolved >= requests then begin
        shutdown := true;
        Array.iter
          (fun s ->
            match s with
            | Some g -> ( match g.g_tid with Some tid -> M.wake m tid | None -> ())
            | None -> ())
          slots
      end
      else begin
        (* One wakeup drains EVERY pending arrival and completion: the
           assignment loop below services the whole batch. *)
        ignore (M.Poll.wait m poll);
        (* one cycle cost however many events were drained: the
           epoll_wait return, queue scan and hand-offs *)
        M.compute m dispatch_cost;
        assign ();
        retire_idle ();
        dloop ()
      end
    in
    dloop ()
  in
  ignore (M.spawn m front ~name:"loadgen" generator);
  ignore (M.spawn m front ~name:"dispatcher" dispatcher);
  M.run m;
  let outs =
    Array.map
      (function Some o -> o | None -> failwith "Serve.run: unresolved request")
      outcomes
  in
  let completed = ref 0 and rejected = ref 0 and faulted = ref 0 in
  Array.iter
    (function
      | Completed _ -> incr completed
      | Rejected _ -> incr rejected
      | Faulted _ -> incr faulted)
    outs;
  let lats = Array.of_list !latencies in
  let p50, p95, p99, p999 =
    match Stats.percentiles lats [ 50.0; 95.0; 99.0; 99.9 ] with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> (0.0, 0.0, 0.0, 0.0)
  in
  let endt = !last_resolution in
  let makespan = endt in
  {
    sv_offered_rps = offered_rps;
    sv_requests = requests;
    sv_completed = !completed;
    sv_rejected = !rejected;
    sv_faulted = !faulted;
    sv_makespan = makespan;
    sv_throughput_rps = (if makespan > 0.0 then 1e6 *. float_of_int !completed /. makespan else 0.0);
    sv_rejection_rate = float_of_int !rejected /. float_of_int requests;
    sv_p50 = p50;
    sv_p95 = p95;
    sv_p99 = p99;
    sv_p999 = p999;
    sv_live_p99 = Tel.Slo.quantile window ~now:endt 99.0;
    sv_breach_fraction = Tel.Slo.breach_fraction window ~now:endt cfg.slo;
    sv_burn_rate = Tel.Slo.burn_rate window ~now:endt cfg.slo;
    sv_mean_service_us =
      (if !served > 0 then !service_sum /. float_of_int !served else 0.0);
    sv_groups_spawned = !spawned;
    sv_groups_retired = !retired;
    sv_peak_groups = !peak;
    sv_poll_wakeups = M.Poll.wakeups poll;
    sv_poll_events = M.Poll.events poll;
    sv_outcomes = outs;
    sv_reports = List.rev !reports;
  }

let sweep ?config src ~offered_rps ~requests =
  List.map (fun rps -> run ?config src ~offered_rps:rps ~requests) offered_rps
