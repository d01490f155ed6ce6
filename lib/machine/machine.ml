open Effect
open Effect.Deep
module Tel = Bunshin_telemetry.Telemetry
module Tx = Bunshin_trace_ctx.Trace_ctx

type config = {
  cores : int;
  quantum : float;
  ctx_switch_cost : float;
  llc_capacity : float;
  miss_penalty : float;
  max_time : float;
}

let default_config =
  {
    cores = 4;
    (* A Linux-like timeslice: long enough that context-switch cost is paid
       on real thread changes, not on every microsecond of compute. *)
    quantum = 250.0;
    ctx_switch_cost = 1.0;
    llc_capacity = 1e9;
    miss_penalty = 0.5;
    max_time = 1e12;
  }

type state = Ready | Running | Blocked | Sleeping | Finished

type kstate = Not_started | Suspended of (unit, unit) continuation | Live

(* Phase accounting: every thread carries a preallocated bucket array and
   charges each state interval to exactly one bucket, so the buckets of a
   finished thread sum to its lifetime by construction.  Slots 0-4 are
   machine-owned; 5.. are free for clients (the NXE claims them through
   Profile.Phase).  The accounting is always on: it is pure float
   arithmetic on the side, it never touches scheduler state, so the
   schedule is bit-identical with or without anyone reading it. *)
let phase_slots = 16
let slot_compute = 0 (* Running, default tag *)
let slot_queue = 1   (* Ready: runnable but not placed on a core *)
let slot_idle = 2    (* Sleeping *)
let slot_sched = 3   (* context-switch cost, reattributed out of the burst *)
let slot_wait = 4    (* Blocked, default tag *)
let first_client_slot = 5

type proc = {
  pid : int;
  pname : string;
  ws : float;
  sens : float Lazy.t;
      (* fraction of cycles that are LLC-bound; forced only under LLC
         over-subscription *)
  mutable proc_threads : thread list;
  mutable p_active : int;
      (* threads currently Ready or Running: the proc contributes its
         working set to LLC pressure iff this is > 0.  Maintained at every
         state transition so the pressure sum can be cached. *)
}

and thread = {
  id : int;
  tname : string;
  daemon : bool;
  t_proc : proc;
  body : unit -> unit;
  mutable state : state;
  mutable k : kstate;
  mutable wake_pending : bool;
  mutable self_opt : thread option;
      (* [Some self], built once at spawn, so entering the fiber does not
         allocate an option per resume *)
  mutable self_ev : payload;
      (* [Th self], built once at spawn, so pushing the thread's events
         allocates nothing *)
  (* --- pending-burst payload (at most one burst is in flight per thread,
     so the Burst_end event needs no allocated record: the event heap
     stores only (time, key, payload) and the burst parameters live here
     and in [f]) --- *)
  mutable b_ci : int;      (* core the burst runs on *)
  (* --- phase accounting --- *)
  mutable p_run : int;     (* bucket charged while Running *)
  mutable p_wait : int;    (* bucket charged while Blocked *)
  p_acc : float array;     (* phase_slots buckets, us *)
  f : thread_floats;
}

(* Every float a thread writes per burst or per state change.  OCaml
   stores the fields of an all-float record unboxed, so these writes
   allocate nothing; a float field of a mixed record is a pointer, and
   each write to it boxes a fresh float. *)
and thread_floats = {
  mutable remaining : float;
  mutable cpu : float;
  mutable finish_time : float;
  mutable eff_arg : float; (* sleep duration, passed effect-payload-free *)
  mutable b_slice : float; (* requested compute in the burst *)
  mutable b_eff : float;   (* effective cost incl. inflation + ctx switch *)
  mutable b_ctx : float;   (* context-switch share of b_eff *)
  spawn_time : float;
  mutable p_since : float; (* start of the current state interval *)
  (* last run-queue wait (Ready -> Running), for causal tracing *)
  mutable t_rdy0 : float;  (* when the thread last became Ready *)
  mutable t_rdy1 : float;  (* when that wait ended (dispatch time) *)
}

(* What an event-heap entry fires: a thread's sleep wake or burst end, or
   a timer callback ([post]). *)
and payload = Th of thread | Fn of (unit -> unit)

type tid = thread

let dummy_proc =
  { pid = -1; pname = "<none>"; ws = 0.0; sens = Lazy.from_val 0.0; proc_threads = [];
    p_active = 0 }

let new_floats now =
  { remaining = 0.0; cpu = 0.0; finish_time = 0.0; eff_arg = 0.0; b_slice = 0.0;
    b_eff = 0.0; b_ctx = 0.0; spawn_time = now; p_since = now; t_rdy0 = now; t_rdy1 = now }

(* Placeholder filling empty heap slots. *)
let no_payload = Fn ignore

(* Placeholder filling empty queue slots: never dispatched, never woken. *)
let dummy_thread =
  {
    id = -1;
    tname = "<none>";
    daemon = true;
    t_proc = dummy_proc;
    body = (fun () -> ());
    state = Finished;
    k = Live;
    wake_pending = false;
    self_opt = None;
    self_ev = no_payload;
    b_ci = -1;
    p_run = 0;
    p_wait = 0;
    p_acc = [||];
    f = new_floats 0.0;
  }

(* Flat ring deque of threads: the run queue and every wait queue.  A push
   or take is a couple of array operations — no cell allocation per entry
   (stdlib [Queue] allocates one cons cell per push, which on the NXE hot
   path meant an allocation per park/wake/ready transition).  Capacity is
   kept a power of two so the index wrap is a mask. *)
module Tq = struct
  type q = { mutable buf : thread array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 4 dummy_thread; head = 0; len = 0 }
  let length q = q.len
  let is_empty q = q.len = 0

  let grow q =
    let cap = Array.length q.buf in
    let buf = Array.make (2 * cap) dummy_thread in
    for i = 0 to q.len - 1 do
      buf.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- buf;
    q.head <- 0

  let push q th =
    if q.len = Array.length q.buf then grow q;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- th;
    q.len <- q.len + 1

  (* Caller guarantees non-empty. *)
  let take q =
    let mask = Array.length q.buf - 1 in
    let th = q.buf.(q.head) in
    q.buf.(q.head) <- dummy_thread;
    q.head <- (q.head + 1) land mask;
    q.len <- q.len - 1;
    th

  let get q i = q.buf.((q.head + i) land (Array.length q.buf - 1))

  (* Remove the entry at logical index [i], preserving the order of the
     rest (shifts the tail side down by one). *)
  let remove_at q i =
    let mask = Array.length q.buf - 1 in
    for j = i to q.len - 2 do
      q.buf.((q.head + j) land mask) <- q.buf.((q.head + j + 1) land mask)
    done;
    q.buf.((q.head + q.len - 1) land mask) <- dummy_thread;
    q.len <- q.len - 1
end

(* A core's quantum budget lives in the machine's [budget] float array,
   unboxed, beside the core. *)
type core = { mutable c_last : int; mutable c_busy : bool }

(* The machine's per-burst floats, unboxed for the same reason as
   [thread_floats]. *)
type machine_floats = {
  mutable clock : float;
  mutable pressure_peak : float;
  mutable pressure_cache : float;
      (* cached LLC pressure: recomputed — with the same fold, in the same
         order, so the float result is bit-identical — only when some
         proc's active-thread count crossed the 0 boundary *)
}

(* Telemetry handles, resolved once at creation so the per-event cost is a
   field read; [tel = None] keeps every instrumentation point a no-op. *)
type tel = {
  t_rec : Tx.t; (* the sink's span store *)
  t_dom : int; (* this machine's domain in it *)
  t_sched_tid : int; (* lane for scheduler-level instants (park/wake/pressure) *)
  t_ctx : Tel.Counter.t;
  t_parks : Tel.Counter.t;
  t_wakes : Tel.Counter.t;
  t_pressure : Tel.Gauge.t;
  mutable t_last_pressure : float;
}

(* Thread-event kinds, the low bit of a thread event's key. *)
let ev_burst = 0
let ev_wake = 1

(* A timer's key is [timer_bit + seq], above every thread event's key. *)
let timer_bit = 1 lsl 61

type t = {
  cfg : config;
  (* Flat binary event heap, struct-of-arrays: the priority is (time, key).
     A thread event's key is [2 * seq + kind] and a timer's is
     [timer_bit + seq], where [seq] is the unique insertion sequence.  So
     at equal times thread events pop before timers, and each class pops
     in posting order.  Burst parameters live on the thread itself (see
     [b_*] fields) and a thread event's payload is its [self_ev], so
     pushing or popping a thread event allocates nothing. *)
  mutable h_time : float array;
  mutable h_key : int array;
  mutable h_ev : payload array;
  mutable h_len : int;
  mutable h_next_seq : int;
  mutable n_timers : int; (* [Fn] entries in the heap *)
  (* Set where a thread joins the run queue or a burst end frees a core,
     cleared when [dispatch] returns.  Without it the machine's dispatch
     could place or resume nothing, so the run loop's settle skips it. *)
  mutable dispatch_due : bool;
  runq : Tq.q;
  cores : core array;
  budget : float array; (* per core: quantum left before the next switch *)
  mutable procs : proc list;
  mutable threads : thread list;
  mf : machine_floats;
  mutable current : thread option;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable ctx_switches : int;
  (* O(1) liveness/deadlock accounting: non-daemon threads not yet
     Finished, and how many of those are Blocked.  The run loop's
     per-event "are we deadlocked / is anyone alive" checks were O(threads)
     list walks before. *)
  mutable nd_unfinished : int;
  mutable nd_blocked : int;
  mutable pressure_dirty : bool;
  (* Set while [compute] may finish a burst inline: throughout a
     one-machine [run_group], and in a larger group only while the loop
     steps this machine's own event. *)
  mutable in_run : bool;
  (* The machines the last [run_group] drove, this one included.  An
     inline burst must also end before anything any of them can do.  Both
     fields are set when a run starts and read only while it runs. *)
  mutable peers : t array;
  mutable n_inline : int; (* burst slices finished inline by [compute] *)
  mutable n_sched : int;  (* burst slices started through the event heap *)
  tel : tel option;
}

type _ Effect.t +=
  | E_compute : unit Effect.t (* burst size pre-staged in th.f.remaining *)
  | E_sleep : unit Effect.t   (* duration pre-staged in th.f.eff_arg *)
  | E_park : unit Effect.t
  | E_yield : unit Effect.t

exception Deadlock of string

let create ?(config = default_config) ?telemetry () =
  if config.cores < 1 then invalid_arg "Machine.create: need at least one core";
  let tel =
    Option.map
      (fun sink ->
        let dom = Tel.domain sink ~name:"machine" in
        for ci = 0 to config.cores - 1 do
          Tel.name_track dom ~tid:ci (Printf.sprintf "core%d" ci)
        done;
        let sched_tid = config.cores in
        Tel.name_track dom ~tid:sched_tid "scheduler";
        {
          t_rec = Tel.recorder sink;
          t_dom = Tel.domain_id dom;
          t_sched_tid = sched_tid;
          t_ctx = Tel.counter sink "machine.ctx_switches";
          t_parks = Tel.counter sink "machine.parks";
          t_wakes = Tel.counter sink "machine.wakes";
          t_pressure = Tel.gauge sink "machine.cache_pressure";
          t_last_pressure = 0.0;
        })
      telemetry
  in
  {
    cfg = config;
    h_time = Array.make 8 0.0;
    h_key = Array.make 8 0;
    h_ev = Array.make 8 no_payload;
    h_len = 0;
    h_next_seq = 0;
    n_timers = 0;
    dispatch_due = false;
    runq = Tq.create ();
    cores = Array.init config.cores (fun _ -> { c_last = -1; c_busy = false });
    budget = Array.make config.cores 0.0;
    procs = [];
    threads = [];
    mf = { clock = 0.0; pressure_peak = 0.0; pressure_cache = 0.0 };
    current = None;
    next_pid = 0;
    next_tid = 0;
    ctx_switches = 0;
    nd_unfinished = 0;
    nd_blocked = 0;
    pressure_dirty = true;
    in_run = false;
    peers = [||];
    n_inline = 0;
    n_sched = 0;
    tel;
  }

let now t = t.mf.clock

(* ------------------------------------------------------------------ *)
(* Flat event heap *)

let heap_before t i j =
  t.h_time.(i) < t.h_time.(j)
  || (t.h_time.(i) = t.h_time.(j) && t.h_key.(i) < t.h_key.(j))

let heap_swap t i j =
  let tm = t.h_time.(i) in
  t.h_time.(i) <- t.h_time.(j);
  t.h_time.(j) <- tm;
  let ky = t.h_key.(i) in
  t.h_key.(i) <- t.h_key.(j);
  t.h_key.(j) <- ky;
  let ev = t.h_ev.(i) in
  t.h_ev.(i) <- t.h_ev.(j);
  t.h_ev.(j) <- ev

let heap_grow t =
  let cap = Array.length t.h_time in
  let ncap = 2 * cap in
  let time = Array.make ncap 0.0
  and key = Array.make ncap 0
  and ev = Array.make ncap no_payload in
  Array.blit t.h_time 0 time 0 t.h_len;
  Array.blit t.h_key 0 key 0 t.h_len;
  Array.blit t.h_ev 0 ev 0 t.h_len;
  t.h_time <- time;
  t.h_key <- key;
  t.h_ev <- ev

let next_seq t =
  let seq = t.h_next_seq in
  t.h_next_seq <- seq + 1;
  seq

let heap_push t time key ev =
  if t.h_len = Array.length t.h_time then heap_grow t;
  let i = ref t.h_len in
  t.h_time.(!i) <- time;
  t.h_key.(!i) <- key;
  t.h_ev.(!i) <- ev;
  t.h_len <- t.h_len + 1;
  while !i > 0 && heap_before t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    heap_swap t !i p;
    i := p
  done

(* Remove the root; caller has already read it. *)
let heap_drop t =
  t.h_len <- t.h_len - 1;
  if t.h_len > 0 then begin
    t.h_time.(0) <- t.h_time.(t.h_len);
    t.h_key.(0) <- t.h_key.(t.h_len);
    t.h_ev.(0) <- t.h_ev.(t.h_len);
    t.h_ev.(t.h_len) <- no_payload;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.h_len && heap_before t l !smallest then smallest := l;
      if r < t.h_len && heap_before t r !smallest then smallest := r;
      if !smallest <> !i then begin
        heap_swap t !smallest !i;
        i := !smallest
      end
      else continue := false
    done
  end
  else t.h_ev.(0) <- no_payload

let post t ~at fn =
  let at = if at > t.mf.clock then at else t.mf.clock in
  t.n_timers <- t.n_timers + 1;
  heap_push t at (timer_bit + next_seq t) (Fn fn)

(* ------------------------------------------------------------------ *)
(* State transitions *)

let default_sensitivity = Lazy.from_val 1.0

let new_proc t ?(cache_sensitivity = default_sensitivity) ~name ~working_set () =
  let p =
    { pid = t.next_pid; pname = name; ws = working_set; sens = cache_sensitivity;
      proc_threads = []; p_active = 0 }
  in
  t.next_pid <- t.next_pid + 1;
  t.procs <- p :: t.procs;
  t.pressure_dirty <- true;
  p

(* Close the thread's current state interval: charge it to the bucket its
   (old) state selects, then restart the interval at the current clock.
   Must run immediately before every state assignment. *)
let charge t th =
  let f = th.f and clock = t.mf.clock in
  let dt = clock -. f.p_since in
  if dt > 0.0 then begin
    let slot =
      match th.state with
      | Running -> th.p_run
      | Ready -> slot_queue
      | Blocked -> th.p_wait
      | Sleeping -> slot_idle
      | Finished -> -1
    in
    if slot >= 0 then th.p_acc.(slot) <- th.p_acc.(slot) +. dt
  end;
  f.p_since <- clock

(* The single state-assignment point: maintains the deadlock counters and
   each proc's active-thread count (hence the pressure cache's dirty bit).
   Callers still [charge] first — charging needs the OLD state. *)
let set_state t th st =
  let old = th.state in
  if old <> st then begin
    if not th.daemon then begin
      (match old with Blocked -> t.nd_blocked <- t.nd_blocked - 1 | _ -> ());
      (match st with
       | Blocked -> t.nd_blocked <- t.nd_blocked + 1
       | Finished -> t.nd_unfinished <- t.nd_unfinished - 1
       | _ -> ())
    end;
    let was_active = match old with Ready | Running -> true | _ -> false in
    let is_active = match st with Ready | Running -> true | _ -> false in
    if was_active <> is_active then begin
      let p = th.t_proc in
      if is_active then begin
        p.p_active <- p.p_active + 1;
        if p.p_active = 1 then t.pressure_dirty <- true
      end
      else begin
        p.p_active <- p.p_active - 1;
        if p.p_active = 0 then t.pressure_dirty <- true
      end
    end;
    th.state <- st
  end

let make_ready t th =
  charge t th;
  set_state t th Ready;
  Tq.push t.runq th;
  t.dispatch_due <- true

let spawn t ?(daemon = false) proc ~name body =
  let th =
    {
      id = t.next_tid;
      tname = name;
      daemon;
      t_proc = proc;
      body;
      state = Ready;
      k = Not_started;
      wake_pending = false;
      self_opt = None;
      self_ev = no_payload;
      b_ci = -1;
      p_run = slot_compute;
      p_wait = slot_wait;
      p_acc = Array.make phase_slots 0.0;
      f = new_floats t.mf.clock;
    }
  in
  th.self_opt <- Some th;
  th.self_ev <- Th th;
  t.next_tid <- t.next_tid + 1;
  t.threads <- th :: t.threads;
  proc.proc_threads <- th :: proc.proc_threads;
  if not daemon then t.nd_unfinished <- t.nd_unfinished + 1;
  proc.p_active <- proc.p_active + 1;
  if proc.p_active = 1 then t.pressure_dirty <- true;
  Tq.push t.runq th;
  t.dispatch_due <- true;
  th

let current_thread t =
  match t.current with
  | Some th -> th
  | None -> invalid_arg "Machine: fiber operation outside a thread body"

let self t = current_thread t

let last_ready_wait t =
  let th = current_thread t in
  (th.f.t_rdy0, th.f.t_rdy1)

let sleep t d =
  let th = current_thread t in
  if d > 0.0 then begin
    th.f.eff_arg <- d;
    perform E_sleep
  end

let park t =
  let th = current_thread t in
  if th.wake_pending then th.wake_pending <- false else perform E_park

let yield t =
  let _ = current_thread t in
  perform E_yield

let wake t th =
  match th.state with
  | Blocked ->
    make_ready t th;
    (match t.tel with
     | Some tel ->
       Tel.Counter.incr tel.t_wakes;
       Tx.mark tel.t_rec ~domain:tel.t_dom ~tid:tel.t_sched_tid ~variant:(-1) ~key:"thread"
         ~text:th.tname ~value:nan ~ts:t.mf.clock "wake"
     | None -> ())
  | Ready | Running | Sleeping -> th.wake_pending <- true
  | Finished -> ()

let thread_name _t th = th.tname

(* Forcible termination, the monitor's kill(2): the thread never runs
   again, its pending events become no-ops, and its finish time is the
   cancellation time.  Cancelling the currently-running thread is a no-op
   — a fiber cannot be unwound from inside itself; callers make it observe
   a flag and return instead. *)
let cancel t th =
  match th.state with
  | Finished -> ()
  | _ when (match t.current with Some c -> c == th | None -> false) -> ()
  | _ ->
    charge t th;
    set_state t th Finished;
    th.f.finish_time <- t.mf.clock;
    th.k <- Live (* drop the suspended continuation; it must never resume *)

let cancel_proc t p = List.iter (cancel t) p.proc_threads

(* ------------------------------------------------------------------ *)
(* Cache model: inflation of compute cost under LLC pressure. *)

(* Same fold over the same list in the same order as always — only the
   per-proc activity test changed from a thread-list walk to a counter
   read — so the cached float is bit-identical to a fresh recompute.  It
   returns unit, not the float, so no call boxes the pressure. *)
let refresh_pressure t =
  let total =
    List.fold_left (fun acc p -> if p.p_active > 0 then acc +. p.ws else acc) 0.0 t.procs
  in
  t.mf.pressure_cache <- total /. t.cfg.llc_capacity;
  t.pressure_dirty <- false

let trace_pressure t tel pressure =
  Tel.Gauge.set tel.t_pressure pressure;
  if Float.abs (pressure -. tel.t_last_pressure) > 1e-9 then begin
    tel.t_last_pressure <- pressure;
    Tx.mark tel.t_rec ~domain:tel.t_dom ~tid:tel.t_sched_tid ~variant:(-1) ~key:"" ~text:""
      ~value:pressure ~ts:t.mf.clock "cache_pressure"
  end

let multiplier t th =
  if t.pressure_dirty then refresh_pressure t;
  let pressure = t.mf.pressure_cache in
  if pressure > t.mf.pressure_peak then t.mf.pressure_peak <- pressure;
  (match t.tel with Some tel -> trace_pressure t tel pressure | None -> ());
  if pressure <= 1.0 then 1.0
  else
    (* Extra miss fraction grows with over-subscription, asymptoting to 1.
       Only the thread's LLC-bound cycles are hit (sanitizer check cycles
       are compute-bound and shrug off evictions). *)
    let extra = 1.0 -. (1.0 /. pressure) in
    1.0 +. (t.cfg.miss_penalty *. extra *. Lazy.force th.t_proc.sens)

(* [Float.min remaining quantum] without the call: both are positive and
   finite, where the two agree bit-for-bit. *)
let slice_of t th = if th.f.remaining <= t.cfg.quantum then th.f.remaining else t.cfg.quantum

(* ------------------------------------------------------------------ *)
(* Inline bursts.  A compute normally suspends the fiber, and the
   scheduler queues it, places it, pushes its Burst_end event and pops it
   again before resuming the same fiber.  When the machine's state proves
   that this round trip can do nothing else, [compute] performs the same
   float operations in the same order without suspending (DESIGN.md §14):

   - [in_run]: the machine runs alone, or the group loop is stepping its
     own event.  In a larger group every other machine must also have an
     empty run queue and a heap top strictly after the slice end: then
     the loop would settle nothing and step this Burst_end next, where a
     peer's earlier event could post a timer here or a peer's runnable
     fiber could act first.
   - no telemetry: the burst span and pressure samples stay scheduled.
   - not a daemon: the run loop's termination and deadlock checks could
     otherwise fire while the burst is in flight.
   - empty run queue: the dispatcher would place no other thread first.
   - the thread's last core is free and still its own: the dispatcher
     places it there (at most one core ever has [c_last = th.id]) with no
     context switch.
   - the burst ends strictly before the event-heap top and not past
     [max_time]: it would be the next event popped, with no tie.

   A refused slice has changed only idempotent state (the pressure peak
   and the forced sensitivity), and the caller performs [E_compute] with
   the remaining work.  An inline slice pushes no heap event and so skips
   one sequence number; sequence numbers only break time ties, and every
   later push still gets a larger one, so no tie-break changes. *)
let inline_slice t th =
  let ci = th.b_ci in
  t.in_run
  && (match t.tel with None -> true | Some _ -> false)
  && (not th.daemon)
  && Tq.is_empty t.runq
  && ci >= 0
  && t.cores.(ci).c_last = th.id
  && (not t.cores.(ci).c_busy)
  &&
  let mult = multiplier t th in
  let slice = slice_of t th in
  let effective = 0.0 +. (slice *. mult) in
  let f = th.f and mf = t.mf in
  let time = mf.clock +. effective in
  let peers = t.peers in
  let quiet = ref true and k = ref 0 in
  while !quiet && !k < Array.length peers do
    let p = peers.(!k) in
    if p != t && ((not (Tq.is_empty p.runq)) || (p.h_len > 0 && p.h_time.(0) <= time)) then
      quiet := false;
    incr k
  done;
  if !quiet && (t.h_len = 0 || time < t.h_time.(0)) && time <= t.cfg.max_time
  then begin
    (* make_ready and start_burst *)
    charge t th;
    f.t_rdy0 <- f.p_since;
    f.t_rdy1 <- mf.clock;
    t.budget.(ci) <- t.budget.(ci) -. slice;
    (* the Burst_end pop and handle_burst_end *)
    if time > mf.clock then mf.clock <- time;
    f.remaining <- f.remaining -. slice;
    f.cpu <- f.cpu +. effective;
    charge t th;
    t.n_inline <- t.n_inline + 1;
    true
  end
  else false

(* Slices while each one may run inline; [true] once the burst is done. *)
let rec inline_burst t th =
  inline_slice t th && (th.f.remaining <= 1e-12 || inline_burst t th)

let compute t d =
  let th = current_thread t in
  if d > 0.0 then begin
    (* Stage the burst size in the thread record: the effect carries no
       payload, so performing it allocates no constructor or boxed float. *)
    th.f.remaining <- d;
    if not (inline_burst t th) then perform E_compute
  end

(* ------------------------------------------------------------------ *)
(* Fiber management *)

let handler t th =
  (* The four effect cases are closed over once per thread, [Some] included:
     returning a preallocated option from [effc] means a [perform] on the
     hot path allocates only the continuation the runtime hands us, not a
     fresh closure per suspension. *)
  let on_compute : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        (* th.f.remaining was staged by [compute]. *)
        th.k <- Suspended k;
        make_ready t th)
  in
  let on_sleep : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        th.k <- Suspended k;
        charge t th;
        set_state t th Sleeping;
        heap_push t (t.mf.clock +. th.f.eff_arg) ((2 * next_seq t) + ev_wake) th.self_ev)
  in
  let on_park : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        th.k <- Suspended k;
        charge t th;
        set_state t th Blocked;
        match t.tel with
        | Some tel ->
          Tel.Counter.incr tel.t_parks;
          Tx.mark tel.t_rec ~domain:tel.t_dom ~tid:tel.t_sched_tid ~variant:(-1) ~key:"thread"
            ~text:th.tname ~value:nan ~ts:t.mf.clock "park"
        | None -> ())
  in
  let on_yield : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        th.k <- Suspended k;
        make_ready t th)
  in
  {
    retc =
      (fun () ->
        charge t th;
        set_state t th Finished;
        th.f.finish_time <- t.mf.clock;
        th.k <- Live);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | E_compute -> on_compute
        | E_sleep -> on_sleep
        | E_park -> on_park
        | E_yield -> on_yield
        | _ -> None);
  }

let resume_fiber t th =
  let saved = t.current in
  t.current <- th.self_opt;
  if th.state = Ready then begin
    th.f.t_rdy0 <- th.f.p_since;
    th.f.t_rdy1 <- t.mf.clock
  end;
  charge t th;
  set_state t th Running;
  (match th.k with
   | Not_started ->
     th.k <- Live;
     match_with th.body () (handler t th)
   | Suspended k ->
     th.k <- Live;
     continue k ()
   | Live -> invalid_arg "Machine: resuming a live fiber");
  t.current <- saved

(* ------------------------------------------------------------------ *)
(* Scheduler *)

(* Wake affinity: prefer the core this thread last ran on (warm caches, no
   switch charge), like the kernel's select_idle_sibling.  Returns -1 when
   every core is busy. *)
let free_core_for t th =
  let n = Array.length t.cores in
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < n do
    if (not t.cores.(!i).c_busy) && t.cores.(!i).c_last = th.id then found := !i;
    incr i
  done;
  if !found >= 0 then !found
  else begin
    let j = ref 0 in
    while !found < 0 && !j < n do
      if not t.cores.(!j).c_busy then found := !j;
      incr j
    done;
    !found
  end

let start_burst t th ci =
  t.n_sched <- t.n_sched + 1;
  let core = t.cores.(ci) and f = th.f in
  let ctx =
    if core.c_last <> th.id then begin
      t.ctx_switches <- t.ctx_switches + 1;
      t.budget.(ci) <- t.cfg.quantum;
      (match t.tel with
       | Some tel ->
         Tel.Counter.incr tel.t_ctx;
         Tx.mark tel.t_rec ~domain:tel.t_dom ~tid:ci ~variant:(-1) ~key:"to" ~text:th.tname
           ~value:nan ~ts:t.mf.clock "ctx_switch"
       | None -> ());
      t.cfg.ctx_switch_cost
    end
    else 0.0
  in
  core.c_last <- th.id;
  core.c_busy <- true;
  let mult = multiplier t th in
  let slice = slice_of t th in
  let effective = ctx +. (slice *. mult) in
  if th.state = Ready then begin
    f.t_rdy0 <- f.p_since;
    f.t_rdy1 <- t.mf.clock
  end;
  charge t th;
  set_state t th Running;
  th.b_ci <- ci;
  f.b_slice <- slice;
  f.b_eff <- effective;
  f.b_ctx <- ctx;
  t.budget.(ci) <- t.budget.(ci) -. slice;
  heap_push t (t.mf.clock +. effective) ((2 * next_seq t) + ev_burst) th.self_ev

let dispatch t =
  (* Each round: walk the current run queue once, resuming zero-cost fibers
     (which may enqueue new work -> another round) and starting bursts while
     cores remain.  Threads that cannot be placed stay queued for the next
     event. *)
  let again = ref true in
  while !again do
    again := false;
    (* Timeslice affinity: a free core whose last thread is runnable and
       still has quantum budget keeps it, regardless of queue order —
       otherwise two compute-heavy threads would ping-pong on every op.
       Nothing to place when the queue is empty, so skip the core walk. *)
    let ncores = if Tq.is_empty t.runq then 0 else Array.length t.cores in
    for ci = 0 to ncores - 1 do
      let core = t.cores.(ci) in
      if (not core.c_busy) && t.budget.(ci) > 0.0 then begin
        let n = Tq.length t.runq in
        let idx = ref (-1) in
        let i = ref 0 in
        while !idx < 0 && !i < n do
          let th = Tq.get t.runq !i in
          if th.id = core.c_last && th.state = Ready && th.f.remaining > 0.0 then idx := !i;
          incr i
        done;
        if !idx >= 0 then begin
          let th = Tq.get t.runq !idx in
          Tq.remove_at t.runq !idx;
          start_burst t th ci
        end
      end
    done;
    let pending = Tq.length t.runq in
    for _ = 1 to pending do
      if not (Tq.is_empty t.runq) then begin
        let th = Tq.take t.runq in
        if th.state <> Ready then () (* stale entry *)
        else if th.f.remaining <= 0.0 then begin
          (* Nothing to burn: resume the fiber immediately (zero sim time). *)
          resume_fiber t th;
          again := true
        end
        else begin
          let ci = free_core_for t th in
          if ci < 0 then Tq.push t.runq th else start_burst t th ci
        end
      end
    done
  done;
  t.dispatch_due <- false

(* Cold path: only called to build the Deadlock message, with the same
   name order the old full-walk check produced. *)
let stuck_names t =
  let stuck =
    List.filter_map
      (fun th -> if (not th.daemon) && th.state = Blocked then Some th.tname else None)
      t.threads
  in
  String.concat ", " (List.rev stuck)

let handle_burst_end t th =
  let ci = th.b_ci and f = th.f in
  let slice = f.b_slice
  and effective = f.b_eff
  and ctx = f.b_ctx in
  t.cores.(ci).c_busy <- false;
  t.dispatch_due <- true;
  f.remaining <- f.remaining -. slice;
  f.cpu <- f.cpu +. effective;
  (* Charge the whole burst to the running bucket first, then carve the
     context-switch share out into the scheduler bucket, so a client that
     reads its buckets right after [compute] returns sees the burst
     attributed.  A thread cancelled mid-burst was already charged its
     partial interval at cancellation time; skip the carve-out. *)
  charge t th;
  if ctx > 0.0 && th.state = Running then begin
    let amount = Float.min ctx th.p_acc.(th.p_run) in
    th.p_acc.(th.p_run) <- th.p_acc.(th.p_run) -. amount;
    th.p_acc.(slot_sched) <- th.p_acc.(slot_sched) +. amount
  end;
  (match t.tel with
   | Some tel ->
     (* One complete span per CPU burst, on the core's lane: the trace
        shows exactly how the scheduler packed threads onto cores. *)
     Tx.slice tel.t_rec ~domain:tel.t_dom ~tid:ci ~t0:(t.mf.clock -. effective)
       ~t1:t.mf.clock th.tname
   | None -> ());
  if th.state = Finished then () (* cancelled mid-burst: free the core only *)
  else if f.remaining > 1e-12 then make_ready t th
  else resume_fiber t th

(* Pop and process the earliest heap entry.  Caller guarantees
   [t.h_len > 0]. *)
let process_next t =
  let mf = t.mf in
  let time = t.h_time.(0) in
  let key = t.h_key.(0) in
  let ev = t.h_ev.(0) in
  heap_drop t;
  (* Entry times are never behind the clock (every push is at
     [clock + positive] or clamped to the clock, and pops come in key
     order), so this is [Float.max] without the function call. *)
  if time > mf.clock then mf.clock <- time;
  if mf.clock > t.cfg.max_time then
    raise (Deadlock (Printf.sprintf "max_time %.0f exceeded" t.cfg.max_time));
  match ev with
  | Fn fn ->
    t.n_timers <- t.n_timers - 1;
    fn ()
  | Th th ->
    if key land 1 = ev_wake then begin
      if th.state = Sleeping then make_ready t th
    end
    else handle_burst_end t th

(* ------------------------------------------------------------------ *)
(* The run loop: one machine, or several against one global clock (the
   nodes of a networked group).  Settle every machine's runnable work,
   then step whichever machine holds the globally earliest event. *)

(* Dispatch, in index order, every machine that is due; repeat the pass
   while one was, since its fibers may have made an earlier machine due. *)
let settle ms =
  let resettle = ref true in
  while !resettle do
    resettle := false;
    for k = 0 to Array.length ms - 1 do
      let m = ms.(k) in
      if m.dispatch_due then begin
        dispatch m;
        resettle := true
      end
    done
  done

let run_group ms =
  let nm = Array.length ms in
  let solo = nm = 1 in
  for k = 0 to nm - 1 do
    let m = ms.(k) in
    m.peers <- ms;
    m.in_run <- solo
  done;
  let running = ref true in
  while !running do
    settle ms;
    (* Sum the deadlock counts, and find the earliest heap top, ties to
       the lowest index. *)
    let unfinished = ref 0 and blocked = ref 0 and timers = ref 0 in
    let best = ref (-1) and bt = ref infinity in
    for k = 0 to nm - 1 do
      let m = ms.(k) in
      unfinished := !unfinished + m.nd_unfinished;
      blocked := !blocked + m.nd_blocked;
      timers := !timers + m.n_timers;
      if m.h_len > 0 && m.h_time.(0) < !bt then begin
        bt := m.h_time.(0);
        best := k
      end
    done;
    if !unfinished = 0 then running := false
    else if !blocked = !unfinished && !timers = 0 then
      (* Every unfinished non-daemon thread is Blocked, and no timer is
         left to wake one: only a daemon could still run. *)
      raise
        (Deadlock
           ("threads blocked forever: "
           ^ String.concat "; " (Array.to_list (Array.map stuck_names ms))))
    else if !best < 0 then
      (* Cannot happen after a settle: a thread left Ready waits for a
         core whose burst end is pending.  Checked since [ms.(-1)] is not. *)
      raise (Deadlock "no pending events but non-daemon threads remain")
    else begin
      let m = ms.(!best) in
      if solo then process_next m
      else begin
        m.in_run <- true;
        process_next m;
        m.in_run <- false
      end
    end
  done

let run t = run_group [| t |]

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = { total_time : float; context_switches : int; cache_pressure_peak : float }

let stats t =
  let total =
    List.fold_left
      (fun acc th -> if th.daemon then acc else Float.max acc th.f.finish_time)
      0.0 t.threads
  in
  { total_time = total; context_switches = t.ctx_switches;
    cache_pressure_peak = t.mf.pressure_peak }

type burst_counts = { inline_bursts : int; scheduled_bursts : int }

let burst_counts t = { inline_bursts = t.n_inline; scheduled_bursts = t.n_sched }

let proc_cpu_time _t p = List.fold_left (fun acc th -> acc +. th.f.cpu) 0.0 p.proc_threads

let proc_finish_time _t p =
  List.fold_left
    (fun acc th -> if th.daemon then acc else Float.max acc th.f.finish_time)
    0.0 p.proc_threads

(* ------------------------------------------------------------------ *)
(* Phase accounting: client API *)

let check_slot name slot =
  if slot < 0 || slot >= phase_slots then
    invalid_arg (Printf.sprintf "Machine.%s: slot %d out of range" name slot)

let set_phase t slot =
  check_slot "set_phase" slot;
  let th = current_thread t in
  charge t th;
  let prev = th.p_run in
  th.p_run <- slot;
  prev

let set_wait_phase t slot =
  check_slot "set_wait_phase" slot;
  let th = current_thread t in
  charge t th;
  let prev = th.p_wait in
  th.p_wait <- slot;
  prev

(* Clamp: reattribution moves time already charged; it can never drive a
   bucket negative, so the sum-to-lifetime identity survives a caller
   overestimating. *)
let move_charged th ~from_ ~to_ amount =
  if amount > 0.0 && from_ <> to_ then begin
    let a = Float.min amount th.p_acc.(from_) in
    th.p_acc.(from_) <- th.p_acc.(from_) -. a;
    th.p_acc.(to_) <- th.p_acc.(to_) +. a
  end

let reattribute t ~from_ ~to_ amount =
  check_slot "reattribute" from_;
  check_slot "reattribute" to_;
  move_charged (current_thread t) ~from_ ~to_ amount

(* The carve-out of the phase-splitting clients (the profiler's Work op,
   the NXE's Work op and its bundled fetch+resched): inside this module
   the bucket reads and the moved amount stay unboxed. *)
let compute_share t d ~from_ ~to_ share =
  check_slot "compute_share" from_;
  check_slot "compute_share" to_;
  let th = current_thread t in
  let before = th.p_acc.(from_) in
  compute t d;
  let moved = (th.p_acc.(from_) -. before) *. share in
  move_charged th ~from_ ~to_ moved;
  moved

let thread_phase _t th slot =
  check_slot "thread_phase" slot;
  th.p_acc.(slot)

(* Lifetime covered by the buckets: up to finish for finished threads, up
   to the last charge point otherwise — so phases always sum to it. *)
let thread_accounted_time _t th =
  (if th.state = Finished then th.f.finish_time else th.f.p_since) -. th.f.spawn_time

let proc_phases _t p =
  let acc = Array.make phase_slots 0.0 in
  List.iter
    (fun th -> Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) th.p_acc)
    p.proc_threads;
  acc

let proc_accounted_time t p =
  List.fold_left (fun acc th -> acc +. thread_accounted_time t th) 0.0 p.proc_threads

(* ------------------------------------------------------------------ *)
(* Waitq *)

module Waitq = struct
  type mach = t
  type t = Tq.q

  let create () = Tq.create ()

  let wait (m : mach) wq =
    let th = current_thread m in
    Tq.push wq th;
    park m

  let signal (m : mach) wq = if Tq.length wq > 0 then wake m (Tq.take wq)

  let broadcast (m : mach) wq =
    while not (Tq.is_empty wq) do
      signal m wq
    done

  (* [Array.iter (broadcast m) qs] without the closure, which would
     allocate on every leader publish.  No fiber runs between two wakes,
     so every woken thread is on the run queue before the scheduler
     dispatches again. *)
  let broadcast_many (m : mach) (qs : t array) =
    for i = 0 to Array.length qs - 1 do
      broadcast m qs.(i)
    done

  let waiters wq = Tq.length wq
end

(* Epoll-style readiness batching: producers [post] integer source ids
   into a ring; a single consumer [wait]s and drains the WHOLE ring in
   one wakeup.  Only the first post of a batch wakes the consumer —
   later posts land while it is already Ready and ride the same
   dispatch, so one scheduler wakeup services many ready sources (the
   wakeups/events counters expose the amortization factor). *)
module Poll = struct
  type mach = t

  type t = {
    mutable ready : int array;  (* ring of posted source ids, FIFO *)
    mutable head : int;
    mutable len : int;
    mutable waiter : thread option;
    mutable wakeups : int;  (* batches delivered by [wait] *)
    mutable events : int;  (* total source ids delivered *)
  }

  let create () =
    { ready = Array.make 16 0; head = 0; len = 0; waiter = None; wakeups = 0; events = 0 }

  let grow p =
    let cap = Array.length p.ready in
    let a = Array.make (cap * 2) 0 in
    for i = 0 to p.len - 1 do
      a.(i) <- p.ready.((p.head + i) mod cap)
    done;
    p.ready <- a;
    p.head <- 0

  let post (m : mach) p src =
    if p.len = Array.length p.ready then grow p;
    p.ready.((p.head + p.len) mod Array.length p.ready) <- src;
    p.len <- p.len + 1;
    (* Coalesced wake: clearing [waiter] on the first post means the
       rest of the batch wakes nobody — the woken consumer drains them
       all when it runs. *)
    match p.waiter with
    | Some th ->
      p.waiter <- None;
      wake m th
    | None -> ()

  let wait (m : mach) p =
    let th = current_thread m in
    let parked = ref false in
    while p.len = 0 do
      p.waiter <- Some th;
      parked := true;
      park m
    done;
    p.waiter <- None;
    let cap = Array.length p.ready in
    let n = p.len in
    let batch = List.init n (fun i -> p.ready.((p.head + i) mod cap)) in
    p.head <- (p.head + n) mod cap;
    p.len <- 0;
    (* Only a wait that actually parked cost a scheduler wakeup; a wait
       finding events already pending is the amortization fast path. *)
    if !parked then p.wakeups <- p.wakeups + 1;
    p.events <- p.events + n;
    batch

  let pending p = p.len
  let wakeups p = p.wakeups
  let events p = p.events
end
