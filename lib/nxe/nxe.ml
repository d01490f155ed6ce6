module M = Bunshin_machine.Machine
module Pthreads = Bunshin_machine.Pthreads
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module Vec = Bunshin_util.Vec
module Tel = Bunshin_telemetry.Telemetry
module F = Bunshin_forensics.Forensics
module Faults = Bunshin_faults.Faults
module Pr = Bunshin_profile.Profile
module Tx = Bunshin_trace_ctx.Trace_ctx

type mode = Strict_lockstep | Selective_lockstep

type recovery = Abort_on_fault | Quarantine | Restart_once

type fault_policy = {
  policy : recovery;
  heartbeat_timeout : float;
  restart_backoff : float;
}

let default_policy =
  { policy = Abort_on_fault; heartbeat_timeout = infinity; restart_backoff = 50.0 }

type config = {
  mode : mode;
  ring_capacity : int;
  checkin_cost : float;
  fetch_cost : float;
  synccall_cost : float;
  resched_cost : float;
  weak_determinism : bool;
  sync_shared_memory : bool;
  recorder_depth : int;
  telemetry : Tel.sink option;
  fault_policy : fault_policy;
  tracer : Tx.t option;
  trace_node : int;
}

let default_config =
  {
    mode = Strict_lockstep;
    ring_capacity = 64;
    checkin_cost = 0.3;
    fetch_cost = 0.25;
    synccall_cost = 0.4;
    (* Futex sleep/wake round trip plus scheduler latency: paid whenever a
       party actually blocks at a sync point — the "scheduled in and out of
       the CPU" cost that makes strict lockstep dearer (§3.3). *)
    resched_cost = 0.25;
    weak_determinism = true;
    sync_shared_memory = true;
    recorder_depth = 16;
    telemetry = None;
    fault_policy = default_policy;
    tracer = None;
    trace_node = 0;
  }

let selective = { default_config with mode = Selective_lockstep }

(* A hung fiber sleeps this long: practically forever at simulation time
   scales, but finite so an unmonitored group (no heartbeat watchdog)
   eventually drains instead of deadlocking — a hang without a monitor is
   just a very slow variant. *)
let stall_duration = 1e9

(* Phase tagging for overhead attribution: [Machine.set_phase] /
   [set_wait_phase] are pure accounting (they pick the bucket future clock
   time is charged to, never touching burst boundaries or wake order), so
   tagging stays always-on and the report is bit-identical whether or not
   a profile collector is attached. *)
let ph_compute m phase cost =
  let prev = M.set_phase m (Pr.Phase.slot phase) in
  M.compute m cost;
  ignore (M.set_phase m prev)

let pth_wait m f =
  let prev = M.set_wait_phase m (Pr.Phase.slot Pr.Phase.Pthread_wait) in
  f ();
  ignore (M.set_wait_phase m prev)

type alert = {
  al_channel : int;
  al_position : int;
  al_variant : int;
  al_expected : string;
  al_got : string;
  al_expected_sc : Sc.t option;
  al_got_sc : Sc.t option;
}

type fault_cause = Missed_heartbeat of float | Benign_death

type variant_status =
  | Healthy
  | Quarantined of { q_time : float; q_cause : fault_cause; q_restarts : int }
  | Recovered of { q_time : float; q_cause : fault_cause; r_time : float }

type report = {
  outcome : [ `All_finished | `Aborted of alert ];
  incident : F.incident option;
  total_time : float;
  variant_finish : float list;
  variant_cpu : float list;
  synced_syscalls : int;
  executed_syscalls : int;
  lockstep_syscalls : int;
  avg_syscall_gap : float;
  max_syscall_gap : int;
  order_list_length : int;
  det_replays : int;
  channels : int;
  variant_status : variant_status list;
  coverage_loss : string list;
  fault_incidents : F.incident list;
  histograms : (string * (float * int) list) list;
  machine_stats : M.stats;
}

let quarantined_variants r =
  List.concat
    (List.mapi
       (fun i s -> match s with Quarantined _ -> [ i ] | _ -> [])
       r.variant_status)

let cause_string = function
  | Missed_heartbeat silence -> Printf.sprintf "<silent for %.0fus>" silence
  | Benign_death -> "<benign death>"

(* Canonical scalar rendering of a run: every deterministic field of the
   report that the engine itself computes, at full float precision ("%h"
   is exact hex notation, so two signatures are equal iff the runs were
   bit-identical on these fields).  The serving layer compares pooled
   group runs against solo replays with this; it is also a convenient
   one-line run fingerprint for goldens and logs. *)
let report_signature r =
  let b = Buffer.create 256 in
  (match r.outcome with
   | `All_finished -> Buffer.add_string b "finished"
   | `Aborted a ->
     Buffer.add_string b
       (Printf.sprintf "aborted(ch%d@%d v%d %s!=%s)" a.al_channel a.al_position a.al_variant
          a.al_expected a.al_got));
  Buffer.add_string b
    (Printf.sprintf " t=%h syn=%d exe=%d lock=%d gap=%h/%d ord=%d rep=%d ch=%d" r.total_time
       r.synced_syscalls r.executed_syscalls r.lockstep_syscalls r.avg_syscall_gap
       r.max_syscall_gap r.order_list_length r.det_replays r.channels);
  Buffer.add_string b " fin=[";
  List.iter (fun f -> Buffer.add_string b (Printf.sprintf "%h;" f)) r.variant_finish;
  Buffer.add_string b "] cpu=[";
  List.iter (fun c -> Buffer.add_string b (Printf.sprintf "%h;" c)) r.variant_cpu;
  Buffer.add_string b "] st=[";
  List.iter
    (fun s ->
      Buffer.add_string b
        (match s with
         | Healthy -> "H;"
         | Quarantined q -> Printf.sprintf "Q@%h(%s,%d);" q.q_time (cause_string q.q_cause) q.q_restarts
         | Recovered q -> Printf.sprintf "R@%h->%h(%s);" q.q_time q.r_time (cause_string q.q_cause)))
    r.variant_status;
  Buffer.add_string b "] hist=[";
  List.iter
    (fun (name, buckets) ->
      Buffer.add_string b name;
      Buffer.add_char b ':';
      List.iter (fun (ub, c) -> Buffer.add_string b (Printf.sprintf "%h*%d," ub c)) buckets;
      Buffer.add_char b ';')
    r.histograms;
  Buffer.add_string b "]";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Internal state *)

(* Placeholder filling unwritten ring cells; never compared or executed. *)
let dummy_sc = Sc.make "nxe.empty"

(* Templates for the engine's own synthetic syscalls: classification is
   paid once here, hot-path emission is [Sc.with_args] on the template. *)
let sc_synccall = Sc.make "synccall"
let sc_signal_delivery = Sc.make "signal_delivery"
let sc_clone_cost = Sc.base_cost (Sc.clone_thread ())
let sc_fork_cost = Sc.base_cost (Sc.fork ())

(* One syscall channel per logical thread: the per-thread stream of the
   execution group.  The slot ring is struct-of-arrays: publish, fetch and
   vote write preallocated ints/floats/bools — no record per event.  The
   per-slot columns are:
     sl_sc       the published syscall
     sl_ready    leader released the slot (result available)
     sl_arrived  followers checked in so far
     sl_first/sl_last/sl_lastv   straggler tracking — the leader's
       "arrival" is its publish time; followers stamp the time they
       entered the sync point, before blocking, so last - first is the
       group wait the straggler caused
     sl_sigdel   cached "is this a signal-delivery marker" so the fetch
       spin tests a bool, not a string
     sl_trace/sl_span   causal-trace context stamped by the leader at
       publish time ([-1] without a tracer): the propagated ids that let
       followers — and, through the cluster's link messages, remote
       nodes — attach their spans to the same rendezvous tree *)
type chan = {
  ch_id : int;
  ch_path : string; (* identity of the logical thread, equal across variants *)
  mutable sl_sc : Sc.t array;
  mutable sl_ready : bool array;
  mutable sl_arrived : int array;
  mutable sl_first : float array;
  mutable sl_last : float array;
  mutable sl_lastv : int array;
  mutable sl_sigdel : bool array;
  mutable sl_trace : int array;
  mutable sl_span : int array;
  mutable sl_len : int;
  mutable leader_pos : int;
  mutable leader_done : bool;
  cursors : int array; (* per follower *)
  fol_done : bool array;
  leader_q : M.Waitq.t;
  fol_q : M.Waitq.t array;
  tapes : F.Tape.t array;
  (* per-variant flight recorder: the last K slots each variant
     published/fetched on this channel, always on (allocation-free
     recording), so an abort can reconstruct who went off-script *)
}

(* Amortized-doubling growth of the slot columns; slots are never evicted
   (a restarted variant refetches), exactly like the Vec they replace. *)
let ensure_slot chan =
  let cap = Array.length chan.sl_ready in
  if chan.sl_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let grow_sc a = let b = Array.make ncap dummy_sc in Array.blit a 0 b 0 cap; b in
    let grow_b a = let b = Array.make ncap false in Array.blit a 0 b 0 cap; b in
    let grow_i a = let b = Array.make ncap 0 in Array.blit a 0 b 0 cap; b in
    let grow_f a = let b = Array.make ncap 0.0 in Array.blit a 0 b 0 cap; b in
    chan.sl_sc <- grow_sc chan.sl_sc;
    chan.sl_ready <- grow_b chan.sl_ready;
    chan.sl_arrived <- grow_i chan.sl_arrived;
    chan.sl_first <- grow_f chan.sl_first;
    chan.sl_last <- grow_f chan.sl_last;
    chan.sl_lastv <- grow_i chan.sl_lastv;
    chan.sl_sigdel <- grow_b chan.sl_sigdel;
    chan.sl_trace <- grow_i chan.sl_trace;
    chan.sl_span <- grow_i chan.sl_span
  end

(* Weak-determinism replay state: one per process path, shared by all
   variants (models the kernel module's order_list).  Order entries are
   interned channel ids — the replay spin compares ints, never paths. *)
type det = {
  d_order : int Vec.t;   (* ltids (as channel ids) in leader acquisition order *)
  d_cursors : int array; (* per follower variant *)
  d_qs : M.Waitq.t array; (* per follower variant *)
}

(* Trace handle: present only when [config.telemetry] is set.  The
   histograms below are NOT here — they are always-on (they feed
   [report.histograms]) so enabling tracing cannot change the report. *)
type tel = {
  t_dom : Tel.domain;
  t_publish : Tel.Counter.t;
  t_fetch : Tel.Counter.t;
  t_locksteps : Tel.Counter.t;
  t_replays : Tel.Counter.t;
  t_alerts : Tel.Counter.t;
  t_forks : Tel.Counter.t;
  t_spawns : Tel.Counter.t;
  t_faults : Tel.Counter.t;
  t_quarantines : Tel.Counter.t;
  t_restarts : Tel.Counter.t;
}

type t = {
  cfg : config;
  n : int;
  machine : M.t;
  tel : tel option;
  h_gap : Tel.Hist.t;  (* leader run-ahead distance, slots *)
  h_wait : Tel.Hist.t; (* blocked time at sync points, us *)
  working_sets : float array;
  sensitivities : float Lazy.t array;
  names : string array;
  mutable failed : alert option;
  mutable failed_at : float; (* machine time of the abort *)
  mutable chan_count : int;
  mutable all_chans : chan list;
  mutable all_dets : det list;
  chan_reg : (string, chan) Hashtbl.t;           (* channel path -> chan *)
  det_reg : (string, det) Hashtbl.t;             (* proc path -> det *)
  pth_reg : (string * int, Pthreads.t) Hashtbl.t; (* (proc path, variant) *)
  cnt_reg : (string * int, (int, int64 ref) Hashtbl.t) Hashtbl.t;
  (* shared counters per (proc path, variant): shared-memory state whose
     update order is what weak determinism exists to replicate *)
  proc_reg : (string * int, M.proc) Hashtbl.t;   (* (proc path, variant) *)
  mutable synced : int;
  mutable locksteps : int;
  mutable gap_sum : float;
  mutable gap_count : int;
  mutable gap_max : int;
  mutable order_len : int;
  mutable replays : int;
  mutable pending_signals : (float * int) list; (* delivery time, handler idx *)
  signal_handlers : Trace.t array;
  (* --- fault tolerance --- *)
  faults : Faults.injection array;
  f_done : int array; (* applications so far, per injection: latches survive restarts *)
  sys_ord : int array; (* per variant: ordinal in its synchronized-syscall stream *)
  v_dead : bool array; (* variant must stop executing ops *)
  v_quarantined : bool array;
  v_status : variant_status array;
  v_restarts : int array;
  v_parked : int array; (* threads currently parked at an NXE sync point *)
  live_threads : int array; (* unfinished threads per variant *)
  last_progress : float array; (* machine time of last NXE interaction *)
  mutable traces_arr : Trace.t array; (* original traces, kept for restart *)
  mutable mon_proc : M.proc option;
  mutable restart_hook : int -> unit; (* set once exec_ops exists *)
  mutable fault_incidents : F.incident list; (* reverse order *)
  mutable fault_abort_incident : F.incident option;
  mutable executed : int; (* slots the leader actually released (s_ready) *)
  h_heartbeat : Tel.Hist.t; (* watchdog-observed silence per sweep, us *)
  profile : Pr.Collector.t option;
  (* overhead-attribution collector: straggler records during the run,
     per-variant phase totals filled at the end *)
}

let aborted nxe = nxe.failed <> None

(* Heartbeat: any interaction with the engine proves the variant alive. *)
let touch nxe variant = nxe.last_progress.(variant) <- M.now nxe.machine

(* A thread parked at an NXE sync point is waiting on its peers, not hung:
   the watchdog must not count its silence against the variant.  All NXE
   waits are condition loops, so the accounting survives spurious wakes. *)
let nxe_wait nxe ~variant q =
  nxe.v_parked.(variant) <- nxe.v_parked.(variant) + 1;
  let prev = M.set_wait_phase nxe.machine (Pr.Phase.slot Pr.Phase.Lockstep_wait) in
  M.Waitq.wait nxe.machine q;
  ignore (M.set_wait_phase nxe.machine prev);
  nxe.v_parked.(variant) <- nxe.v_parked.(variant) - 1

(* Work with the sanitizer share carved out: a single compute call (burst
   boundaries, and hence the schedule, are exactly those of an untagged
   run); the variant's check fraction of the measured delta is then moved
   from Compute to Sanitizer post-hoc. *)
let do_work nxe ~variant fname cost =
  let m = nxe.machine in
  let f =
    match nxe.profile with
    | Some c -> Pr.Collector.check_fraction c ~variant fname
    | None -> 0.0
  in
  if f <= 0.0 then M.compute m cost
  else begin
    let self = M.self m in
    let w0 = M.now m in
    let before = M.thread_phase m self M.slot_compute in
    M.compute m cost;
    let delta = M.thread_phase m self M.slot_compute -. before in
    M.reattribute m ~from_:M.slot_compute ~to_:(Pr.Phase.slot Pr.Phase.Sanitizer)
      (delta *. f);
    match nxe.cfg.tracer with
    | Some tc ->
      (* Sanitizer checks run between sync points, so each check is its
         own one-span trace; a0 carries the sanitizer share of the work. *)
      let id =
        Tx.record tc Tx.Sanitizer ~trace:(Tx.new_trace tc) ~parent:(-1)
          ~node:nxe.cfg.trace_node ~variant ~chan:(-1) ~pos:(-1) ~t0:w0 ~t1:(M.now m)
      in
      Tx.annotate tc id ~a0:(delta *. f) ~a1:0.0 ~a2:0.0
    | None -> ()
  end

(* Follower fetch compute: when the follower blocked, the futex round trip
   (resched) is bundled into the same compute call so the schedule matches
   the untagged engine; its share of the measured delta is reattributed. *)
let fetch_compute nxe ~blocked =
  let m = nxe.machine in
  let fc = nxe.cfg.fetch_cost in
  if not blocked then ph_compute m Pr.Phase.Fetch fc
  else begin
    let rc = nxe.cfg.resched_cost in
    let total = fc +. rc in
    let self = M.self m in
    let fslot = Pr.Phase.slot Pr.Phase.Fetch in
    let prev = M.set_phase m fslot in
    let before = M.thread_phase m self fslot in
    M.compute m total;
    let delta = M.thread_phase m self fslot -. before in
    ignore (M.set_phase m prev);
    if rc > 0.0 && total > 0.0 then
      M.reattribute m ~from_:fslot ~to_:(Pr.Phase.slot Pr.Phase.Resched)
        (delta *. (rc /. total))
  end

(* Chrome-trace lane for (channel, variant): one track per logical thread
   per variant, so publish/fetch spans line up visually. *)
let lane nxe chan ~variant = (chan.ch_id * nxe.n) + variant

(* Kick every parked thread so condition loops re-evaluate: used on abort
   and whenever a quarantine or restart changes who is being waited for. *)
let broadcast_all nxe =
  let m = nxe.machine in
  List.iter
    (fun ch ->
      M.Waitq.broadcast m ch.leader_q;
      Array.iter (M.Waitq.broadcast m) ch.fol_q)
    nxe.all_chans;
  List.iter (fun d -> Array.iter (M.Waitq.broadcast m) d.d_qs) nxe.all_dets

let fail nxe alert =
  if nxe.failed = None then begin
    nxe.failed <- Some alert;
    nxe.failed_at <- M.now nxe.machine;
    (match nxe.tel with
     | Some tel ->
       Tel.Counter.incr tel.t_alerts;
       Tel.instant tel.t_dom
         ~args:
           [
             ("variant", string_of_int alert.al_variant);
             ("expected", alert.al_expected);
             ("got", alert.al_got);
           ]
         ~ts:(M.now nxe.machine) ~cat:"nxe" "divergence"
     | None -> ());
    broadcast_all nxe
  end

let get_chan nxe path =
  match Hashtbl.find_opt nxe.chan_reg path with
  | Some c -> c
  | None ->
    let nf = nxe.n - 1 in
    let c =
      {
        ch_id = nxe.chan_count;
        ch_path = path;
        sl_sc = [||];
        sl_ready = [||];
        sl_arrived = [||];
        sl_first = [||];
        sl_last = [||];
        sl_lastv = [||];
        sl_sigdel = [||];
        sl_trace = [||];
        sl_span = [||];
        sl_len = 0;
        leader_pos = 0;
        leader_done = false;
        cursors = Array.make nf 0;
        fol_done = Array.make nf false;
        leader_q = M.Waitq.create ();
        fol_q = Array.init nf (fun _ -> M.Waitq.create ());
        tapes = Array.init nxe.n (fun _ -> F.Tape.create ~depth:nxe.cfg.recorder_depth);
      }
    in
    nxe.chan_count <- nxe.chan_count + 1;
    nxe.all_chans <- c :: nxe.all_chans;
    Hashtbl.replace nxe.chan_reg path c;
    (match nxe.tel with
     | Some tel ->
       for v = 0 to nxe.n - 1 do
         Tel.name_track tel.t_dom ~tid:(lane nxe c ~variant:v)
           (Printf.sprintf "%s v%d" path v)
       done
     | None -> ());
    c

let get_det nxe path =
  match Hashtbl.find_opt nxe.det_reg path with
  | Some d -> d
  | None ->
    let nf = nxe.n - 1 in
    let d =
      {
        d_order = Vec.create ();
        d_cursors = Array.make nf 0;
        d_qs = Array.init nf (fun _ -> M.Waitq.create ());
      }
    in
    nxe.all_dets <- d :: nxe.all_dets;
    Hashtbl.replace nxe.det_reg path d;
    d

(* Counter interning: the (proc path, variant) -> table lookup — a tuple
   allocation plus a string hash — happens once per thread at executor
   entry; per-op access is then an int-keyed lookup on the resolved
   table. *)
let counter_table nxe path variant =
  match Hashtbl.find_opt nxe.cnt_reg (path, variant) with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 4 in
    Hashtbl.replace nxe.cnt_reg (path, variant) t;
    t

let counter_ref (tbl : (int, int64 ref) Hashtbl.t) id =
  match Hashtbl.find_opt tbl id with
  | Some r -> r
  | None ->
    let r = ref 0L in
    Hashtbl.replace tbl id r;
    r

let get_pth nxe path variant =
  match Hashtbl.find_opt nxe.pth_reg (path, variant) with
  | Some p -> p
  | None ->
    let p = Pthreads.create () in
    Hashtbl.replace nxe.pth_reg (path, variant) p;
    p

let get_proc nxe path variant =
  match Hashtbl.find_opt nxe.proc_reg (path, variant) with
  | Some p -> p
  | None ->
    let p =
      M.new_proc nxe.machine
        ~cache_sensitivity:nxe.sensitivities.(variant)
        ~name:(Printf.sprintf "%s:%s" nxe.names.(variant) path)
        ~working_set:nxe.working_sets.(variant) ()
    in
    Hashtbl.replace nxe.proc_reg (path, variant) p;
    p

(* ------------------------------------------------------------------ *)
(* Syscall synchronization *)

let live_followers chan =
  Array.fold_left (fun acc d -> if d then acc else acc + 1) 0 chan.fol_done

let min_live_cursor chan =
  let best = ref max_int in
  Array.iteri
    (fun i c -> if (not chan.fol_done.(i)) && c < !best then best := c)
    chan.cursors;
  if !best = max_int then chan.leader_pos else !best

(* One leader publish releases every parked follower as a single batched
   scheduler operation (same wake order as per-queue broadcasts). *)
let wake_followers nxe chan = M.Waitq.broadcast_many nxe.machine chan.fol_q

(* ------------------------------------------------------------------ *)
(* Causal tracing.  The rendezvous root opens when the leader starts its
   check-in (widened back to the first arrival once known) and closes when
   the slot is fully retired: after the leader's release AND every live
   follower's consume — fetches happen post-release, so only that boundary
   lets fetch spans nest inside the root.  All recording is pure
   observation: nothing here touches the schedule, and with
   [config.tracer = None] every site compiles to a no-op test. *)

(* Every live (non-exited, non-quarantined) follower has consumed [pos]. *)
let slot_retired nxe chan pos =
  let all = ref true in
  Array.iteri
    (fun i c ->
      if c <= pos && (not chan.fol_done.(i)) && not nxe.v_quarantined.(i + 1) then
        all := false)
    chan.cursors;
  !all

(* Record the calling thread's last run-queue wait as a Sched_wait child
   of the slot's rendezvous root (dropped if it falls outside it).  Must
   be called before any further [M.compute]: the next burst dispatch
   overwrites the machine's last-wait stamps. *)
let trace_sched_wait nxe tc chan pos ~variant =
  let r0, r1 = M.last_ready_wait nxe.machine in
  if r1 > r0 then
    ignore
      (Tx.record_child tc Tx.Sched_wait ~parent:chan.sl_span.(pos)
         ~node:nxe.cfg.trace_node ~variant ~chan:chan.ch_id ~pos ~t0:r0 ~t1:r1)

(* ------------------------------------------------------------------ *)
(* Fault handling: benign-death / missed-heartbeat verdicts, quarantine,
   N-1 degradation and optional restart.  A fault is NOT a divergence: the
   monitor learns about it from waitpid or from silence, never from a
   mismatching syscall, so it gets its own verdict path and its incidents
   are stamped [F.Fault_isolation] instead of going through blame voting. *)

let monitor_proc nxe =
  match nxe.mon_proc with
  | Some p -> p
  | None ->
    (* Zero working set: the monitor must not perturb the cache model. *)
    let p = M.new_proc nxe.machine ~name:"nxe-monitor" ~working_set:0.0 () in
    nxe.mon_proc <- Some p;
    p

(* Blame vote of variant [v] at [pos]: its flight recorder if the entry is
   still retained, else the slot stream / cursor position. *)
let vote_at chan ~pos v =
  match F.Tape.find chan.tapes.(v) ~pos with
  | Some r -> F.Issued r
  | None ->
    let passed = if v = 0 then chan.leader_pos > pos else chan.cursors.(v - 1) > pos in
    let exited = if v = 0 then chan.leader_done else chan.fol_done.(v - 1) in
    if passed then
      if pos < chan.sl_len then begin
        let sc = chan.sl_sc.(pos) in
        (* Evicted from the tape: the slot stream still knows what was
           issued there, just not when. *)
        F.Issued { F.r_pos = pos; r_name = sc.Sc.name; r_args = sc.Sc.args; r_time = 0.0 }
      end
      else F.Pending
    else if exited then F.Exited
    else F.Pending

let incident_for nxe ~chan ~pos ~flagged ~expected ~got ?mismatch_override ~time () =
  F.build ?mismatch_override ~channel:chan.ch_id ~position:pos ~flagged ~expected ~got
    ~time
    ~votes:(Array.init nxe.n (vote_at chan ~pos))
    ~tapes:(Array.init nxe.n (fun v -> F.Tape.to_list chan.tapes.(v)))
    ()

(* Where did the victim go missing?  The first channel (in creation order)
   where it lags the leader; the root channel as a fallback. *)
let fault_site nxe variant =
  let chans = List.rev nxe.all_chans in
  let lagging c =
    if variant = 0 then not c.leader_done
    else (not c.fol_done.(variant - 1)) && c.cursors.(variant - 1) < c.leader_pos
  in
  let c = match List.find_opt lagging chans with Some c -> c | None -> List.hd chans in
  let pos = if variant = 0 then c.leader_pos else c.cursors.(variant - 1) in
  (c, pos)

let expected_at chan pos =
  if pos < chan.sl_len then Format.asprintf "%a" Sc.pp chan.sl_sc.(pos)
  else "<heartbeat>"

let cancel_variant nxe variant =
  Hashtbl.iter
    (fun (_, v) proc -> if v = variant then M.cancel_proc nxe.machine proc)
    nxe.proc_reg

let quarantine nxe ~variant ~cause =
  if not nxe.v_quarantined.(variant) then begin
    let now = M.now nxe.machine in
    let chan, pos = fault_site nxe variant in
    (* Build the incident before retiring the cursors, so the victim's vote
       reads Pending ("never arrived"), not Exited. *)
    let inc =
      incident_for nxe ~chan ~pos ~flagged:variant ~expected:(expected_at chan pos)
        ~got:(cause_string cause) ~mismatch_override:F.Fault_isolation ~time:now ()
    in
    nxe.fault_incidents <- inc :: nxe.fault_incidents;
    nxe.v_quarantined.(variant) <- true;
    nxe.v_dead.(variant) <- true;
    nxe.v_status.(variant) <-
      Quarantined { q_time = now; q_cause = cause; q_restarts = nxe.v_restarts.(variant) };
    (* Retire the victim's cursors on every channel: the leader stops
       waiting for it at lockstep points and the ring's min-live cursor no
       longer includes it, so the remaining N-1 keep running. *)
    List.iter (fun c -> c.fol_done.(variant - 1) <- true) nxe.all_chans;
    cancel_variant nxe variant;
    nxe.live_threads.(variant) <- 0;
    nxe.v_parked.(variant) <- 0;
    (match nxe.tel with
     | Some tel ->
       Tel.Counter.incr tel.t_quarantines;
       Tel.instant tel.t_dom
         ~args:[ ("variant", string_of_int variant); ("cause", cause_string cause) ]
         ~ts:now ~cat:"nxe" "quarantine"
     | None -> ());
    broadcast_all nxe
  end

let handle_fault nxe ~variant ~cause =
  if (not (aborted nxe)) && not nxe.v_quarantined.(variant) then begin
    let m = nxe.machine in
    let pol = nxe.cfg.fault_policy in
    let abort () =
      let chan, pos = fault_site nxe variant in
      let expected =
        match cause with
        | Missed_heartbeat _ ->
          Printf.sprintf "<heartbeat within %.0fus>" pol.heartbeat_timeout
        | Benign_death -> expected_at chan pos
      in
      let got = cause_string cause in
      nxe.fault_abort_incident <-
        Some
          (incident_for nxe ~chan ~pos ~flagged:variant ~expected ~got
             ~mismatch_override:F.Fault_isolation ~time:(M.now m) ());
      nxe.v_dead.(variant) <- true;
      fail nxe
        {
          al_channel = chan.ch_id;
          al_position = pos;
          al_variant = variant;
          al_expected = expected;
          al_got = got;
          al_expected_sc = None;
          al_got_sc = None;
        };
      (* A stalled fiber must not keep the clock running to its far-future
         wake-up: kill the victim's threads like the monitor would. *)
      cancel_variant nxe variant
    in
    if variant = 0 then
      (* Leader loss is fatal: followers only replay published slots, so
         there is no follower promotion (cf. DMON / dMVX, which elect a new
         leader; here the ring contents ARE the group's only ground truth). *)
      abort ()
    else begin
      match pol.policy with
      | Abort_on_fault -> abort ()
      | Quarantine -> quarantine nxe ~variant ~cause
      | Restart_once ->
        let first = nxe.v_restarts.(variant) = 0 in
        quarantine nxe ~variant ~cause;
        if first then begin
          nxe.v_restarts.(variant) <- 1;
          let mon = monitor_proc nxe in
          ignore
            (M.spawn m mon
               ~name:(Printf.sprintf "nxe-monitor:restart-v%d" variant)
               (fun () ->
                 M.sleep m pol.restart_backoff;
                 if not (aborted nxe) then nxe.restart_hook variant))
        end
    end
  end

(* Injections fire at per-variant ordinals of the synchronized-syscall
   stream, counted across all of the variant's threads in issue order.
   Latches ([f_done]) survive a restart, so a restarted variant replays its
   trace without the fault re-firing. *)
let apply_faults nxe ~variant sc =
  if Array.length nxe.faults = 0 then sc
  else begin
    let ord = nxe.sys_ord.(variant) in
    nxe.sys_ord.(variant) <- ord + 1;
    let m = nxe.machine in
    let injected () =
      match nxe.tel with
      | Some tel ->
        Tel.Counter.incr tel.t_faults;
        Tel.instant tel.t_dom
          ~args:[ ("variant", string_of_int variant) ]
          ~ts:(M.now m) ~cat:"nxe" "fault:injected"
      | None -> ()
    in
    let sc = ref sc in
    Array.iteri
      (fun k (inj : Faults.injection) ->
        if inj.Faults.i_variant = variant && (not (aborted nxe)) && not nxe.v_dead.(variant)
        then
          match inj.Faults.i_kind with
          | Faults.Stall ->
            if ord >= inj.Faults.i_at && nxe.f_done.(k) = 0 then begin
              nxe.f_done.(k) <- 1;
              injected ();
              M.sleep m stall_duration
            end
          | Faults.Die ->
            if ord >= inj.Faults.i_at && nxe.f_done.(k) = 0 then begin
              nxe.f_done.(k) <- 1;
              injected ();
              nxe.v_dead.(variant) <- true;
              (* The monitor hears about a death from waitpid, immediately:
                 no divergence detection is involved. *)
              handle_fault nxe ~variant ~cause:Benign_death
            end
          | Faults.Delay { d_each; d_count } ->
            if ord >= inj.Faults.i_at && nxe.f_done.(k) < d_count then begin
              if nxe.f_done.(k) = 0 then injected ();
              nxe.f_done.(k) <- nxe.f_done.(k) + 1;
              M.sleep m d_each
            end
          | Faults.Corrupt { c_arg; c_delta } ->
            if ord = inj.Faults.i_at && nxe.f_done.(k) = 0 then begin
              nxe.f_done.(k) <- 1;
              injected ();
              let args =
                List.mapi
                  (fun ai a -> if ai = c_arg then Int64.add a c_delta else a)
                  (!sc).Sc.args
              in
              sc := Sc.with_args !sc args
            end)
      nxe.faults;
    !sc
  end

let leader_sync nxe chan sc =
  let m = nxe.machine in
  let tid = lane nxe chan ~variant:0 in
  (match nxe.tel with
   | Some tel ->
     Tel.Counter.incr tel.t_publish;
     Tel.span_begin tel.t_dom ~tid ~args:[ ("sc", sc.Sc.name) ] ~ts:(M.now m) ~cat:"nxe"
       "publish"
   | None -> ());
  let pub_t0 = M.now m in
  ph_compute m Pr.Phase.Publish nxe.cfg.checkin_cost;
  let pos = chan.leader_pos in
  ensure_slot chan;
  let publish_now = M.now m in
  chan.sl_sc.(pos) <- sc;
  chan.sl_ready.(pos) <- false;
  chan.sl_arrived.(pos) <- 0;
  chan.sl_first.(pos) <- publish_now;
  chan.sl_last.(pos) <- publish_now;
  chan.sl_lastv.(pos) <- 0;
  chan.sl_sigdel.(pos) <- sc.Sc.name = "signal_delivery";
  (match nxe.cfg.tracer with
   | Some tc ->
     (* The rendezvous root: opens at the leader's check-in (widened back
        to the first arrival at completion), closes at full retirement.
        The ids stamped into the slot are the propagated context every
        later participant hangs its spans off. *)
     let trace = Tx.new_trace tc in
     let root =
       Tx.start tc Tx.Rendezvous ~trace ~parent:(-1) ~node:nxe.cfg.trace_node
         ~variant:(-1) ~chan:chan.ch_id ~pos ~t0:pub_t0
     in
     chan.sl_trace.(pos) <- trace;
     chan.sl_span.(pos) <- root;
     ignore
       (Tx.record_child tc Tx.Publish ~parent:root ~node:nxe.cfg.trace_node ~variant:0
          ~chan:chan.ch_id ~pos ~t0:pub_t0 ~t1:publish_now)
   | None ->
     chan.sl_trace.(pos) <- -1;
     chan.sl_span.(pos) <- -1);
  chan.sl_len <- pos + 1;
  F.Tape.record chan.tapes.(0) ~pos ~time:publish_now sc;
  touch nxe 0;
  chan.leader_pos <- pos + 1;
  nxe.synced <- nxe.synced + 1;
  let gap = pos - min_live_cursor chan in
  if Array.length chan.cursors > 0 then begin
    nxe.gap_sum <- nxe.gap_sum +. float_of_int gap;
    nxe.gap_count <- nxe.gap_count + 1;
    Tel.Hist.observe nxe.h_gap (float_of_int gap);
    if gap > nxe.gap_max then nxe.gap_max <- gap
  end;
  wake_followers nxe chan;
  let lockstep = nxe.cfg.mode = Strict_lockstep || Sc.is_lockstep_selected sc in
  let blocked = ref false in
  let wait_from = M.now m in
  if lockstep then begin
    nxe.locksteps <- nxe.locksteps + 1;
    (match nxe.tel with Some tel -> Tel.Counter.incr tel.t_locksteps | None -> ());
    (* Execute only after every live follower has arrived and agreed. *)
    let waiting = ref true in
    while !waiting do
      if aborted nxe then waiting := false
      else begin
        (* A follower that already exited can never arrive: sequence
           divergence (it saw fewer syscalls than the leader).  A
           quarantined follower is excused — its retirement is benign. *)
        for i = 0 to Array.length chan.fol_done - 1 do
          if chan.fol_done.(i) && (not nxe.v_quarantined.(i + 1)) && chan.cursors.(i) <= pos
          then
            fail nxe
              {
                al_channel = chan.ch_id;
                al_position = pos;
                al_variant = i + 1;
                al_expected = sc.Sc.name;
                al_got = "<exit>";
                al_expected_sc = Some sc;
                al_got_sc = None;
              }
        done;
        if (not (aborted nxe)) && chan.sl_arrived.(pos) < live_followers chan then begin
          blocked := true;
          nxe_wait nxe ~variant:0 chan.leader_q
        end
        else waiting := false
      end
    done;
    (* Rendezvous complete: every live follower has checked in, so the
       slot's arrival scalars are final — name the straggler. *)
    if not (aborted nxe) then begin
      let wait = Float.max 0.0 (chan.sl_last.(pos) -. chan.sl_first.(pos)) in
      (match nxe.cfg.tracer with
       | Some tc ->
         Tx.extend_t0 tc chan.sl_span.(pos) ~t0:chan.sl_first.(pos);
         if !blocked then begin
           trace_sched_wait nxe tc chan pos ~variant:0;
           ignore
             (Tx.record_child tc Tx.Lockstep_wait ~parent:chan.sl_span.(pos)
                ~node:nxe.cfg.trace_node ~variant:0 ~chan:chan.ch_id ~pos ~t0:wait_from
                ~t1:(M.now m))
         end
       | None -> ());
      (match nxe.profile with
       | Some c ->
         Pr.Collector.record c ~chan:chan.ch_id ~pos ~time:(M.now m)
           ~straggler:chan.sl_lastv.(pos) ~wait
       | None -> ());
      match nxe.tel with
      | Some tel when wait > 0.0 ->
        Tel.instant tel.t_dom ~tid
          ~args:
            [
              ("straggler", string_of_int chan.sl_lastv.(pos));
              ("wait_us", Printf.sprintf "%.3f" wait);
            ]
          ~ts:(M.now m) ~cat:"nxe" "straggler"
      | _ -> ()
    end
  end
  else begin
    (* Ring buffer: run ahead up to capacity. *)
    while (not (aborted nxe)) && chan.leader_pos - min_live_cursor chan > nxe.cfg.ring_capacity do
      blocked := true;
      nxe_wait nxe ~variant:0 chan.leader_q
    done
  end;
  if !blocked then Tel.Hist.observe nxe.h_wait (M.now m -. wait_from);
  if !blocked && not (aborted nxe) then ph_compute m Pr.Phase.Resched nxe.cfg.resched_cost;
  if not (aborted nxe) then begin
    ph_compute m Pr.Phase.Syscall_service (Sc.base_cost sc);
    chan.sl_ready.(pos) <- true;
    nxe.executed <- nxe.executed + 1;
    touch nxe 0;
    (match nxe.tel with
     | Some tel when lockstep ->
       Tel.instant tel.t_dom ~tid ~args:[ ("sc", sc.Sc.name) ] ~ts:(M.now m) ~cat:"nxe"
         "lockstep:release"
     | _ -> ());
    (match nxe.cfg.tracer with
     | Some tc ->
       Tx.extend_t0 tc chan.sl_span.(pos) ~t0:chan.sl_first.(pos);
       (* With no live follower left the leader is the last participant:
          retire the root here.  Otherwise the follower advancing the last
          cursor closes it (fetches happen after this release). *)
       if live_followers chan = 0 then Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
     | None -> ());
    wake_followers nxe chan
  end;
  match nxe.tel with
  | Some tel -> Tel.span_end tel.t_dom ~tid ~ts:(M.now m) ~cat:"nxe" "publish"
  | None -> ()

let rec follower_sync_body ?(on_signal = fun _ -> ()) nxe chan ~variant sc =
  let m = nxe.machine in
  let i = variant - 1 in
  let pos = chan.cursors.(i) in
  let blocked_for_slot = ref false in
  let wait_from = M.now m in
  while (not (aborted nxe)) && chan.leader_pos <= pos && not chan.leader_done do
    blocked_for_slot := true;
    nxe_wait nxe ~variant chan.fol_q.(i)
  done;
  if !blocked_for_slot then Tel.Hist.observe nxe.h_wait (M.now m -. wait_from);
  (* Capture the dispatch wait that ended the block now: the resched
     compute below would overwrite the machine's last-wait stamps.  The
     slot's span context is only valid past the wait (leader published). *)
  let rdy0, rdy1 =
    match nxe.cfg.tracer with
    | Some _ when !blocked_for_slot -> M.last_ready_wait m
    | _ -> (0.0, 0.0)
  in
  if !blocked_for_slot && not (aborted nxe) then
    ph_compute m Pr.Phase.Resched nxe.cfg.resched_cost;
  if aborted nxe then ()
  else if
    (* An asynchronous signal the leader took at this point: consume the
       delivery slot, run the handler at the equivalent position, retry.
       The marker test is a cached bool stamped at publish time. *)
    chan.leader_pos > pos
    && chan.sl_sigdel.(pos)
    && sc.Sc.name <> "signal_delivery"
  then begin
    chan.sl_arrived.(pos) <- chan.sl_arrived.(pos) + 1;
    M.Waitq.signal m chan.leader_q;
    while (not (aborted nxe)) && not chan.sl_ready.(pos) do
      nxe_wait nxe ~variant chan.fol_q.(i)
    done;
    if not (aborted nxe) then begin
      ph_compute m Pr.Phase.Fetch nxe.cfg.fetch_cost;
      chan.cursors.(i) <- pos + 1;
      touch nxe variant;
      (match nxe.cfg.tracer with
       | Some tc when chan.sl_span.(pos) >= 0 && slot_retired nxe chan pos ->
         Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
       | _ -> ());
      M.Waitq.signal m chan.leader_q;
      (match chan.sl_sc.(pos).Sc.args with
       | [ idx ] when Int64.to_int idx < Array.length nxe.signal_handlers ->
         on_signal nxe.signal_handlers.(Int64.to_int idx)
       | _ -> ());
      follower_sync_body ~on_signal nxe chan ~variant sc
    end
  end
  else if chan.leader_pos <= pos then begin
    (* Leader exited; this variant issues an extra syscall. *)
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) sc;
    fail nxe
      {
        al_channel = chan.ch_id;
        al_position = pos;
        al_variant = variant;
        al_expected = "<exit>";
        al_got = sc.Sc.name;
        al_expected_sc = None;
        al_got_sc = Some sc;
      }
  end
  else begin
    let exp_sc = chan.sl_sc.(pos) in
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) sc;
    if not (Sc.args_match exp_sc sc) then
      fail nxe
        {
          al_channel = chan.ch_id;
          al_position = pos;
          al_variant = variant;
          al_expected = Format.asprintf "%a" Sc.pp exp_sc;
          al_got = Format.asprintf "%a" Sc.pp sc;
          al_expected_sc = Some exp_sc;
          al_got_sc = Some sc;
        }
    else begin
      chan.sl_arrived.(pos) <- chan.sl_arrived.(pos) + 1;
      (* Arrival time is when the follower reached the sync point (before
         any blocking), so straggler attribution reflects who was late. *)
      if wait_from < chan.sl_first.(pos) then chan.sl_first.(pos) <- wait_from;
      if wait_from >= chan.sl_last.(pos) then begin
        chan.sl_last.(pos) <- wait_from;
        chan.sl_lastv.(pos) <- variant
      end;
      (match nxe.cfg.tracer with
       | Some tc when chan.sl_span.(pos) >= 0 ->
         (* Arrival edge: rendezvous open -> this variant reached the sync
            point (the straggler edge of the profiler, as a span).  A
            variant arriving before the root opened cannot be the
            straggler; record_child drops its inverted interval. *)
         ignore
           (Tx.record_child tc Tx.Arrival ~parent:chan.sl_span.(pos)
              ~node:nxe.cfg.trace_node ~variant ~chan:chan.ch_id ~pos
              ~t0:neg_infinity ~t1:wait_from);
         if rdy1 > rdy0 then
           ignore
             (Tx.record_child tc Tx.Sched_wait ~parent:chan.sl_span.(pos)
                ~node:nxe.cfg.trace_node ~variant ~chan:chan.ch_id ~pos ~t0:rdy0
                ~t1:rdy1)
       | _ -> ());
      (match nxe.tel with
       | Some tel ->
         Tel.instant tel.t_dom ~tid:(lane nxe chan ~variant)
           ~args:[ ("sc", sc.Sc.name) ] ~ts:(M.now m) ~cat:"nxe" "lockstep:arrive"
       | None -> ());
      M.Waitq.signal m chan.leader_q;
      let blocked = ref false in
      let ready_from = M.now m in
      while (not (aborted nxe)) && not chan.sl_ready.(pos) do
        blocked := true;
        nxe_wait nxe ~variant chan.fol_q.(i)
      done;
      if !blocked then Tel.Hist.observe nxe.h_wait (M.now m -. ready_from);
      if not (aborted nxe) then begin
        let fetch_t0 = M.now m in
        (match nxe.cfg.tracer with
         | Some tc when !blocked && chan.sl_span.(pos) >= 0 ->
           trace_sched_wait nxe tc chan pos ~variant
         | _ -> ());
        fetch_compute nxe ~blocked:!blocked;
        chan.cursors.(i) <- pos + 1;
        touch nxe variant;
        (match nxe.cfg.tracer with
         | Some tc when chan.sl_span.(pos) >= 0 ->
           ignore
             (Tx.record_child tc Tx.Fetch ~parent:chan.sl_span.(pos)
                ~node:nxe.cfg.trace_node ~variant ~chan:chan.ch_id ~pos ~t0:fetch_t0
                ~t1:(M.now m));
           (* The last consume retires the slot and closes the root. *)
           if slot_retired nxe chan pos then
             Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
         | _ -> ());
        M.Waitq.signal m chan.leader_q
      end
    end
  end

let follower_sync ?on_signal nxe chan ~variant sc =
  match nxe.tel with
  | None -> follower_sync_body ?on_signal nxe chan ~variant sc
  | Some tel ->
    let m = nxe.machine in
    let tid = lane nxe chan ~variant in
    Tel.Counter.incr tel.t_fetch;
    Tel.span_begin tel.t_dom ~tid ~args:[ ("sc", sc.Sc.name) ] ~ts:(M.now m) ~cat:"nxe"
      "fetch";
    follower_sync_body ?on_signal nxe chan ~variant sc;
    Tel.span_end tel.t_dom ~tid ~ts:(M.now m) ~cat:"nxe" "fetch"

(* Shared-memory propagation: like follower_sync, but the slot carries
   content to adopt rather than arguments to compare. *)
let follower_shared_fetch nxe chan ~variant ~pos dst =
  let m = nxe.machine in
  let i = variant - 1 in
  let blocked = ref false in
  let wait_from = M.now m in
  while (not (aborted nxe)) && chan.leader_pos <= pos && not chan.leader_done do
    blocked := true;
    nxe_wait nxe ~variant chan.fol_q.(i)
  done;
  if !blocked then Tel.Hist.observe nxe.h_wait (M.now m -. wait_from);
  if aborted nxe then ()
  else if chan.leader_pos <= pos then
    fail nxe
      {
        al_channel = chan.ch_id;
        al_position = pos;
        al_variant = variant;
        al_expected = "<exit>";
        al_got = "shared-memory access";
        al_expected_sc = None;
        al_got_sc = None;
      }
  else begin
    let exp_sc = chan.sl_sc.(pos) in
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) exp_sc;
    (match exp_sc.Sc.args with
     | [ _; content ] -> dst := content
     | _ ->
       fail nxe
         {
           al_channel = chan.ch_id;
           al_position = pos;
           al_variant = variant;
           al_expected = Format.asprintf "%a" Sc.pp exp_sc;
           al_got = "shared-memory access";
           al_expected_sc = Some exp_sc;
           al_got_sc = None;
         });
    if not (aborted nxe) then begin
      chan.sl_arrived.(pos) <- chan.sl_arrived.(pos) + 1;
      if wait_from < chan.sl_first.(pos) then chan.sl_first.(pos) <- wait_from;
      if wait_from >= chan.sl_last.(pos) then begin
        chan.sl_last.(pos) <- wait_from;
        chan.sl_lastv.(pos) <- variant
      end;
      M.Waitq.signal m chan.leader_q;
      let blocked2 = ref !blocked in
      let ready_from = M.now m in
      while (not (aborted nxe)) && not chan.sl_ready.(pos) do
        blocked2 := true;
        nxe_wait nxe ~variant chan.fol_q.(i)
      done;
      if M.now m > ready_from then Tel.Hist.observe nxe.h_wait (M.now m -. ready_from);
      if not (aborted nxe) then begin
        let fetch_t0 = M.now m in
        fetch_compute nxe ~blocked:!blocked2;
        chan.cursors.(i) <- pos + 1;
        touch nxe variant;
        (match nxe.cfg.tracer with
         | Some tc when chan.sl_span.(pos) >= 0 ->
           ignore
             (Tx.record_child tc Tx.Arrival ~parent:chan.sl_span.(pos)
                ~node:nxe.cfg.trace_node ~variant ~chan:chan.ch_id ~pos
                ~t0:neg_infinity ~t1:wait_from);
           ignore
             (Tx.record_child tc Tx.Fetch ~parent:chan.sl_span.(pos)
                ~node:nxe.cfg.trace_node ~variant ~chan:chan.ch_id ~pos ~t0:fetch_t0
                ~t1:(M.now m));
           if slot_retired nxe chan pos then
             Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
         | _ -> ());
        M.Waitq.signal m chan.leader_q
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Weak determinism: replay the leader's total order of locking-primitive
   operations (the synccall protocol of §4.2). *)

let det_order_op nxe det ~variant ~chan =
  if nxe.cfg.weak_determinism then begin
    let m = nxe.machine in
    (* The logical-thread id is the interned channel id: paths are unique
       per channel, so the int comparison below is exactly the old string
       comparison. *)
    let ltid = chan.ch_id in
    ph_compute m Pr.Phase.Synccall nxe.cfg.synccall_cost;
    if variant = 0 then begin
      Vec.push det.d_order ltid;
      nxe.order_len <- nxe.order_len + 1;
      touch nxe 0;
      M.Waitq.broadcast_many m det.d_qs
    end
    else begin
      let i = variant - 1 in
      while
        (not (aborted nxe))
        && not
             (det.d_cursors.(i) < Vec.length det.d_order
             && Vec.get det.d_order det.d_cursors.(i) = ltid)
      do
        nxe_wait nxe ~variant det.d_qs.(i)
      done;
      if not (aborted nxe) then begin
        det.d_cursors.(i) <- det.d_cursors.(i) + 1;
        nxe.replays <- nxe.replays + 1;
        touch nxe variant;
        (match nxe.tel with
         | Some tel ->
           Tel.Counter.incr tel.t_replays;
           Tel.instant tel.t_dom ~tid:(lane nxe chan ~variant) ~ts:(M.now m) ~cat:"nxe"
             "det:replay"
         | None -> ());
        M.Waitq.broadcast m det.d_qs.(i)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Asynchronous signals: the leader takes a signal at its next
   synchronized syscall and publishes a delivery marker; followers run the
   handler at the same logical position (the classic NVX delivery-point
   problem, solved at sync points). *)

let rec run_handler nxe ~variant ~chan ops =
  let m = nxe.machine in
  List.iter
    (fun op ->
      match op with
      | Trace.Work w -> do_work nxe ~variant w.func w.cost
      | Trace.Sys sc ->
        if Sc.is_synchronized sc then do_sys nxe ~variant ~chan sc
        else ph_compute m Pr.Phase.Syscall_service (Sc.base_cost sc)
      | _ -> () (* handlers are async-signal-safe: work and syscalls only *))
    ops

and deliver_due_signals nxe ~chan =
  (* Root channel, leader side only.  The pending-list emptiness test goes
     first — it is the common case — and the root test is the interned id
     (the root channel is always registered first, so its id is 0). *)
  match nxe.pending_signals with
  | [] -> ()
  | (t, idx) :: rest ->
    if chan.ch_id = 0 && t <= M.now nxe.machine then begin
      nxe.pending_signals <- rest;
      leader_sync nxe chan (Sc.with_args sc_signal_delivery [ Int64.of_int idx ]);
      if idx < Array.length nxe.signal_handlers then
        run_handler nxe ~variant:0 ~chan nxe.signal_handlers.(idx);
      deliver_due_signals nxe ~chan
    end

and do_sys nxe ~variant ~chan sc =
  let sc = apply_faults nxe ~variant sc in
  if nxe.v_dead.(variant) || aborted nxe then ()
  else if variant = 0 then begin
    deliver_due_signals nxe ~chan;
    leader_sync nxe chan sc
  end
  else
    follower_sync
      ~on_signal:(fun ops -> run_handler nxe ~variant ~chan ops)
      nxe chan ~variant sc

(* ------------------------------------------------------------------ *)
(* Thread executor *)

let rec exec_ops nxe ~variant ~chan ~ppath ~proc ~pth ~det ~in_main_init ops () =
  let m = nxe.machine in
  let in_main = ref in_main_init in
  let spawn_count = ref 0 in
  let fork_count = ref 0 in
  (* Resolved once per thread: shared-counter ops below touch only the
     int-keyed table, never the string-keyed registry. *)
  let cnts = counter_table nxe ppath variant in
  List.iter
    (fun op ->
      if (not (aborted nxe)) && not nxe.v_dead.(variant) then
        match op with
        | Trace.Work w -> do_work nxe ~variant w.func w.cost
        | Trace.Idle d -> M.sleep m d
        | Trace.Marker Trace.Main_entered -> in_main := true
        | Trace.Marker Trace.About_to_exit -> in_main := false
        | Trace.Sys sc ->
          if !in_main && Sc.is_synchronized sc then do_sys nxe ~variant ~chan sc
          else ph_compute m Pr.Phase.Syscall_service (Sc.base_cost sc)
        | Trace.Incr id ->
          (* An unguarded shared write: the interleaving across this
             variant's threads decides the value later syscalls expose. *)
          M.compute m 0.05;
          let r = counter_ref cnts id in
          r := Int64.add !r 1L
        | Trace.Sys_shared (sc, id) ->
          let v = !(counter_ref cnts id) in
          let sc = Sc.with_args sc (sc.Sc.args @ [ v ]) in
          if !in_main && Sc.is_synchronized sc then do_sys nxe ~variant ~chan sc
          else ph_compute m Pr.Phase.Syscall_service (Sc.base_cost sc)
        | Trace.Shared_read { region; counter } ->
          (* §3.3 shared-memory access: only the leader's mapping is
             written by the outside world.  With propagation on, the access
             faults on the poisoned shadow page and the content is copied
             leader -> followers like a syscall result; otherwise the
             follower reads its stale local copy. *)
          M.compute m 2.0 (* page-fault / access cost *);
          let dst = counter_ref cnts counter in
          if variant = 0 then begin
            let reads = counter_ref cnts (1000 + region) in
            reads := Int64.add !reads 1L;
            let world = Int64.add (Int64.mul !reads 7L) (Int64.of_int region) in
            dst := world;
            if nxe.cfg.sync_shared_memory then
              leader_sync nxe chan (Sc.with_args sc_synccall [ Int64.of_int region; world ])
          end
          else if nxe.cfg.sync_shared_memory then begin
            (* Consume the leader's slot; adopt its content instead of
               comparing (the local stale value legitimately differs). *)
            let pos = chan.cursors.(variant - 1) in
            follower_shared_fetch nxe chan ~variant ~pos dst
          end
          else dst := 0L (* stale local copy *)
        | Trace.Lock id ->
          det_order_op nxe det ~variant ~chan;
          pth_wait m (fun () -> Pthreads.lock m pth id)
        | Trace.Unlock id -> Pthreads.unlock m pth id
        | Trace.Barrier (id, expected) ->
          det_order_op nxe det ~variant ~chan;
          pth_wait m (fun () -> Pthreads.barrier m pth id expected)
        | Trace.Spawn sub ->
          let k = !spawn_count in
          incr spawn_count;
          ph_compute m Pr.Phase.Syscall_service sc_clone_cost;
          let child = get_chan nxe (Printf.sprintf "%s/s%d" chan.ch_path k) in
          (match nxe.tel with
           | Some tel ->
             Tel.Counter.incr tel.t_spawns;
             Tel.instant tel.t_dom ~tid:(lane nxe chan ~variant)
               ~args:[ ("child", child.ch_path) ] ~ts:(M.now m) ~cat:"nxe" "spawn"
           | None -> ());
          nxe.live_threads.(variant) <- nxe.live_threads.(variant) + 1;
          ignore
            (M.spawn m proc ~name:(Printf.sprintf "%s:t%s" nxe.names.(variant) child.ch_path)
               (exec_ops nxe ~variant ~chan:child ~ppath ~proc ~pth ~det
                  ~in_main_init:!in_main sub))
        | Trace.Fork sub ->
          let k = !fork_count in
          incr fork_count;
          ph_compute m Pr.Phase.Syscall_service sc_fork_cost;
          (* The child of the leader becomes the leader of the new execution
             group; followers' children become its followers (§3.3). *)
          let cpath = Printf.sprintf "%s/f%d" ppath k in
          let cproc = get_proc nxe cpath variant in
          let cchan = get_chan nxe (Printf.sprintf "%s/f%d" chan.ch_path k) in
          (match nxe.tel with
           | Some tel ->
             Tel.Counter.incr tel.t_forks;
             Tel.instant tel.t_dom ~tid:(lane nxe chan ~variant)
               ~args:[ ("group", cchan.ch_path) ] ~ts:(M.now m) ~cat:"nxe" "fork"
           | None -> ());
          let cpth = get_pth nxe cpath variant in
          let cdet = get_det nxe cpath in
          nxe.live_threads.(variant) <- nxe.live_threads.(variant) + 1;
          ignore
            (M.spawn m cproc ~name:(Printf.sprintf "%s:p%s" nxe.names.(variant) cpath)
               (exec_ops nxe ~variant ~chan:cchan ~ppath:cpath ~proc:cproc ~pth:cpth ~det:cdet
                  ~in_main_init:!in_main sub)))
    ops;
  (* Thread exit: channel end-of-stream bookkeeping. *)
  touch nxe variant;
  if variant = 0 then begin
    chan.leader_done <- true;
    wake_followers nxe chan
  end
  else begin
    chan.fol_done.(variant - 1) <- true;
    M.Waitq.signal m chan.leader_q
  end;
  (* Clamped: a quarantine zeroes the count while cancelled fibers never
     run this epilogue, but the Die victim's own fiber does. *)
  nxe.live_threads.(variant) <- max 0 (nxe.live_threads.(variant) - 1);
  if nxe.live_threads.(variant) = 0 && not nxe.v_quarantined.(variant) then
    match nxe.v_status.(variant) with
    | Quarantined { q_time; q_cause; _ } ->
      (* A restarted variant that ran its whole trace again is back in the
         fold: its checks count toward the union once more. *)
      nxe.v_status.(variant) <- Recovered { q_time; q_cause; r_time = M.now m }
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry points *)

let run_traces ?(config = default_config) ?machine_config ?on_machine ?working_sets
    ?sensitivities ?(signals = []) ?(faults = Faults.none) ?coverage ?profile ~names traces =
  let n = List.length traces in
  if n < 1 then invalid_arg "Nxe.run_traces: need at least one variant";
  if List.length names <> n then invalid_arg "Nxe.run_traces: names/traces length mismatch";
  (match profile with
   | Some c when Pr.Collector.variants c <> n ->
     invalid_arg "Nxe.run_traces: profile collector variant count mismatch"
   | _ -> ());
  let pol = config.fault_policy in
  if Float.is_nan pol.heartbeat_timeout || pol.heartbeat_timeout <= 0.0 then
    invalid_arg "Nxe.run_traces: heartbeat_timeout must be positive (infinity = off)";
  if pol.restart_backoff < 0.0 || not (Float.is_finite pol.restart_backoff) then
    invalid_arg "Nxe.run_traces: restart_backoff must be non-negative and finite";
  List.iter
    (fun (inj : Faults.injection) ->
      if inj.Faults.i_variant < 0 || inj.Faults.i_variant >= n then
        invalid_arg "Nxe.run_traces: fault injection victim out of range";
      if inj.Faults.i_at < 0 then
        invalid_arg "Nxe.run_traces: fault injection position must be >= 0")
    faults.Faults.p_injections;
  (match coverage with
   | Some cov when List.length cov <> n ->
     invalid_arg "Nxe.run_traces: coverage length mismatch"
   | _ -> ());
  List.iter
    (fun (label, c) ->
      if c < 0.0 || not (Float.is_finite c) then
        invalid_arg (Printf.sprintf "Nxe.run_traces: %s must be non-negative" label))
    [
      ("checkin_cost", config.checkin_cost);
      ("fetch_cost", config.fetch_cost);
      ("synccall_cost", config.synccall_cost);
      ("resched_cost", config.resched_cost);
    ];
  if config.recorder_depth < 1 then
    invalid_arg "Nxe.run_traces: recorder_depth must be >= 1";
  (* Capacity 0 would demand a slot be consumed before its publish returns,
     but followers only consume released slots — a guaranteed deadlock in
     selective mode, so reject it loudly instead.  Capacity 1 is the
     tightest legal ring: one unconsumed slot in flight (see the .mli). *)
  if config.ring_capacity < 1 then
    invalid_arg "Nxe.run_traces: ring_capacity must be >= 1";
  let working_sets =
    match working_sets with
    | Some ws ->
      if List.length ws <> n then invalid_arg "Nxe.run_traces: working_sets length mismatch";
      Array.of_list ws
    | None -> Array.make n 1.0
  in
  let sensitivities =
    match sensitivities with
    | Some ss ->
      if List.length ss <> n then invalid_arg "Nxe.run_traces: sensitivities length mismatch";
      Array.of_list ss
    | None -> Array.make n (Lazy.from_val 1.0)
  in
  let machine =
    match machine_config with
    | Some c -> M.create ~config:c ?telemetry:config.telemetry ()
    | None -> M.create ?telemetry:config.telemetry ()
  in
  (match on_machine with Some hook -> hook machine | None -> ());
  let tel =
    Option.map
      (fun sink ->
        {
          t_dom = Tel.domain sink ~name:"nxe";
          t_publish = Tel.counter sink "nxe.slot_publish";
          t_fetch = Tel.counter sink "nxe.slot_fetch";
          t_locksteps = Tel.counter sink "nxe.locksteps";
          t_replays = Tel.counter sink "nxe.det_replays";
          t_alerts = Tel.counter sink "nxe.divergence_alerts";
          t_forks = Tel.counter sink "nxe.forks";
          t_spawns = Tel.counter sink "nxe.spawns";
          t_faults = Tel.counter sink "nxe.faults_injected";
          t_quarantines = Tel.counter sink "nxe.quarantines";
          t_restarts = Tel.counter sink "nxe.restarts";
        })
      config.telemetry
  in
  (* Always-on: these feed [report.histograms], so they must not depend on
     whether a sink is attached.  Gap is in ring slots, wait in machine us. *)
  let h_gap =
    Tel.Hist.create ~buckets:[ 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ] ()
  in
  let h_wait =
    Tel.Hist.create
      ~buckets:[ 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 5000. ]
      ()
  in
  let h_heartbeat =
    Tel.Hist.create
      ~buckets:[ 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 5000.; 10000. ]
      ()
  in
  (match config.telemetry with
   | Some sink ->
     ignore (Tel.register_hist sink "nxe.syscall_gap" h_gap);
     ignore (Tel.register_hist sink "nxe.lockstep_wait_us" h_wait);
     ignore (Tel.register_hist sink "nxe.heartbeat_wait_us" h_heartbeat)
   | None -> ());
  let nxe =
    {
      cfg = config;
      n;
      machine;
      tel;
      h_gap;
      h_wait;
      working_sets;
      sensitivities;
      names = Array.of_list names;
      failed = None;
      failed_at = 0.0;
      chan_count = 0;
      all_chans = [];
      all_dets = [];
      chan_reg = Hashtbl.create 16;
      det_reg = Hashtbl.create 8;
      pth_reg = Hashtbl.create 8;
      cnt_reg = Hashtbl.create 8;
      proc_reg = Hashtbl.create 8;
      synced = 0;
      locksteps = 0;
      gap_sum = 0.0;
      gap_count = 0;
      gap_max = 0;
      order_len = 0;
      replays = 0;
      pending_signals =
        List.mapi (fun i (t, _) -> (t, i)) (List.sort compare signals);
      signal_handlers = Array.of_list (List.map snd (List.sort compare signals));
      faults = Array.of_list faults.Faults.p_injections;
      f_done = Array.make (List.length faults.Faults.p_injections) 0;
      sys_ord = Array.make n 0;
      v_dead = Array.make n false;
      v_quarantined = Array.make n false;
      v_status = Array.make n Healthy;
      v_restarts = Array.make n 0;
      v_parked = Array.make n 0;
      live_threads = Array.make n 0;
      last_progress = Array.make n 0.0;
      traces_arr = [||];
      mon_proc = None;
      restart_hook = (fun _ -> ());
      fault_incidents = [];
      fault_abort_incident = None;
      executed = 0;
      h_heartbeat;
      profile;
    }
  in
  nxe.traces_arr <- Array.of_list traces;
  let root_chan = get_chan nxe "c" in
  let root_det = get_det nxe "root" in
  let has_marker trace =
    List.exists (function Trace.Marker Trace.Main_entered -> true | _ -> false) trace
  in
  List.iteri
    (fun variant trace ->
      let proc = get_proc nxe "root" variant in
      let pth = get_pth nxe "root" variant in
      nxe.live_threads.(variant) <- nxe.live_threads.(variant) + 1;
      ignore
        (M.spawn machine proc
           ~name:(Printf.sprintf "%s:main" nxe.names.(variant))
           (exec_ops nxe ~variant ~chan:root_chan ~ppath:"root" ~proc ~pth ~det:root_det
              ~in_main_init:(not (has_marker trace)) trace)))
    traces;
  nxe.restart_hook <-
    (fun variant ->
      if (not (aborted nxe)) && nxe.v_quarantined.(variant) then begin
        (* Rewind the variant and replay its original trace from scratch:
           channel cursors, weak-determinism replay, private locks and
           shared counters all reset.  Injection latches persist, so the
           fault that killed it does not re-fire; retained slots are simply
           refetched during catch-up (slots are never evicted). *)
        nxe.v_quarantined.(variant) <- false;
        nxe.v_dead.(variant) <- false;
        nxe.sys_ord.(variant) <- 0;
        nxe.v_parked.(variant) <- 0;
        List.iter
          (fun c ->
            c.cursors.(variant - 1) <- 0;
            c.fol_done.(variant - 1) <- false)
          nxe.all_chans;
        List.iter (fun d -> d.d_cursors.(variant - 1) <- 0) nxe.all_dets;
        let keys tbl =
          Hashtbl.fold
            (fun ((_, v) as key) _ acc -> if v = variant then key :: acc else acc)
            tbl []
        in
        List.iter (Hashtbl.remove nxe.pth_reg) (keys nxe.pth_reg);
        List.iter (Hashtbl.remove nxe.cnt_reg) (keys nxe.cnt_reg);
        touch nxe variant;
        nxe.live_threads.(variant) <- 1;
        (match nxe.tel with
         | Some tel ->
           Tel.Counter.incr tel.t_restarts;
           Tel.instant tel.t_dom
             ~args:[ ("variant", string_of_int variant) ]
             ~ts:(M.now machine) ~cat:"nxe" "restart"
         | None -> ());
        let proc = get_proc nxe "root" variant in
        let pth = get_pth nxe "root" variant in
        let trace = nxe.traces_arr.(variant) in
        ignore
          (M.spawn machine proc
             ~name:(Printf.sprintf "%s:main:restart" nxe.names.(variant))
             (exec_ops nxe ~variant ~chan:root_chan ~ppath:"root" ~proc ~pth ~det:root_det
                ~in_main_init:(not (has_marker trace)) trace));
        broadcast_all nxe
      end);
  (* Heartbeat watchdog: a daemon monitor fiber with zero working set and
     zero compute, so attaching it never perturbs the group's schedule.  A
     variant is declared hung when it has unfinished threads, at least one
     of them is NOT parked at an NXE sync point (parked = waiting on peers,
     which is the engine's fault, not the variant's), and it has made no
     engine interaction for a full timeout.  The timeout must therefore
     exceed the longest legitimate syscall-free stretch of the workload. *)
  let hb = config.fault_policy.heartbeat_timeout in
  if Float.is_finite hb then begin
    let mon = monitor_proc nxe in
    ignore
      (M.spawn machine ~daemon:true mon ~name:"nxe-monitor:watchdog" (fun () ->
           let interval = hb /. 2.0 in
           while
             (not (aborted nxe)) && Array.exists (fun c -> c > 0) nxe.live_threads
           do
             M.sleep machine interval;
             if not (aborted nxe) then begin
               let now = M.now machine in
               for v = 0 to n - 1 do
                 if
                   nxe.live_threads.(v) > 0
                   && (not nxe.v_quarantined.(v))
                   && nxe.v_parked.(v) < nxe.live_threads.(v)
                 then begin
                   let silence = now -. nxe.last_progress.(v) in
                   Tel.Hist.observe nxe.h_heartbeat silence;
                   if silence >= hb then
                     handle_fault nxe ~variant:v ~cause:(Missed_heartbeat silence)
                 end
               done
             end
           done))
  end;
  (match M.run machine with
   | () -> ()
   | exception M.Deadlock msg ->
     (* After an abort, threads stuck on application locks are "killed" by
        the monitor; any other deadlock is a real bug. *)
     if not (aborted nxe) then raise (M.Deadlock msg));
  let variant_finish =
    List.init n (fun v ->
        Hashtbl.fold
          (fun (_, v') proc acc ->
            if v' = v then Float.max acc (M.proc_finish_time machine proc) else acc)
          nxe.proc_reg 0.0)
  in
  let variant_cpu =
    List.init n (fun v ->
        Hashtbl.fold
          (fun (_, v') proc acc ->
            if v' = v then acc +. M.proc_cpu_time machine proc else acc)
          nxe.proc_reg 0.0)
  in
  (* Fill the attribution collector: per-variant phase-bucket sums over
     every process of the variant (the monitor lives in its own proc and
     is never in [proc_reg], so it cannot pollute any variant's totals). *)
  (match nxe.profile with
   | Some c ->
     let vf = Array.of_list variant_finish and vc = Array.of_list variant_cpu in
     for v = 0 to n - 1 do
       let phases = Array.make M.phase_slots 0.0 in
       let thread_time = ref 0.0 in
       Hashtbl.iter
         (fun (_, v') proc ->
           if v' = v then begin
             let pp = M.proc_phases machine proc in
             Array.iteri (fun i x -> phases.(i) <- phases.(i) +. x) pp;
             thread_time := !thread_time +. M.proc_accounted_time machine proc
           end)
         nxe.proc_reg;
       Pr.Collector.fill_variant c ~variant:v ~name:nxe.names.(v) ~wall:vf.(v)
         ~thread_time:!thread_time ~cpu:vc.(v) phases
     done;
     Pr.Collector.fill_run c ~total_time:(M.stats machine).M.total_time
   | None -> ());
  (* Blame attribution: at an abort, every variant's flight recorder (plus
     the slot stream, for entries the bounded tapes already evicted) yields
     its vote at the divergent slot; the majority names the outlier.  A
     fault-driven abort already built its incident at detection time. *)
  let incident =
    match nxe.fault_abort_incident with
    | Some _ as inc -> inc
    | None -> (
      match nxe.failed with
      | None -> None
      | Some a -> (
        match List.find_opt (fun c -> c.ch_id = a.al_channel) nxe.all_chans with
        | None -> None
        | Some ch ->
          Some
            (incident_for nxe ~chan:ch ~pos:a.al_position ~flagged:a.al_variant
               ~expected:a.al_expected ~got:a.al_got ~time:nxe.failed_at ())))
  in
  (* Coverage loss (union-of-checks accounting): a check label is lost when
     every variant carrying it is quarantined — the surviving N-1 variants'
     union no longer contains it.  Recovered variants count as carrying. *)
  let coverage_loss =
    match coverage with
    | None -> []
    | Some cov ->
      let live_labels =
        List.sort_uniq compare
          (List.concat
             (List.mapi
                (fun v labels -> if nxe.v_quarantined.(v) then [] else labels)
                cov))
      in
      List.sort_uniq compare
        (List.concat
           (List.mapi
              (fun v labels ->
                if nxe.v_quarantined.(v) then
                  List.filter (fun l -> not (List.mem l live_labels)) labels
                else [])
              cov))
  in
  {
    outcome = (match nxe.failed with None -> `All_finished | Some a -> `Aborted a);
    incident;
    total_time = (M.stats machine).M.total_time;
    variant_finish;
    variant_cpu;
    synced_syscalls = nxe.synced;
    executed_syscalls = nxe.executed;
    lockstep_syscalls = nxe.locksteps;
    avg_syscall_gap =
      (if nxe.gap_count = 0 then 0.0 else nxe.gap_sum /. float_of_int nxe.gap_count);
    max_syscall_gap = nxe.gap_max;
    order_list_length = nxe.order_len;
    det_replays = nxe.replays;
    channels = nxe.chan_count;
    variant_status = Array.to_list nxe.v_status;
    coverage_loss;
    fault_incidents = List.rev nxe.fault_incidents;
    histograms =
      [
        ("syscall_gap", Tel.Hist.dump nxe.h_gap);
        ("lockstep_wait_us", Tel.Hist.dump nxe.h_wait);
        ("heartbeat_wait_us", Tel.Hist.dump nxe.h_heartbeat);
      ];
    machine_stats = M.stats machine;
  }

let run_builds ?config ?machine_config ?on_machine ?faults ?coverage ?profile
    ?(jitter = 0.0) ~seed builds =
  (* Per-variant compute skew: diversified binaries (distinct code layout,
     ASLR, different checks) never run cycle-identical.  The skew is
     systematic per (variant, function) — a function whose cache layout is
     unlucky in one variant stays slower there — which is what makes
     lockstep waits real.  Syscall sequences are untouched. *)
  let jitter_trace variant trace =
    if jitter <= 0.0 then trace
    else begin
      let factors : (string, float) Hashtbl.t = Hashtbl.create 64 in
      let factor func =
        match Hashtbl.find_opt factors func with
        | Some f -> f
        | None ->
          let h = Hashtbl.hash (seed, variant, func) in
          let rng = Bunshin_util.Rng.create h in
          let f = Bunshin_util.Rng.float_in rng (1.0 -. jitter) (1.0 +. jitter) in
          Hashtbl.replace factors func f;
          f
      in
      Trace.map_cost (fun func cost -> cost *. factor func) trace
    end
  in
  let traces = List.mapi (fun i b -> jitter_trace i (Program.build_trace b ~seed)) builds in
  let working_sets = List.map Program.build_working_set builds in
  let sensitivities =
    List.map (fun b -> lazy (1.0 /. (1.0 +. Program.overhead_of_build b))) builds
  in
  let names =
    List.mapi
      (fun i b -> Printf.sprintf "v%d-%s" i b.Program.prog.Program.name)
      builds
  in
  (* Per-(variant, function) sanitizer fractions let the executor split
     check execution out of compute without extra compute calls. *)
  (match profile with
   | Some c ->
     if Pr.Collector.workload c = "" then
       (match builds with
        | b :: _ -> Pr.Collector.set_workload c b.Program.prog.Program.name
        | [] -> ());
     List.iteri
       (fun v b ->
         List.iter
           (fun (fn : Program.func) ->
             let f = Pr.sanitizer_fraction b fn.Program.fn_name in
             if f > 0.0 then Pr.Collector.set_check_fraction c ~variant:v fn.Program.fn_name f)
           b.Program.prog.Program.funcs)
       builds
   | None -> ());
  run_traces ?config ?machine_config ?on_machine ?faults ?coverage ?profile ~working_sets
    ~sensitivities ~names traces
