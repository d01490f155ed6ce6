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
module Net = Bunshin_net.Net

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
  weak_determinism : bool;
  sync_shared_memory : bool;
  telemetry : Tel.sink option;
  fault_policy : fault_policy;
}

let default_config =
  {
    mode = Strict_lockstep;
    ring_capacity = 64;
    weak_determinism = true;
    sync_shared_memory = true;
    telemetry = None;
    fault_policy = default_policy;
  }

let selective = { default_config with mode = Selective_lockstep }

type ship_mode = Full_remote_lockstep | Selective | Selective_replicated

type placement = Round_robin | Pinned of int list

type net = {
  nodes : int;
  placement : placement;
  ship : ship_mode;
  link : Net.params;
  batch_slots : int;
}

type traffic = {
  tf_ship : int;
  tf_batch : int;
  tf_release : int;
  tf_ack : int;
  tf_flow : int;
  tf_order : int;
}

type net_report = {
  placed : int list;
  remote_checked : int;
  replicated_results : int;
  bytes_on_wire : int;
  msgs_on_wire : int;
  traffic : traffic;
  link_stats : (string * Net.stats) list;
  net_rtt : (float * int) list;
  node_stats : M.stats list;
}

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
let sanitizer_slot = Pr.Phase.slot Pr.Phase.Sanitizer

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
(* Net transport: wire sizing.  The byte model is deliberately simple and
   explicit: a fixed per-message header, per-slot metadata proportional to
   the argument vector (position, syscall number, a 16-byte digest, 8 bytes
   per argument), and a page-sized raw buffer whenever IO content must
   cross the wire.  What varies between ship modes is exactly WHICH of
   these components travel — that difference is the dMVX curve. *)

(* 24 bytes of transport/session header plus 8 bytes of causal-trace
   context (trace id + span id, 32-bit each) piggybacked on EVERY message
   unconditionally — the header reserves the field whether or not a
   sink is attached, so enabling tracing cannot change bytes-on-wire,
   schedules, or reports (the bit-identity guarantee). *)
let msg_hdr = 32
let io_payload = 4096
let slot_meta sc = 32 + (8 * List.length sc.Sc.args)

(* Lockstep ship (down): naive mode carries the raw write buffer so the
   remote check compares content; selective modes compare by digest. *)
let ship_bytes ship sc =
  msg_hdr + slot_meta sc
  + (match ship with
    | Full_remote_lockstep -> (
      match sc.Sc.klass with Sc.Io_write -> io_payload | _ -> 0)
    | Selective | Selective_replicated -> 0)

(* Lockstep release (down): result value; a read-like lockstep slot must
   also ship the buffer the leader read — in every mode (these are the
   security-sensitive ones). *)
let release_bytes sc =
  msg_hdr + 16 + (match sc.Sc.klass with Sc.Io_read -> io_payload | _ -> 0)

(* One entry of a batched non-sensitive slot message: metadata plus the
   result; read results ride along unless they are served from the
   follower node's local replica of the leader stream. *)
let batch_entry_bytes ship sc =
  slot_meta sc + 8
  + (match sc.Sc.klass with
    | Sc.Io_read when ship <> Selective_replicated -> io_payload
    | _ -> 0)

let ack_bytes = msg_hdr + 16
let flow_bytes = msg_hdr + 16
let order_entry_bytes = 16

(* The sensitive set: the syscalls that must be remote-checked before the
   leader may execute them — writes (the selective-lockstep set), process
   control, and socket control operations (dMVX's selective
   cross-checking).  Naive mode remote-checks everything. *)
let socket_ops = [ "socket"; "connect"; "bind"; "listen"; "accept"; "accept4"; "shutdown" ]

let is_sensitive ship sc =
  match ship with
  | Full_remote_lockstep -> true
  | Selective | Selective_replicated ->
    Sc.is_lockstep_selected sc
    || sc.Sc.klass = Sc.Process
    || List.mem sc.Sc.name socket_ops

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
     sl_ready    leader released the slot (result available, node-0 view)
     sl_arrived  followers checked in so far
     sl_first/sl_last/sl_lastv   straggler tracking — the leader's
       "arrival" is its publish time; followers stamp the time they
       entered the sync point, before blocking, so last - first is the
       group wait the straggler caused
     sl_sigdel   cached "is this a signal-delivery marker" so the fetch
       spin tests a bool, not a string
     sl_trace/sl_span   causal-trace context stamped by the leader at
       publish time ([-1] without a sink): the propagated ids that let
       followers — and, through link messages, remote nodes — attach
       their spans to the same rendezvous tree
     sl_ship     Net only: lockstep ship time, for the RTT histogram

   Slot columns are authoritative shared state (they model the content of
   messages, and sharing them keeps divergence verdicts structurally
   identical across transports).  What a follower on a REMOTE node may
   look at is gated by its node's delivery watermarks [rp_len] /
   [rp_released], which only ever advance from a Net delivery callback.
   The Net-only arrays are empty in-process. *)
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
  mutable sl_ship : float array;
  mutable sl_len : int;
  mutable leader_pos : int;
  mutable leader_done : bool;
  cursors : int array; (* per follower *)
  fol_done : bool array;
  kn : int array; (* Net, per follower: the LEADER'S wire-delayed knowledge of it *)
  last_ack : int array; (* Net, per follower: cursor value last flow-acked *)
  rp_len : int array; (* Net, per node: slots delivered (visible) there *)
  rp_released : int array; (* Net, per node: releases delivered there *)
  leader_q : M.Waitq.t;
  fol_q : M.Waitq.t array;
  tapes : F.Tape.t array;
  (* per-variant flight recorder: the last K slots each variant
     published/fetched on this channel, always on (allocation-free
     recording), so an abort can reconstruct who went off-script *)
}

(* Weak-determinism replay state: one per process path, shared by all
   variants (models the kernel module's order_list).  Order entries are
   interned channel ids — the replay spin compares ints, never paths. *)
type det = {
  d_order : int Vec.t;   (* ltids (as channel ids) in leader acquisition order *)
  d_cursors : int array; (* per follower variant *)
  d_qs : M.Waitq.t array; (* per follower variant *)
  rd_len : int array; (* Net, per node: entries delivered there *)
}

(* Trace handle: present only when [config.telemetry] is set.  The
   histograms below are NOT here — they are always-on (they feed
   [report.histograms]) so enabling tracing cannot change the report. *)
type tel = {
  t_rec : Tx.t; (* the sink's span store *)
  t_dom : int; (* this run's "nxe" domain in it *)
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

(* Per-remote-node outbox of batched stream entries.  Contiguous runs on
   the same channel / order list coalesce into one watermark item, so a
   batch of K slots is one message and one list walk at delivery. *)
type ob_item =
  | Ob_slots of chan * int (* watermark: slots below are delivered+released *)
  | Ob_order of det * int (* watermark: order entries below are delivered *)

type outbox = {
  mutable ob_items : ob_item list; (* newest first *)
  mutable ob_slots : int;
  mutable ob_bytes : int;
  mutable ob_span : int; (* causal context of the newest appended slot *)
}

(* The Net transport's own state; absent in-process. *)
type wire = {
  spec : net;
  links : Net.t;
  down : Net.link array; (* index k-1: node 0 -> node k *)
  up : Net.link array; (* index k-1: node k -> node 0 *)
  outboxes : outbox array; (* index k-1 *)
  mutable remote_checked : int;
  mutable replicated : int;
  mutable tf_ship : int;
  mutable tf_batch : int;
  mutable tf_release : int;
  mutable tf_ack : int;
  mutable tf_flow : int;
  mutable tf_order : int;
}

type t = {
  cfg : config;
  n : int;
  machines : M.t array; (* per node; node 0 hosts the leader and the monitor *)
  place : int array; (* variant -> node; all 0 in-process *)
  wire : wire option;
  tel : tel option;
  h_gap : Tel.Hist.t;  (* leader run-ahead distance, slots *)
  h_wait : Tel.Hist.t; (* blocked time at sync points, us *)
  working_sets : float array;
  sensitivities : float Lazy.t array;
  names : string array;
  mutable failed : alert option;
  mutable failed_at : float; (* node-0 time of the abort *)
  mutable killed : (unit -> unit) option; (* the first kill's alarm, raised when reaped *)
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

(* Amortized-doubling growth of the slot columns; slots are never evicted
   (a restarted variant refetches), exactly like the Vec they replace. *)
let ensure_slot nxe chan =
  let cap = Array.length chan.sl_ready in
  if chan.sl_len = cap then begin
    let ncap = max 4 (2 * cap) in
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
    chan.sl_span <- grow_i chan.sl_span;
    match nxe.wire with Some _ -> chan.sl_ship <- grow_f chan.sl_ship | None -> ()
  end

let aborted nxe = nxe.failed <> None
let machine_of nxe variant = nxe.machines.(nxe.place.(variant))

(* Heartbeat: any interaction with the engine proves the variant alive. *)
let touch nxe variant = nxe.last_progress.(variant) <- M.now (machine_of nxe variant)

(* A thread parked at an NXE sync point is waiting on its peers, not hung:
   the watchdog must not count its silence against the variant.  All NXE
   waits are condition loops, so the accounting survives spurious wakes. *)
let nxe_wait nxe ~variant q =
  let m = machine_of nxe variant in
  nxe.v_parked.(variant) <- nxe.v_parked.(variant) + 1;
  let prev = M.set_wait_phase m (Pr.Phase.slot Pr.Phase.Lockstep_wait) in
  M.Waitq.wait m q;
  ignore (M.set_wait_phase m prev);
  nxe.v_parked.(variant) <- nxe.v_parked.(variant) - 1

(* Work with the sanitizer share carved out: a single compute call (burst
   boundaries, and hence the schedule, are exactly those of an untagged
   run); the variant's check fraction of the measured delta is then moved
   from Compute to Sanitizer post-hoc. *)
let do_work nxe ~variant fname cost =
  let m = machine_of nxe variant in
  let f =
    match nxe.profile with
    | Some c -> Pr.Collector.check_fraction c ~variant fname
    | None -> 0.0
  in
  if f <= 0.0 then M.compute m cost
  else begin
    match nxe.tel with
    | None -> ignore (M.compute_share m cost ~from_:M.slot_compute ~to_:sanitizer_slot f)
    | Some { t_rec = tc; _ } ->
      let w0 = M.now m in
      let moved = M.compute_share m cost ~from_:M.slot_compute ~to_:sanitizer_slot f in
      (* Sanitizer checks run between sync points, so each check is its
         own one-span trace; a0 carries the sanitizer share of the work. *)
      let id =
        Tx.record tc Tx.Sanitizer ~trace:(Tx.new_trace tc) ~parent:(-1)
          ~node:nxe.place.(variant) ~variant ~chan:(-1) ~pos:(-1) ~t0:w0 ~t1:(M.now m)
      in
      Tx.annotate tc id ~a0:moved ~a1:0.0 ~a2:0.0
  end

(* µs for a follower to consume a slot. *)
let fetch_cost = 0.25

(* µs of futex sleep/wake round trip plus scheduler latency: paid whenever
   a party actually blocks at a sync point — the "scheduled in and out of
   the CPU" cost that makes strict lockstep dearer (§3.3). *)
let resched_cost = 0.25

(* Follower fetch compute: when the follower blocked, the futex round trip
   (resched) is bundled into the same compute call so the schedule matches
   the untagged engine; its share of the measured delta is reattributed. *)
let fetch_resched_cost = fetch_cost +. resched_cost
let resched_share = resched_cost /. fetch_resched_cost

let fetch_compute m ~blocked =
  if not blocked then ph_compute m Pr.Phase.Fetch fetch_cost
  else begin
    let fslot = Pr.Phase.slot Pr.Phase.Fetch in
    let prev = M.set_phase m fslot in
    ignore
      (M.compute_share m fetch_resched_cost ~from_:fslot
         ~to_:(Pr.Phase.slot Pr.Phase.Resched) resched_share);
    ignore (M.set_phase m prev)
  end

(* Chrome-trace lane for (channel, variant): one track per logical thread
   per variant, so a variant's event marks line up visually. *)
let lane nxe chan ~variant = (chan.ch_id * nxe.n) + variant

(* An NXE event instant in the sink's recorder. *)
let note tel ~tid ~variant ~key ~text ~ts name =
  Tx.mark tel.t_rec ~domain:tel.t_dom ~tid ~variant ~key ~text ~value:nan ~ts name

(* Wake every follower queue of [qs] (indexed by follower).  A wait queue
   belongs to the machine its waiters run on: in-process that is one
   batched scheduler operation (same wake order as per-queue broadcasts);
   over the Net each wake names the follower's node.  Wakes are the
   monitor plane — shared state, no wire bytes. *)
let wake_all nxe qs =
  match nxe.wire with
  | None -> M.Waitq.broadcast_many nxe.machines.(0) qs
  | Some _ -> Array.iteri (fun i q -> M.Waitq.broadcast (machine_of nxe (i + 1)) q) qs

(* Wake the followers of [qs] (indexed by follower) placed on node [k]. *)
let wake_node nxe qs k =
  let m = nxe.machines.(k) in
  for i = 0 to Array.length qs - 1 do
    if nxe.place.(i + 1) = k then M.Waitq.broadcast m qs.(i)
  done

(* The leader's publish, release and order-append wakes: only followers
   on node 0 can be waiting for what these change.  A follower on node
   k > 0 waits on its node's delivery watermarks, which only a Net
   delivery moves, and each delivery wakes that node's followers. *)
let wake_local nxe qs =
  match nxe.wire with
  | None -> M.Waitq.broadcast_many nxe.machines.(0) qs
  | Some _ -> wake_node nxe qs 0

(* Kick every parked thread so condition loops re-evaluate: used on abort
   and whenever a quarantine or restart changes who is being waited for. *)
let broadcast_all nxe =
  List.iter
    (fun ch ->
      M.Waitq.broadcast nxe.machines.(0) ch.leader_q;
      wake_all nxe ch.fol_q)
    nxe.all_chans;
  List.iter (fun d -> wake_all nxe d.d_qs) nxe.all_dets

let fail nxe alert =
  if nxe.failed = None then begin
    let now = M.now nxe.machines.(0) in
    nxe.failed <- Some alert;
    nxe.failed_at <- now;
    (match nxe.tel with
     | Some tel ->
       Tel.Counter.incr tel.t_alerts;
       note tel ~tid:0 ~variant:alert.al_variant ~key:"got" ~text:alert.al_got ~ts:now
         "divergence"
     | None -> ());
    broadcast_all nxe
  end

(* A divergence at [pos] of [chan], blamed on [variant]. *)
let diverge nxe chan ~pos ~variant ~expected ~got ?exp_sc ?got_sc () =
  fail nxe
    {
      al_channel = chan.ch_id;
      al_position = pos;
      al_variant = variant;
      al_expected = expected;
      al_got = got;
      al_expected_sc = exp_sc;
      al_got_sc = got_sc;
    }

(* Size of the Net-only per-follower and per-node arrays: zero in-process. *)
let wire_dims nxe =
  match nxe.wire with None -> (0, 0) | Some _ -> (nxe.n - 1, Array.length nxe.machines)

(* Slots the divergence flight recorder retains per (channel, variant). *)
let recorder_depth = 16

let get_chan nxe path =
  match Hashtbl.find_opt nxe.chan_reg path with
  | Some c -> c
  | None ->
    let nf = nxe.n - 1 in
    let wf, wn = wire_dims nxe in
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
        sl_ship = [||];
        sl_len = 0;
        leader_pos = 0;
        leader_done = false;
        cursors = Array.make nf 0;
        (* A variant quarantined before this channel existed never joins
           it; restart clears every channel's flag. *)
        fol_done = Array.init nf (fun i -> nxe.v_quarantined.(i + 1));
        kn = Array.make wf 0;
        last_ack = Array.make wf 0;
        rp_len = Array.make wn 0;
        rp_released = Array.make wn 0;
        leader_q = M.Waitq.create ();
        fol_q = Array.init nf (fun _ -> M.Waitq.create ());
        tapes = Array.init nxe.n (fun _ -> F.Tape.create ~depth:recorder_depth);
      }
    in
    nxe.chan_count <- nxe.chan_count + 1;
    nxe.all_chans <- c :: nxe.all_chans;
    Hashtbl.replace nxe.chan_reg path c;
    (match nxe.tel with
     | Some tel ->
       for v = 0 to nxe.n - 1 do
         Tx.name_track tel.t_rec ~domain:tel.t_dom ~tid:(lane nxe c ~variant:v)
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
        rd_len = Array.make (snd (wire_dims nxe)) 0;
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
      M.new_proc (machine_of nxe variant)
        ~cache_sensitivity:nxe.sensitivities.(variant)
        ~name:(nxe.names.(variant) ^ ":" ^ path)
        ~working_set:nxe.working_sets.(variant) ()
    in
    Hashtbl.replace nxe.proc_reg (path, variant) p;
    p

(* ------------------------------------------------------------------ *)
(* Syscall synchronization *)

let live_followers chan =
  Array.fold_left (fun acc d -> if d then acc else acc + 1) 0 chan.fol_done

(* Lowest cursor among live followers ([leader_pos] when none is live).
   With [~known], a remote follower counts at its last flow-acked cursor:
   the leader's run-ahead bound uses what it KNOWS, and the wire delay of
   flow acks is part of the model.  In-process every follower is local. *)
let min_live_cursor ?(known = false) nxe chan =
  let best = ref max_int in
  for i = 0 to Array.length chan.cursors - 1 do
    if not chan.fol_done.(i) then begin
      let c = if known && nxe.place.(i + 1) <> 0 then chan.kn.(i) else chan.cursors.(i) in
      if c < !best then best := c
    end
  done;
  if !best = max_int then chan.leader_pos else !best

(* ------------------------------------------------------------------ *)
(* Causal tracing.  The rendezvous root opens when the leader starts its
   check-in (widened back to the first arrival once known) and closes when
   the slot is fully retired: after the leader's release AND every live
   follower's consume — fetches happen post-release, so only that boundary
   lets fetch spans nest inside the root.  Spans carry the node of the
   variant that records them.  All recording is pure observation: nothing
   here touches the schedule, and without a sink every site compiles to a
   no-op test. *)

(* Every live follower has consumed [pos].  A quarantined follower is
   done on every channel, including those created after its quarantine. *)
let slot_retired chan pos =
  let all = ref true in
  Array.iteri (fun i c -> if c <= pos && not chan.fol_done.(i) then all := false) chan.cursors;
  !all

(* Close [pos]'s rendezvous root once the slot is retired.  A root closes
   once: a restarted follower refetching a retired slot leaves it alone. *)
let close_root tc chan pos ~t1 =
  let root = chan.sl_span.(pos) in
  if Tx.is_open tc root && slot_retired chan pos then Tx.finish tc root ~t1

(* A run-queue wait [r0, r1] of [variant] as a Sched_wait child of the
   slot's rendezvous root (dropped if empty or outside the root). *)
let trace_ready_wait nxe tc chan pos ~variant (r0, r1) =
  if r1 > r0 then
    ignore
      (Tx.record_child tc Tx.Sched_wait ~parent:chan.sl_span.(pos)
         ~node:nxe.place.(variant) ~variant ~chan:chan.ch_id ~pos ~t0:r0 ~t1:r1)

(* The calling thread's last run-queue wait.  Must be called before any
   further [M.compute]: the next burst dispatch overwrites the machine's
   last-wait stamps. *)
let trace_sched_wait nxe tc chan pos ~variant =
  trace_ready_wait nxe tc chan pos ~variant (M.last_ready_wait (machine_of nxe variant))

(* A follower consumes released slot [pos]: fetch compute, cursor advance,
   and the Fetch span (after an Arrival edge ending at [arrived_at], for a
   shared-memory fetch) — the last consume retires the slot and closes the
   rendezvous root. *)
let consume ?arrived_at nxe m chan ~variant ~pos ~blocked =
  let fetch_t0 = M.now m in
  fetch_compute m ~blocked;
  chan.cursors.(variant - 1) <- pos + 1;
  touch nxe variant;
  match nxe.tel with
  | Some { t_rec = tc; _ } when chan.sl_span.(pos) >= 0 ->
    (match arrived_at with
     | Some t1 ->
       ignore
         (Tx.record_child tc Tx.Arrival ~parent:chan.sl_span.(pos) ~node:nxe.place.(variant)
            ~variant ~chan:chan.ch_id ~pos ~t0:neg_infinity ~t1)
     | None -> ());
    ignore
      (Tx.record_child tc Tx.Fetch ~parent:chan.sl_span.(pos) ~node:nxe.place.(variant)
         ~variant ~chan:chan.ch_id ~pos ~t0:fetch_t0 ~t1:(M.now m));
    close_root tc chan pos ~t1:(M.now m)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Net transport: outboxes, flushes and delivery callbacks.  Every
   cross-node datum flows through a Net link (timed machine posts), and
   its delivery callback only ever advances monotone watermarks. *)

(* A node still worth shipping to: it hosts at least one follower that is
   neither quarantined nor finished.  Streams to retired nodes are
   discarded — no bytes, no clock advance on a dead machine. *)
let node_active nxe k =
  let act = ref false in
  for v = 1 to nxe.n - 1 do
    if nxe.place.(v) = k && (not nxe.v_quarantined.(v)) && nxe.live_threads.(v) > 0
    then act := true
  done;
  !act

(* µs of CPU to marshal one message, charged to the sender. *)
let msg_cost = 0.5

(* Flush one node's outbox as a single batched message.  Always called
   from a leader fiber on node 0.  Delivery walks the items in append
   order and only advances monotone watermarks — re-delivery or overlap
   with a lockstep ship can never move a watermark backwards. *)
let flush_node nxe w k =
  let ob = w.outboxes.(k - 1) in
  if ob.ob_items <> [] then begin
    let items = List.rev ob.ob_items in
    let bytes = msg_hdr + ob.ob_bytes in
    let span = ob.ob_span in
    ob.ob_items <- [];
    ob.ob_slots <- 0;
    ob.ob_bytes <- 0;
    ob.ob_span <- -1;
    if node_active nxe k then begin
      M.compute nxe.machines.(0) msg_cost;
      (match w.spec.ship with
       | Full_remote_lockstep -> w.tf_order <- w.tf_order + bytes
       | Selective | Selective_replicated -> w.tf_batch <- w.tf_batch + bytes);
      Net.send_traced w.links w.down.(k - 1) ~bytes ~span ~node:k (fun () ->
          List.iter
            (fun item ->
              match item with
              | Ob_slots (c, hi) ->
                if hi > c.rp_len.(k) then c.rp_len.(k) <- hi;
                if hi > c.rp_released.(k) then c.rp_released.(k) <- hi;
                wake_node nxe c.fol_q k
              | Ob_order (d, hi) ->
                if hi > d.rd_len.(k) then d.rd_len.(k) <- hi;
                wake_node nxe d.d_qs k)
            items)
    end
  end

let flush_all nxe w =
  for k = 1 to Array.length nxe.machines - 1 do
    flush_node nxe w k
  done

(* Append one executed non-sensitive slot to node [k]'s stream; batched
   slots arrive pre-released (the leader already executed them). *)
let append_slot nxe w k chan ~pos sc =
  let ob = w.outboxes.(k - 1) in
  (match ob.ob_items with
   | Ob_slots (c, _) :: rest when c == chan ->
     ob.ob_items <- Ob_slots (chan, pos + 1) :: rest
   | items -> ob.ob_items <- Ob_slots (chan, pos + 1) :: items);
  ob.ob_slots <- ob.ob_slots + 1;
  ob.ob_bytes <- ob.ob_bytes + batch_entry_bytes w.spec.ship sc;
  (* The batch message carries the context of its newest slot: by the time
     it flushes, earlier slots' rendezvous roots have already closed. *)
  if pos < Array.length chan.sl_span && chan.sl_span.(pos) >= 0 then
    ob.ob_span <- chan.sl_span.(pos);
  if ob.ob_slots >= w.spec.batch_slots then flush_node nxe w k

let append_order nxe w k det ~hi =
  let ob = w.outboxes.(k - 1) in
  (match ob.ob_items with
   | Ob_order (d, _) :: rest when d == det -> ob.ob_items <- Ob_order (det, hi) :: rest
   | items -> ob.ob_items <- Ob_order (det, hi) :: items);
  ob.ob_bytes <- ob.ob_bytes + order_entry_bytes;
  (* Naive mode has no slot batches to ride on: each order entry is its
     own message, like the per-operation synccall it models. *)
  if w.spec.ship = Full_remote_lockstep then flush_node nxe w k

(* Follower -> leader flow-control ack: pushes the follower's consumption
   cursor into the leader's knowledge ([kn]), releasing ring capacity.
   Sent every [flow_ack_every] consumed slots, and additionally whenever
   the follower is about to park with unacked consumption — that bound on
   staleness is what makes the capacity wait deadlock-free. *)
let flow_ack_every = 16

let send_flow nxe w chan ~variant =
  let i = variant - 1 in
  let node = nxe.place.(variant) in
  let cur = chan.cursors.(i) in
  chan.last_ack.(i) <- cur;
  M.compute nxe.machines.(node) msg_cost;
  w.tf_flow <- w.tf_flow + flow_bytes;
  Net.send w.links w.up.(node - 1) ~bytes:flow_bytes (fun () ->
      if cur > chan.kn.(i) then chan.kn.(i) <- cur;
      M.Waitq.broadcast nxe.machines.(0) chan.leader_q)

let maybe_flow nxe w chan ~variant =
  let i = variant - 1 in
  if chan.cursors.(i) - chan.last_ack.(i) >= flow_ack_every then
    send_flow nxe w chan ~variant

(* Leader, before a rendezvous.  Everything a remote follower needs to
   REACH it — batched slots, order entries — was appended strictly
   earlier, so flushing here (before the leader can block) keeps the wait
   acyclic; then the slot itself ships to every active node. *)
let ship_slot nxe w chan ~pos sc =
  let m = nxe.machines.(0) in
  flush_all nxe w;
  chan.sl_ship.(pos) <- M.now m;
  for k = 1 to Array.length nxe.machines - 1 do
    if node_active nxe k then begin
      M.compute m msg_cost;
      let bytes = ship_bytes w.spec.ship sc in
      w.tf_ship <- w.tf_ship + bytes;
      Net.send_traced w.links w.down.(k - 1) ~bytes ~span:chan.sl_span.(pos) ~node:k
        (fun () ->
          if pos + 1 > chan.rp_len.(k) then chan.rp_len.(k) <- pos + 1;
          wake_node nxe chan.fol_q k)
    end
  done

(* Leader, after executing a slot: a rendezvous slot's release is its own
   message; any other slot joins each active node's batch. *)
let release_slot nxe w chan ~pos ~lockstep sc =
  let m = nxe.machines.(0) in
  for k = 1 to Array.length nxe.machines - 1 do
    if node_active nxe k then
      if lockstep then begin
        M.compute m msg_cost;
        let bytes = release_bytes sc in
        w.tf_release <- w.tf_release + bytes;
        Net.send_traced w.links w.down.(k - 1) ~bytes ~span:chan.sl_span.(pos) ~node:k
          (fun () ->
            if pos + 1 > chan.rp_released.(k) then chan.rp_released.(k) <- pos + 1;
            if pos + 1 > chan.rp_len.(k) then chan.rp_len.(k) <- pos + 1;
            wake_node nxe chan.fol_q k)
      end
      else append_slot nxe w k chan ~pos sc
  done

(* Flushing charges msg_cost, and a flow ack can land during that compute:
   the ring wait re-checks before parking so the wakeup is not lost. *)
let outbox_pending nxe =
  match nxe.wire with
  | None -> false
  | Some w -> Array.exists (fun ob -> ob.ob_items <> []) w.outboxes

(* ------------------------------------------------------------------ *)
(* Fault handling: benign-death / missed-heartbeat verdicts, quarantine,
   N-1 degradation and optional restart.  A fault is NOT a divergence: the
   monitor learns about it from waitpid or from silence, never from a
   mismatching syscall, so it gets its own verdict path and its incidents
   are stamped [F.Fault_isolation] instead of going through blame voting.
   The monitor plane is shared state on node 0, so a remote quarantine
   produces the exact incident and coverage accounting a local one does. *)

let monitor_proc nxe =
  match nxe.mon_proc with
  | Some p -> p
  | None ->
    (* Zero working set: the monitor must not perturb the cache model. *)
    let p = M.new_proc nxe.machines.(0) ~name:"nxe-monitor" ~working_set:0.0 () in
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

(* Divergence evidence must not depend on how far anyone ran ahead: under
   selective lockstep the leader, and over the Net followers on other
   nodes, may be past the diverging slot when the check fails, so a live
   recorder snapshot would show run-ahead entries strict lockstep can
   never contain.  Rebuild the window ending at the divergence instead —
   recorded entries where the recorder still holds them, slot-stream
   reconstructions for positions the variant already passed (a passed
   check means it issued exactly the leader's syscall there). *)
let divergence_tape chan ~pos v =
  let lo = max 0 (pos - recorder_depth + 1) in
  let recorded = F.Tape.to_list chan.tapes.(v) in
  let passed p = if v = 0 then p < chan.sl_len else chan.cursors.(v - 1) > p in
  List.concat
    (List.init (pos - lo + 1) (fun i ->
         let p = lo + i in
         match List.find_opt (fun (r : F.syscall_rec) -> r.F.r_pos = p) recorded with
         | Some r -> [ r ]
         | None ->
           if passed p && p < chan.sl_len then begin
             let sc = chan.sl_sc.(p) in
             [ { F.r_pos = p; r_name = sc.Sc.name; r_args = sc.Sc.args; r_time = 0.0 } ]
           end
           else []))

(* Incident tapes, one rule on both transports: a divergence gets the
   window ending at the divergent slot.  Fault incidents keep the live
   tapes: each variant's actual progress is the evidence there. *)
let incident_for nxe ~chan ~pos ~flagged ~expected ~got ?mismatch_override ~time () =
  let tapes =
    if mismatch_override = None then Array.init nxe.n (divergence_tape chan ~pos)
    else Array.init nxe.n (fun v -> F.Tape.to_list chan.tapes.(v))
  in
  F.build ?mismatch_override ~channel:chan.ch_id ~position:pos ~flagged ~expected ~got
    ~time
    ~votes:(Array.init nxe.n (vote_at chan ~pos))
    ~tapes ()

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
  let m = machine_of nxe variant in
  Hashtbl.iter (fun (_, v) proc -> if v = variant then M.cancel_proc m proc) nxe.proc_reg

let quarantine nxe ~variant ~cause =
  if not nxe.v_quarantined.(variant) then begin
    let now = M.now nxe.machines.(0) in
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
    (* A slot the leader released past the victim's cursor may have waited
       only on the victim's consume: it retires now, and nothing else
       would close its root. *)
    (match nxe.tel with
     | Some { t_rec = tc; _ } ->
       List.iter
         (fun c ->
           for pos = c.cursors.(variant - 1) to c.sl_len - 1 do
             if c.sl_ready.(pos) then close_root tc c pos ~t1:now
           done)
         nxe.all_chans
     | None -> ());
    cancel_variant nxe variant;
    nxe.live_threads.(variant) <- 0;
    nxe.v_parked.(variant) <- 0;
    (match nxe.tel with
     | Some tel ->
       Tel.Counter.incr tel.t_quarantines;
       note tel ~tid:0 ~variant ~key:"cause" ~text:inc.F.inc_got ~ts:now "quarantine"
     | None -> ());
    broadcast_all nxe
  end

let handle_fault nxe ~variant ~cause =
  if (not (aborted nxe)) && not nxe.v_quarantined.(variant) then begin
    let m = nxe.machines.(0) in
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
      diverge nxe chan ~pos ~variant ~expected ~got ();
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

(* A variant killed by a fatal signal (a sanitizer aborting after its
   report, a crash) stops executing.  Its stream simply ends there, which
   the monitor catches as a divergence if a peer goes on; the kill is kept
   so that the group still aborts when every stream agreed to the end. *)
let killed nxe chan ~variant signal =
  nxe.v_dead.(variant) <- true;
  if Option.is_none nxe.killed then begin
    let pos = if variant = 0 then chan.leader_pos else chan.cursors.(variant - 1) in
    let got = Printf.sprintf "<killed by %s>" signal in
    nxe.killed <- Some (fun () -> diverge nxe chan ~pos ~variant ~expected:"<exit>" ~got ())
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
    let m = machine_of nxe variant in
    let injected () =
      match nxe.tel with
      | Some tel ->
        Tel.Counter.incr tel.t_faults;
        note tel ~tid:0 ~variant ~key:"" ~text:"" ~ts:(M.now m) "fault:injected"
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

(* ------------------------------------------------------------------ *)
(* The leader's side of a slot *)

(* µs to publish args/results into a slot. *)
let checkin_cost = 0.3

let leader_sync nxe chan sc =
  let m = nxe.machines.(0) in
  (match nxe.tel with Some tel -> Tel.Counter.incr tel.t_publish | None -> ());
  let pub_t0 = M.now m in
  ph_compute m Pr.Phase.Publish checkin_cost;
  let pos = chan.leader_pos in
  ensure_slot nxe chan;
  let publish_now = M.now m in
  chan.sl_sc.(pos) <- sc;
  chan.sl_ready.(pos) <- false;
  chan.sl_arrived.(pos) <- 0;
  chan.sl_first.(pos) <- publish_now;
  chan.sl_last.(pos) <- publish_now;
  chan.sl_lastv.(pos) <- 0;
  chan.sl_sigdel.(pos) <- sc.Sc.name = "signal_delivery";
  (match nxe.wire with Some _ -> chan.sl_ship.(pos) <- 0.0 | None -> ());
  (match nxe.tel with
   | Some { t_rec = tc; _ } ->
     (* The rendezvous root: opens at the leader's check-in (widened back
        to the first arrival at completion), closes at full retirement.
        The ids stamped into the slot are the propagated context every
        later participant hangs its spans off. *)
     let trace = Tx.new_trace tc in
     let root =
       Tx.start tc Tx.Rendezvous ~trace ~parent:(-1) ~node:0 ~variant:(-1) ~chan:chan.ch_id
         ~pos ~t0:pub_t0
     in
     chan.sl_trace.(pos) <- trace;
     chan.sl_span.(pos) <- root;
     ignore
       (Tx.record_child tc Tx.Publish ~parent:root ~node:0 ~variant:0 ~chan:chan.ch_id ~pos
          ~t0:pub_t0 ~t1:publish_now)
   | None ->
     chan.sl_trace.(pos) <- -1;
     chan.sl_span.(pos) <- -1);
  chan.sl_len <- pos + 1;
  F.Tape.record chan.tapes.(0) ~pos ~time:publish_now sc;
  touch nxe 0;
  chan.leader_pos <- pos + 1;
  nxe.synced <- nxe.synced + 1;
  let gap = pos - min_live_cursor nxe chan in
  if Array.length chan.cursors > 0 then Tel.Hist.observe nxe.h_gap (float_of_int gap);
  wake_local nxe chan.fol_q;
  (* Which slots rendezvous: the lockstep mode in-process, the ship mode's
     sensitive set over the Net. *)
  let lockstep =
    match nxe.wire with
    | None -> nxe.cfg.mode = Strict_lockstep || Sc.is_lockstep_selected sc
    | Some w -> is_sensitive w.spec.ship sc
  in
  let blocked = ref false in
  let wait_from = M.now m in
  if lockstep then begin
    nxe.locksteps <- nxe.locksteps + 1;
    (match nxe.tel with Some tel -> Tel.Counter.incr tel.t_locksteps | None -> ());
    (match nxe.wire with Some w -> ship_slot nxe w chan ~pos sc | None -> ());
    (* Execute only after every live follower — local, or remote through
       an ack on the up link — has arrived and agreed. *)
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
            diverge nxe chan ~pos ~variant:(i + 1) ~expected:sc.Sc.name ~got:"<exit>"
              ~exp_sc:sc ()
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
      (match nxe.tel with
       | Some { t_rec = tc; _ } ->
         Tx.extend_t0 tc chan.sl_span.(pos) ~t0:chan.sl_first.(pos);
         if !blocked then begin
           trace_sched_wait nxe tc chan pos ~variant:0;
           ignore
             (Tx.record_child tc Tx.Lockstep_wait ~parent:chan.sl_span.(pos) ~node:0
                ~variant:0 ~chan:chan.ch_id ~pos ~t0:wait_from ~t1:(M.now m))
         end
       | None -> ());
      match nxe.profile with
      | Some c ->
        Pr.Collector.record c ~chan:chan.ch_id ~pos ~time:(M.now m)
          ~straggler:chan.sl_lastv.(pos) ~wait
      | None -> ()
    end
  end
  else begin
    (* Ring buffer: run ahead up to capacity. *)
    while
      (not (aborted nxe))
      && chan.leader_pos - min_live_cursor ~known:true nxe chan > nxe.cfg.ring_capacity
    do
      match nxe.wire with
      | Some w when outbox_pending nxe -> flush_all nxe w
      | _ ->
        blocked := true;
        nxe_wait nxe ~variant:0 chan.leader_q
    done
  end;
  if !blocked then Tel.Hist.observe nxe.h_wait (M.now m -. wait_from);
  if !blocked && not (aborted nxe) then ph_compute m Pr.Phase.Resched resched_cost;
  if not (aborted nxe) then begin
    ph_compute m Pr.Phase.Syscall_service (Sc.base_cost sc);
    chan.sl_ready.(pos) <- true;
    nxe.executed <- nxe.executed + 1;
    touch nxe 0;
    (match nxe.tel with
     | Some tel when lockstep ->
       note tel ~tid:(lane nxe chan ~variant:0) ~variant:0 ~key:"sc" ~text:sc.Sc.name
         ~ts:(M.now m) "lockstep:release"
     | _ -> ());
    (match nxe.wire with Some w -> release_slot nxe w chan ~pos ~lockstep sc | None -> ());
    (match nxe.tel with
     | Some { t_rec = tc; _ } ->
       Tx.extend_t0 tc chan.sl_span.(pos) ~t0:chan.sl_first.(pos);
       (* With no live follower left the leader's release IS the
          retirement.  Otherwise the follower advancing the last cursor
          closes the root (fetches happen after this release). *)
       close_root tc chan pos ~t1:(M.now m)
     | None -> ());
    wake_local nxe chan.fol_q
  end

(* ------------------------------------------------------------------ *)
(* The follower's side of a slot.  A follower on node 0 sees the ring
   directly: [leader_pos] and [sl_ready].  A follower on node k > 0 sees a
   slot only once its node's delivery watermark [rp_len] covers it: a
   sensitive slot's arrival is an ack over the up link and its release an
   explicit message, batched slots arrive pre-released, and consumption
   is flow-acked back so the leader's ring bound can advance. *)

let visible chan node = if node = 0 then chan.leader_pos else chan.rp_len.(node)

(* The leader's release of [pos] is visible on [node]. *)
let released chan node pos =
  if node = 0 then chan.sl_ready.(pos) else chan.rp_released.(node) > pos

(* The leader exited and its whole stream has reached [node]. *)
let drained chan node =
  chan.leader_done && (node = 0 || chan.rp_len.(node) >= chan.leader_pos)

(* Straggler bookkeeping for an arrival at [pos] stamped [t]. *)
let arrive chan pos ~variant t =
  chan.sl_arrived.(pos) <- chan.sl_arrived.(pos) + 1;
  if t < chan.sl_first.(pos) then chan.sl_first.(pos) <- t;
  if t >= chan.sl_last.(pos) then begin
    chan.sl_last.(pos) <- t;
    chan.sl_lastv.(pos) <- variant
  end

(* Remote arrival at a sensitive slot: the ack carries this node's
   verdict (and its current cursor, for free) back to the leader.  The
   Arrival span opens at the rendezvous root and closes when the ack lands
   on node 0 — so a remote straggler's lateness INCLUDES its wire time,
   with the ack's Net_msg nested inside it; the largest-edge rule then
   separates "variant slow" from "wire slow". *)
let send_ack nxe w chan ~variant ~node ~pos ~rdy =
  let i = variant - 1 in
  let arr =
    match nxe.tel with
    | Some { t_rec = tc; _ } when chan.sl_span.(pos) >= 0 ->
      trace_ready_wait nxe tc chan pos ~variant rdy;
      Tx.start tc Tx.Arrival ~trace:chan.sl_trace.(pos) ~parent:chan.sl_span.(pos) ~node
        ~variant ~chan:chan.ch_id ~pos ~t0:(Tx.span_t0 tc chan.sl_span.(pos))
    | _ -> -1
  in
  M.compute nxe.machines.(node) msg_cost;
  let cursor_now = chan.cursors.(i) in
  w.tf_ack <- w.tf_ack + ack_bytes;
  Net.send_traced w.links w.up.(node - 1) ~bytes:ack_bytes ~span:arr ~node:0 (fun () ->
      let t0 = M.now nxe.machines.(0) in
      arrive chan pos ~variant t0;
      if chan.sl_ship.(pos) > 0.0 then Net.observe_rtt w.links (t0 -. chan.sl_ship.(pos));
      if cursor_now > chan.kn.(i) then chan.kn.(i) <- cursor_now;
      w.remote_checked <- w.remote_checked + 1;
      (match nxe.tel with
       | Some { t_rec = tc; _ } when arr >= 0 -> Tx.finish tc arr ~t1:t0
       | _ -> ());
      M.Waitq.broadcast nxe.machines.(0) chan.leader_q)

(* Arrival at a released-on-delivery slot — a batched one on a remote
   node, or any slot on node 0 — recorded as an Arrival edge from the
   root's opening (an arrival before the root opened cannot be the
   straggler; record_child drops its inverted interval) plus the dispatch
   wait that ended the block. *)
let trace_arrival nxe chan pos ~variant ~wait_from ~rdy =
  match nxe.tel with
  | Some { t_rec = tc; _ } when chan.sl_span.(pos) >= 0 ->
    let node = nxe.place.(variant) in
    ignore
      (Tx.record_child tc Tx.Arrival ~parent:chan.sl_span.(pos) ~node ~variant
         ~chan:chan.ch_id ~pos ~t0:neg_infinity ~t1:wait_from);
    trace_ready_wait nxe tc chan pos ~variant rdy
  | _ -> ()

let rec follower_sync_body ?(on_signal = fun _ -> ()) nxe chan ~variant sc =
  let node = nxe.place.(variant) in
  let m = nxe.machines.(node) in
  (* The wire state, for a follower off node 0. *)
  let remote = if node > 0 then nxe.wire else None in
  let i = variant - 1 in
  let pos = chan.cursors.(i) in
  let blocked_for_slot = ref false in
  let wait_from = M.now m in
  while (not (aborted nxe)) && visible chan node <= pos && not (drained chan node) do
    match remote with
    | Some w when chan.cursors.(i) > chan.last_ack.(i) ->
      (* Sending the flow ack costs CPU, and a delivery can land during
         that compute — so re-check the wait condition before parking. *)
      send_flow nxe w chan ~variant
    | _ ->
      blocked_for_slot := true;
      nxe_wait nxe ~variant chan.fol_q.(i)
  done;
  if !blocked_for_slot then Tel.Hist.observe nxe.h_wait (M.now m -. wait_from);
  (* Capture the dispatch wait that ended the block now: the resched
     compute below would overwrite the machine's last-wait stamps.  The
     slot's span context is only valid past the wait (leader published). *)
  let rdy =
    match nxe.tel with
    | Some _ when !blocked_for_slot -> M.last_ready_wait m
    | _ -> (0.0, 0.0)
  in
  if !blocked_for_slot && not (aborted nxe) then
    ph_compute m Pr.Phase.Resched resched_cost;
  if aborted nxe then ()
  else if
    (* An asynchronous signal the leader took at this point: consume the
       delivery slot, run the handler at the equivalent position, retry.
       The marker test is a cached bool stamped at publish time. *)
    visible chan node > pos
    && chan.sl_sigdel.(pos)
    && sc.Sc.name <> "signal_delivery"
  then begin
    chan.sl_arrived.(pos) <- chan.sl_arrived.(pos) + 1;
    M.Waitq.signal m chan.leader_q;
    while (not (aborted nxe)) && not chan.sl_ready.(pos) do
      nxe_wait nxe ~variant chan.fol_q.(i)
    done;
    if not (aborted nxe) then begin
      ph_compute m Pr.Phase.Fetch fetch_cost;
      chan.cursors.(i) <- pos + 1;
      touch nxe variant;
      (match nxe.tel with
       | Some { t_rec = tc; _ } -> close_root tc chan pos ~t1:(M.now m)
       | None -> ());
      M.Waitq.signal m chan.leader_q;
      (match chan.sl_sc.(pos).Sc.args with
       | [ idx ] when Int64.to_int idx < Array.length nxe.signal_handlers ->
         on_signal nxe.signal_handlers.(Int64.to_int idx)
       | _ -> ());
      follower_sync_body ~on_signal nxe chan ~variant sc
    end
  end
  else if visible chan node <= pos then begin
    (* Leader exited (and its whole stream reached this node); this
       variant issues an extra syscall. *)
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) sc;
    diverge nxe chan ~pos ~variant ~expected:"<exit>" ~got:sc.Sc.name ~got_sc:sc ()
  end
  else begin
    let exp_sc = chan.sl_sc.(pos) in
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) sc;
    if not (Sc.args_match exp_sc sc) then
      diverge nxe chan ~pos ~variant ~expected:(Format.asprintf "%a" Sc.pp exp_sc)
        ~got:(Format.asprintf "%a" Sc.pp sc) ~exp_sc ~got_sc:sc ()
    else
      match remote with
      | Some w when not (is_sensitive w.spec.ship exp_sc) ->
        (* Batched slot: delivered pre-released.  With replication on, a
           read result is served from this node's replica of the leader
           stream — no payload crossed the wire for it. *)
        if exp_sc.Sc.klass = Sc.Io_read && w.spec.ship = Selective_replicated then
          w.replicated <- w.replicated + 1;
        trace_arrival nxe chan pos ~variant ~wait_from ~rdy;
        consume nxe m chan ~variant ~pos ~blocked:false;
        maybe_flow nxe w chan ~variant
      | _ ->
        (match remote with
         | Some w -> send_ack nxe w chan ~variant ~node ~pos ~rdy
         | None ->
           (* Arrival time is when the follower reached the sync point
              (before any blocking), so straggler attribution reflects who
              was late. *)
           arrive chan pos ~variant wait_from;
           trace_arrival nxe chan pos ~variant ~wait_from ~rdy;
           M.Waitq.signal m chan.leader_q);
        let blocked = ref false in
        let ready_from = M.now m in
        while (not (aborted nxe)) && not (released chan node pos) do
          blocked := true;
          nxe_wait nxe ~variant chan.fol_q.(i)
        done;
        if !blocked then Tel.Hist.observe nxe.h_wait (M.now m -. ready_from);
        if not (aborted nxe) then begin
          (match nxe.tel with
           | Some { t_rec = tc; _ } when !blocked && chan.sl_span.(pos) >= 0 ->
             trace_sched_wait nxe tc chan pos ~variant
           | _ -> ());
          consume nxe m chan ~variant ~pos ~blocked:!blocked;
          match remote with
          | Some w -> maybe_flow nxe w chan ~variant
          | None -> M.Waitq.signal m chan.leader_q
        end
  end

let follower_sync ?on_signal nxe chan ~variant sc =
  (match nxe.tel with Some tel -> Tel.Counter.incr tel.t_fetch | None -> ());
  follower_sync_body ?on_signal nxe chan ~variant sc

(* Shared-memory propagation (in-process only): like follower_sync, but
   the slot carries content to adopt rather than arguments to compare. *)
let follower_shared_fetch nxe chan ~variant ~pos dst =
  let m = machine_of nxe variant in
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
    diverge nxe chan ~pos ~variant ~expected:"<exit>" ~got:"shared-memory access" ()
  else begin
    let exp_sc = chan.sl_sc.(pos) in
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) exp_sc;
    (match exp_sc.Sc.args with
     | [ _; content ] -> dst := content
     | _ ->
       diverge nxe chan ~pos ~variant ~expected:(Format.asprintf "%a" Sc.pp exp_sc)
         ~got:"shared-memory access" ~exp_sc ());
    if not (aborted nxe) then begin
      arrive chan pos ~variant wait_from;
      M.Waitq.signal m chan.leader_q;
      let blocked2 = ref !blocked in
      let ready_from = M.now m in
      while (not (aborted nxe)) && not chan.sl_ready.(pos) do
        blocked2 := true;
        nxe_wait nxe ~variant chan.fol_q.(i)
      done;
      if M.now m > ready_from then Tel.Hist.observe nxe.h_wait (M.now m -. ready_from);
      if not (aborted nxe) then begin
        consume ~arrived_at:wait_from nxe m chan ~variant ~pos ~blocked:!blocked2;
        M.Waitq.signal m chan.leader_q
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Weak determinism: replay the leader's total order of locking-primitive
   operations (the synccall protocol of §4.2).  Over the Net the order
   list streams to each node with the batches (its own messages in naive
   mode), and a remote follower replays an entry only once delivered. *)

(* µs per weak-determinism ordering operation. *)
let synccall_cost = 0.4

let det_order_op nxe det ~variant ~chan =
  if nxe.cfg.weak_determinism then begin
    let node = nxe.place.(variant) in
    let m = nxe.machines.(node) in
    (* The logical-thread id is the interned channel id: paths are unique
       per channel, so the int comparison below is exactly the old string
       comparison. *)
    let ltid = chan.ch_id in
    ph_compute m Pr.Phase.Synccall synccall_cost;
    if variant = 0 then begin
      Vec.push det.d_order ltid;
      nxe.order_len <- nxe.order_len + 1;
      touch nxe 0;
      wake_local nxe det.d_qs;
      match nxe.wire with
      | Some w ->
        for k = 1 to Array.length nxe.machines - 1 do
          if node_active nxe k then append_order nxe w k det ~hi:(Vec.length det.d_order)
        done
      | None -> ()
    end
    else begin
      let i = variant - 1 in
      let delivered () = if node = 0 then Vec.length det.d_order else det.rd_len.(node) in
      while
        (not (aborted nxe))
        && not
             (det.d_cursors.(i) < delivered ()
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
           note tel ~tid:(lane nxe chan ~variant) ~variant ~key:"" ~text:"" ~ts:(M.now m)
             "det:replay"
         | None -> ());
        M.Waitq.broadcast m det.d_qs.(i)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Asynchronous signals (in-process only): the leader takes a signal at its
   next synchronized syscall and publishes a delivery marker; followers run
   the handler at the same logical position (the classic NVX
   delivery-point problem, solved at sync points). *)

let rec run_handler nxe ~variant ~chan ops =
  let m = machine_of nxe variant in
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
    if chan.ch_id = 0 && t <= M.now nxe.machines.(0) then begin
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

let rec exec_ops nxe ~variant ~chan ~ppath ~proc ~det ~in_main_init ops () =
  let m = machine_of nxe variant in
  let in_main = ref in_main_init in
  let spawn_count = ref 0 in
  let fork_count = ref 0 in
  (* The process's lock and shared-counter tables, resolved from the
     registries on the thread's first op that uses them (most threads use
     neither) and then held: later ops touch only the int-keyed tables,
     never the string-keyed registries. *)
  let pth = lazy (get_pth nxe ppath variant) in
  let cnts = lazy (counter_table nxe ppath variant) in
  List.iter
    (fun op ->
      if (not (aborted nxe)) && not nxe.v_dead.(variant) then
        match op with
        | Trace.Work w -> do_work nxe ~variant w.func w.cost
        | Trace.Idle d -> M.sleep m d
        | Trace.Marker Trace.Main_entered -> in_main := true
        | Trace.Marker Trace.About_to_exit -> in_main := false
        | Trace.Marker (Trace.Killed signal) -> killed nxe chan ~variant signal
        | Trace.Sys sc ->
          if !in_main && Sc.is_synchronized sc then do_sys nxe ~variant ~chan sc
          else ph_compute m Pr.Phase.Syscall_service (Sc.base_cost sc)
        | Trace.Incr id ->
          (* An unguarded shared write: the interleaving across this
             variant's threads decides the value later syscalls expose. *)
          M.compute m 0.05;
          let r = counter_ref (Lazy.force cnts) id in
          r := Int64.add !r 1L
        | Trace.Sys_shared (sc, id) ->
          let v = !(counter_ref (Lazy.force cnts) id) in
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
          let cnts = Lazy.force cnts in
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
          pth_wait m (fun () -> Pthreads.lock m (Lazy.force pth) id)
        | Trace.Unlock id -> Pthreads.unlock m (Lazy.force pth) id
        | Trace.Barrier (id, expected) ->
          det_order_op nxe det ~variant ~chan;
          pth_wait m (fun () -> Pthreads.barrier m (Lazy.force pth) id expected)
        | Trace.Spawn sub ->
          let k = !spawn_count in
          incr spawn_count;
          ph_compute m Pr.Phase.Syscall_service sc_clone_cost;
          let child = get_chan nxe (chan.ch_path ^ "/s" ^ string_of_int k) in
          (match nxe.tel with
           | Some tel ->
             Tel.Counter.incr tel.t_spawns;
             note tel ~tid:(lane nxe chan ~variant) ~variant ~key:"child" ~text:child.ch_path
               ~ts:(M.now m) "spawn"
           | None -> ());
          nxe.live_threads.(variant) <- nxe.live_threads.(variant) + 1;
          ignore
            (M.spawn m proc ~name:(nxe.names.(variant) ^ ":t" ^ child.ch_path)
               (exec_ops nxe ~variant ~chan:child ~ppath ~proc ~det ~in_main_init:!in_main sub))
        | Trace.Fork sub ->
          let k = !fork_count in
          incr fork_count;
          ph_compute m Pr.Phase.Syscall_service sc_fork_cost;
          (* The child of the leader becomes the leader of the new execution
             group; followers' children become its followers (§3.3). *)
          let cpath = ppath ^ "/f" ^ string_of_int k in
          let cproc = get_proc nxe cpath variant in
          let cchan = get_chan nxe (chan.ch_path ^ "/f" ^ string_of_int k) in
          (match nxe.tel with
           | Some tel ->
             Tel.Counter.incr tel.t_forks;
             note tel ~tid:(lane nxe chan ~variant) ~variant ~key:"group" ~text:cchan.ch_path
               ~ts:(M.now m) "fork"
           | None -> ());
          let cdet = get_det nxe cpath in
          nxe.live_threads.(variant) <- nxe.live_threads.(variant) + 1;
          ignore
            (M.spawn m cproc ~name:(nxe.names.(variant) ^ ":p" ^ cpath)
               (exec_ops nxe ~variant ~chan:cchan ~ppath:cpath ~proc:cproc ~det:cdet
                  ~in_main_init:!in_main sub)))
    ops;
  (* Thread exit: channel end-of-stream bookkeeping. *)
  touch nxe variant;
  if variant = 0 then begin
    chan.leader_done <- true;
    (* Whatever is still batched must reach the remote nodes, or their
       followers would wait forever on a watermark no one will advance.
       The exit wakes every node: [leader_done] ends a remote follower's
       wait too ([drained]), and no delivery carries it. *)
    (match nxe.wire with Some w -> flush_all nxe w | None -> ());
    wake_all nxe chan.fol_q
  end
  else begin
    chan.fol_done.(variant - 1) <- true;
    M.Waitq.signal nxe.machines.(0) chan.leader_q
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

(* One validation for both transports; returns the variant -> node
   placement.  Over the Net, [Fork], [Shared_read] and [Restart_once] are
   rejected: the slot stream is the only thing shipped, so a forked
   group, a poisoned-page copy or a respawned victim would have no wire
   model. *)
let validate ~who ~net ~n ~names ~(config : config) ~faults ~coverage ~profile traces =
  let bad fmt = Printf.ksprintf (fun s -> invalid_arg (who ^ ": " ^ s)) fmt in
  if n < 1 then bad "need at least one variant";
  if List.length names <> n then bad "names/traces length mismatch";
  (match profile with
   | Some c when Pr.Collector.variants c <> n -> bad "profile collector variant count mismatch"
   | _ -> ());
  let pol = config.fault_policy in
  if Float.is_nan pol.heartbeat_timeout || pol.heartbeat_timeout <= 0.0 then
    bad "heartbeat_timeout must be positive (infinity = off)";
  if pol.restart_backoff < 0.0 || not (Float.is_finite pol.restart_backoff) then
    bad "restart_backoff must be non-negative and finite";
  List.iter
    (fun (inj : Faults.injection) ->
      if inj.Faults.i_variant < 0 || inj.Faults.i_variant >= n then
        bad "fault injection victim out of range";
      if inj.Faults.i_at < 0 then bad "fault injection position must be >= 0")
    faults.Faults.p_injections;
  (match coverage with
   | Some cov when List.length cov <> n -> bad "coverage length mismatch"
   | _ -> ());
  (* Capacity 0 would demand a slot be consumed before its publish returns,
     but followers only consume released slots — a guaranteed deadlock in
     selective mode, so reject it loudly instead.  Capacity 1 is the
     tightest legal ring: one unconsumed slot in flight (see the .mli). *)
  if config.ring_capacity < 1 then bad "ring_capacity must be >= 1";
  match net with
  | None -> Array.make n 0
  | Some w ->
    if w.nodes < 1 then bad "nodes must be >= 1";
    if w.batch_slots < 1 then bad "batch_slots must be >= 1";
    if config.ring_capacity < flow_ack_every then
      bad "ring_capacity must be >= %d (the flow-ack period) over the Net" flow_ack_every;
    if pol.policy = Restart_once then bad "Restart_once is not supported over the Net";
    let rec check ops =
      List.iter
        (function
          | Trace.Fork _ -> bad "Fork is a single-host feature"
          | Trace.Shared_read _ -> bad "Shared_read is a single-host feature"
          | Trace.Spawn sub -> check sub
          | _ -> ())
        ops
    in
    List.iter check traces;
    let place =
      match w.placement with
      | Round_robin -> Array.init n (fun v -> v mod w.nodes)
      | Pinned l ->
        if List.length l <> n then bad "placement length mismatch";
        Array.of_list l
    in
    Array.iter (fun k -> if k < 0 || k >= w.nodes then bad "placement node out of range") place;
    if place.(0) <> 0 then bad "the leader (variant 0) must be on node 0";
    place

(* Bounds of the always-on histograms: gap in ring slots, lockstep wait
   and watchdog silence in machine us.  Bounds are immutable, so every run
   shares them. *)
let gap_bounds = Tel.Hist.bounds [ 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]

let wait_bounds =
  Tel.Hist.bounds [ 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 5000. ]

let heartbeat_bounds =
  Tel.Hist.bounds [ 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 5000.; 10000. ]

let run ~who ~net ~config ~machine_config ~on_machine ~working_sets ~sensitivities ~signals
    ~faults ~coverage ~profile ~names traces =
  let n = List.length traces in
  let place = validate ~who ~net ~n ~names ~config ~faults ~coverage ~profile traces in
  let per_variant what default = function
    | Some l ->
      if List.length l <> n then invalid_arg (Printf.sprintf "%s: %s length mismatch" who what);
      Array.of_list l
    | None -> Array.make n default
  in
  let working_sets = per_variant "working_sets" 1.0 working_sets in
  let sensitivities = per_variant "sensitivities" (Lazy.from_val 1.0) sensitivities in
  let create () =
    match machine_config with
    | Some c -> M.create ~config:c ?telemetry:config.telemetry ()
    | None -> M.create ?telemetry:config.telemetry ()
  in
  let machines =
    Array.init (match net with Some w -> w.nodes | None -> 1) (fun _ -> create ())
  in
  (match on_machine with Some hook -> hook machines.(0) | None -> ());
  let tel =
    Option.map
      (fun sink ->
        {
          t_rec = Tel.recorder sink;
          t_dom = Tel.domain_id (Tel.domain sink ~name:"nxe");
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
     whether a sink is attached.  Each run gets fresh counts over the
     shared bounds. *)
  let h_gap = Tel.Hist.of_bounds gap_bounds in
  let h_wait = Tel.Hist.of_bounds wait_bounds in
  let h_heartbeat = Tel.Hist.of_bounds heartbeat_bounds in
  (match config.telemetry with
   | Some sink ->
     ignore (Tel.register_hist sink "nxe.syscall_gap" h_gap);
     ignore (Tel.register_hist sink "nxe.lockstep_wait_us" h_wait);
     ignore (Tel.register_hist sink "nxe.heartbeat_wait_us" h_heartbeat)
   | None -> ());
  let wire =
    Option.map
      (fun w ->
        let links = Net.create ?telemetry:config.telemetry () in
        let link src dst =
          Net.link links ~params:w.link ~src:machines.(src) ~dst:machines.(dst)
            (Printf.sprintf "n%d-n%d" src dst)
        in
        let down = Array.init (w.nodes - 1) (fun j -> link 0 (j + 1)) in
        let up = Array.init (w.nodes - 1) (fun j -> link (j + 1) 0) in
        {
          spec = w;
          links;
          down;
          up;
          outboxes =
            Array.init (w.nodes - 1) (fun _ ->
                { ob_items = []; ob_slots = 0; ob_bytes = 0; ob_span = -1 });
          remote_checked = 0;
          replicated = 0;
          tf_ship = 0;
          tf_batch = 0;
          tf_release = 0;
          tf_ack = 0;
          tf_flow = 0;
          tf_order = 0;
        })
      net
  in
  let signals = List.sort compare signals in
  let nxe =
    {
      cfg = config;
      n;
      machines;
      place;
      wire;
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
      order_len = 0;
      replays = 0;
      pending_signals = List.mapi (fun i (t, _) -> (t, i)) signals;
      signal_handlers = Array.of_list (List.map snd signals);
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
      traces_arr = Array.of_list traces;
      mon_proc = None;
      restart_hook = (fun _ -> ());
      fault_incidents = [];
      fault_abort_incident = None;
      killed = None;
      executed = 0;
      h_heartbeat;
      profile;
    }
  in
  let root_chan = get_chan nxe "c" in
  let root_det = get_det nxe "root" in
  let has_marker trace =
    List.exists (function Trace.Marker Trace.Main_entered -> true | _ -> false) trace
  in
  let start_main variant ~suffix =
    let proc = get_proc nxe "root" variant in
    let trace = nxe.traces_arr.(variant) in
    ignore
      (M.spawn (machine_of nxe variant) proc
         ~name:(nxe.names.(variant) ^ ":main" ^ suffix)
         (exec_ops nxe ~variant ~chan:root_chan ~ppath:"root" ~proc ~det:root_det
            ~in_main_init:(not (has_marker trace)) trace))
  in
  for variant = 0 to n - 1 do
    nxe.live_threads.(variant) <- nxe.live_threads.(variant) + 1;
    start_main variant ~suffix:""
  done;
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
           note tel ~tid:0 ~variant ~key:"" ~text:"" ~ts:(M.now machines.(0)) "restart"
         | None -> ());
        start_main variant ~suffix:":restart";
        broadcast_all nxe
      end);
  (* Heartbeat watchdog, on node 0 (the monitor host): a daemon monitor
     fiber with zero working set and zero compute, so attaching it never
     perturbs the group's schedule.  A variant is declared hung when it has
     unfinished threads, at least one of them is NOT parked at an NXE sync
     point (parked = waiting on peers, which is the engine's fault, not the
     variant's), and it has made no engine interaction for a full timeout.
     The timeout must therefore exceed the longest legitimate syscall-free
     stretch of the workload. *)
  let hb = config.fault_policy.heartbeat_timeout in
  if Float.is_finite hb then begin
    let m0 = machines.(0) in
    let mon = monitor_proc nxe in
    ignore
      (M.spawn m0 ~daemon:true mon ~name:"nxe-monitor:watchdog" (fun () ->
           let interval = hb /. 2.0 in
           while
             (not (aborted nxe)) && Array.exists (fun c -> c > 0) nxe.live_threads
           do
             M.sleep m0 interval;
             if not (aborted nxe) then begin
               let now = M.now m0 in
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
  (* In-process the group has one machine; over the Net, one per node. *)
  (match M.run_group nxe.machines with
   | () -> ()
   | exception M.Deadlock msg ->
     (* After an abort, threads stuck on application locks are "killed" by
        the monitor; any other deadlock is a real bug. *)
     if not (aborted nxe) then raise (M.Deadlock msg));
  (* Reaping: a variant killed by a signal is an alarm even when no stream
     diverged, so variants that all detect or crash at the same point of
     their streams abort too. *)
  (match nxe.killed with Some alarm when not (aborted nxe) -> alarm () | _ -> ());
  let per_proc v f init =
    Hashtbl.fold (fun (_, v') proc acc -> if v' = v then f acc proc else acc) nxe.proc_reg init
  in
  (* Each variant's finish (latest) and cpu (sum) over its processes, in
     one pass.  The registry's visit order is the per-variant folds' order,
     so every sum adds the same terms in the same order. *)
  let vf = Array.make n 0.0 and vc = Array.make n 0.0 in
  Hashtbl.iter
    (fun (_, v) p ->
      let m = machine_of nxe v in
      vf.(v) <- Float.max vf.(v) (M.proc_finish_time m p);
      vc.(v) <- vc.(v) +. M.proc_cpu_time m p)
    nxe.proc_reg;
  let total_time =
    Array.fold_left (fun acc m -> Float.max acc (M.stats m).M.total_time) 0.0 machines
  in
  (* Fill the attribution collector: per-variant phase-bucket sums over
     every process of the variant (the monitor lives in its own proc and
     is never in [proc_reg], so it cannot pollute any variant's totals). *)
  (match nxe.profile with
   | Some c ->
     for v = 0 to n - 1 do
       let m = machine_of nxe v in
       let phases = Array.make M.phase_slots 0.0 in
       let thread_time =
         per_proc v
           (fun acc proc ->
             Array.iteri (fun i x -> phases.(i) <- phases.(i) +. x) (M.proc_phases m proc);
             acc +. M.proc_accounted_time m proc)
           0.0
       in
       Pr.Collector.fill_variant c ~variant:v ~name:nxe.names.(v) ~wall:vf.(v)
         ~thread_time ~cpu:vc.(v) phases
     done;
     Pr.Collector.fill_run c ~total_time
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
  let report =
    {
      outcome = (match nxe.failed with None -> `All_finished | Some a -> `Aborted a);
      incident;
      total_time;
      variant_finish = Array.to_list vf;
      variant_cpu = Array.to_list vc;
      synced_syscalls = nxe.synced;
      executed_syscalls = nxe.executed;
      lockstep_syscalls = nxe.locksteps;
      avg_syscall_gap = Tel.Hist.mean nxe.h_gap;
      (* A publish with no live follower observes gap -1; the max floors at 0. *)
      max_syscall_gap = Int.max 0 (int_of_float (Tel.Hist.max_value nxe.h_gap));
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
      machine_stats = M.stats machines.(0);
    }
  in
  (nxe, report)

let run_traces ?(config = default_config) ?machine_config ?on_machine ?working_sets
    ?sensitivities ?(signals = []) ?(faults = Faults.none) ?coverage ?profile ~names traces =
  snd
    (run ~who:"Nxe.run_traces" ~net:None ~config ~machine_config ~on_machine ~working_sets
       ~sensitivities ~signals ~faults ~coverage ~profile ~names traces)

let run_net net ?(config = default_config) ?working_sets ?(faults = Faults.none) ?coverage
    ~names traces =
  let nxe, report =
    run ~who:"Nxe.run_net" ~net:(Some net) ~config ~machine_config:None ~on_machine:None
      ~working_sets ~sensitivities:None ~signals:[] ~faults ~coverage ~profile:None ~names
      traces
  in
  let w = Option.get nxe.wire in
  let totals = Net.totals w.links in
  ( report,
    {
      placed = Array.to_list nxe.place;
      remote_checked = w.remote_checked;
      replicated_results = w.replicated;
      bytes_on_wire = totals.Net.s_bytes;
      msgs_on_wire = totals.Net.s_msgs;
      traffic =
        {
          tf_ship = w.tf_ship;
          tf_batch = w.tf_batch;
          tf_release = w.tf_release;
          tf_ack = w.tf_ack;
          tf_flow = w.tf_flow;
          tf_order = w.tf_order;
        };
      link_stats = List.map (fun l -> (Net.link_name l, Net.link_stats l)) (Net.links w.links);
      net_rtt = Tel.Hist.dump (Net.rtt_hist w.links);
      node_stats = Array.to_list (Array.map M.stats nxe.machines);
    } )

let run_builds ?config ?machine_config ?on_machine ?profile ?(jitter = 0.0) ~seed builds =
  (* Per-variant compute skew: diversified binaries (distinct code layout,
     ASLR, different checks) never run cycle-identical.  The skew is
     systematic per (variant, function) — a function whose cache layout is
     unlucky in one variant stays slower there — which is what makes
     lockstep waits real.  Syscall sequences are untouched.  The trace
     builder applies it in the same walk as the build's cost factor. *)
  let jitter_of variant =
    if jitter <= 0.0 then None
    else
      Some
        (fun func ->
          let rng = Bunshin_util.Rng.create (Hashtbl.hash (seed, variant, func)) in
          Bunshin_util.Rng.float_in rng (1.0 -. jitter) (1.0 +. jitter))
  in
  (* The builds of one program share its workload body and its seed-0 work
     weights: each is generated once per group, keyed on the program's
     physical identity, and the body is factored once per build. *)
  let shared = ref [] in
  let shared_of (p : Program.t) =
    match List.assq_opt p !shared with
    | Some s -> s
    | None ->
      let s = (Program.generate p ~seed, Program.work_weights p) in
      shared := (p, s) :: !shared;
      s
  in
  let built =
    List.mapi
      (fun i b ->
        Program.factor_trace ?jitter:(jitter_of i) b (fst (shared_of b.Program.prog)))
      builds
  in
  (* Per-(variant, function) sanitizer fractions let the executor split
     check execution out of compute without extra compute calls; each comes
     from the factor the trace builder resolved. *)
  (match profile with
   | Some c ->
     if Pr.Collector.workload c = "" then
       (match builds with
        | b :: _ -> Pr.Collector.set_workload c b.Program.prog.Program.name
        | [] -> ());
     List.iteri
       (fun v (b, (_, factors)) ->
         List.iter
           (fun (fn : Program.func) ->
             let f = Pr.share_of_factor (Program.factor factors fn.Program.fn_name) in
             if f > 0.0 then Pr.Collector.set_check_fraction c ~variant:v fn.Program.fn_name f)
           b.Program.prog.Program.funcs)
       (List.combine builds built)
   | None -> ());
  run_traces ?config ?machine_config ?on_machine ?profile
    ~working_sets:(List.map Program.build_working_set builds)
    ~sensitivities:
      (List.map
         (fun b ->
           let ww = snd (shared_of b.Program.prog) in
           lazy (1.0 /. (1.0 +. Program.overhead_with ww b)))
         builds)
    ~names:(List.mapi (fun i b -> Printf.sprintf "v%d-%s" i b.Program.prog.Program.name) builds)
    (List.map fst built)
