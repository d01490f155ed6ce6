module M = Bunshin_machine.Machine
module Pthreads = Bunshin_machine.Pthreads
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module Vec = Bunshin_util.Vec
module Tel = Bunshin_telemetry.Telemetry
module F = Bunshin_forensics.Forensics
module Faults = Bunshin_faults.Faults
module Nxe = Bunshin_nxe.Nxe
module Net = Bunshin_net.Net
module Tx = Bunshin_trace_ctx.Trace_ctx

type ship_mode = Full_remote_lockstep | Selective | Selective_replicated

type placement = Round_robin | Pinned of int list

type config = {
  nodes : int;
  placement : placement;
  ship : ship_mode;
  link : Net.params;
  net_seed : int;
  batch_slots : int;
  ack_every : int;
  ring_capacity : int;
  checkin_cost : float;
  fetch_cost : float;
  synccall_cost : float;
  resched_cost : float;
  msg_cost : float;
  weak_determinism : bool;
  recorder_depth : int;
  telemetry : Tel.sink option;
  tracer : Tx.t option;
  fault_policy : Nxe.fault_policy;
}

let default_config =
  {
    nodes = 2;
    placement = Round_robin;
    ship = Selective_replicated;
    link = Net.default_params;
    net_seed = 0;
    batch_slots = 16;
    ack_every = 16;
    ring_capacity = 64;
    checkin_cost = 0.3;
    fetch_cost = 0.25;
    synccall_cost = 0.4;
    resched_cost = 0.25;
    msg_cost = 0.5;
    weak_determinism = true;
    recorder_depth = 16;
    telemetry = None;
    tracer = None;
    fault_policy = Nxe.default_policy;
  }

type traffic = {
  tf_ship : int;
  tf_batch : int;
  tf_release : int;
  tf_ack : int;
  tf_flow : int;
  tf_order : int;
}

type report = {
  outcome : [ `All_finished | `Aborted of Nxe.alert ];
  incident : F.incident option;
  total_time : float;
  variant_finish : float list;
  variant_cpu : float list;
  synced_syscalls : int;
  executed_syscalls : int;
  lockstep_syscalls : int;
  remote_checked : int;
  replicated_results : int;
  order_entries : int;
  det_replays : int;
  channels : int;
  placement : int list;
  variant_status : Nxe.variant_status list;
  coverage_loss : string list;
  fault_incidents : F.incident list;
  bytes_on_wire : int;
  msgs_on_wire : int;
  traffic : traffic;
  link_stats : (string * Net.stats) list;
  histograms : (string * (float * int) list) list;
  node_stats : M.stats list;
}

let mode_name = function
  | Full_remote_lockstep -> "naive-full-lockstep"
  | Selective -> "selective"
  | Selective_replicated -> "selective+replication"

(* A hung fiber sleeps this long; same convention as the local engine. *)
let stall_duration = 1e9

(* ------------------------------------------------------------------ *)
(* Wire sizing.  The byte model is deliberately simple and explicit: a
   fixed per-message header, per-slot metadata proportional to the
   argument vector (position, syscall number, a 16-byte digest, 8 bytes
   per argument), and a page-sized raw buffer whenever IO content must
   cross the wire.  What varies between ship modes is exactly WHICH of
   these components travel — that difference is the dMVX curve. *)

(* 24 bytes of transport/session header plus 8 bytes of causal-trace
   context (trace id + span id, 32-bit each) piggybacked on EVERY message
   unconditionally — the header reserves the field whether or not a
   tracer is attached, so enabling tracing cannot change bytes-on-wire,
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

let dummy_sc = Sc.make "cluster.empty"
let sc_clone_cost = Sc.base_cost (Sc.clone_thread ())

(* The syscall channel: the local engine's flat slot ring plus the remote
   bookkeeping.  Authoritative slot columns live in shared memory (they
   model the content of messages, and sharing them keeps divergence
   verdicts structurally identical to the local engine's); what a REMOTE
   node is allowed to look at is gated by its delivery watermarks
   [rp_len] / [rp_released], which only ever advance from a Net delivery
   callback — a remote follower never reads a slot the wire has not
   brought to its node yet. *)
type chan = {
  ch_id : int;
  ch_path : string;
  mutable sl_sc : Sc.t array;
  mutable sl_ready : bool array; (* leader released (node-0 view) *)
  mutable sl_arrived : int array;
  mutable sl_first : float array;
  mutable sl_last : float array;
  mutable sl_lastv : int array;
  mutable sl_ship : float array; (* lockstep ship time, for RTT *)
  mutable sl_trace : int array; (* causal trace id per slot, -1 untraced *)
  mutable sl_span : int array; (* rendezvous root span id, -1 untraced *)
  mutable sl_len : int;
  mutable leader_pos : int;
  mutable leader_done : bool;
  cursors : int array; (* per follower: true consumption cursor *)
  kn : int array; (* per follower: the LEADER'S knowledge of it (wire-delayed) *)
  last_ack : int array; (* per follower: cursor value last flow-acked *)
  fol_done : bool array;
  rp_len : int array; (* per node: slots delivered (visible) there *)
  rp_released : int array; (* per node: releases delivered there *)
  leader_q : M.Waitq.t;
  fol_q : M.Waitq.t array;
  tapes : F.Tape.t array;
}

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
    chan.sl_ship <- grow_f chan.sl_ship;
    chan.sl_trace <- grow_i chan.sl_trace;
    chan.sl_span <- grow_i chan.sl_span
  end

(* Weak-determinism order list, with a per-node delivery watermark: a
   remote follower replays an entry only once it has been shipped. *)
type det = {
  d_order : int Vec.t;
  d_cursors : int array; (* per follower *)
  d_qs : M.Waitq.t array; (* per follower *)
  rd_len : int array; (* per node: entries delivered there *)
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

type cl = {
  cfg : config;
  n : int;
  nodes : int;
  machines : M.t array;
  place : int array; (* variant -> node; place.(0) = 0 *)
  net : Net.t;
  down : Net.link array; (* index k-1: node 0 -> node k *)
  up : Net.link array; (* index k-1: node k -> node 0 *)
  outboxes : outbox array; (* index k-1 *)
  h_wait : Tel.Hist.t;
  working_sets : float array;
  sensitivities : float Lazy.t array;
  names : string array;
  mutable failed : Nxe.alert option;
  mutable failed_at : float;
  mutable chan_count : int;
  mutable all_chans : chan list;
  mutable all_dets : det list;
  chan_reg : (string, chan) Hashtbl.t;
  det_reg : (string, det) Hashtbl.t;
  pth_reg : (string * int, Pthreads.t) Hashtbl.t;
  cnt_reg : (string * int, (int, int64 ref) Hashtbl.t) Hashtbl.t;
  proc_reg : (string * int, M.proc) Hashtbl.t;
  mutable synced : int;
  mutable executed : int;
  mutable locksteps : int;
  mutable order_len : int;
  mutable replays : int;
  mutable remote_checked : int;
  mutable replicated : int;
  mutable tf_ship : int;
  mutable tf_batch : int;
  mutable tf_release : int;
  mutable tf_ack : int;
  mutable tf_flow : int;
  mutable tf_order : int;
  faults : Faults.injection array;
  f_done : int array;
  sys_ord : int array;
  v_dead : bool array;
  v_quarantined : bool array;
  v_status : Nxe.variant_status array;
  v_parked : int array;
  live_threads : int array;
  last_progress : float array;
  mutable mon_proc : M.proc option;
  mutable fault_incidents : F.incident list; (* reverse order *)
  mutable fault_abort_incident : F.incident option;
}

let aborted cl = cl.failed <> None
let machine_of cl variant = cl.machines.(cl.place.(variant))
let touch cl variant = cl.last_progress.(variant) <- M.now (machine_of cl variant)

let cl_wait cl ~variant q =
  cl.v_parked.(variant) <- cl.v_parked.(variant) + 1;
  M.Waitq.wait (machine_of cl variant) q;
  cl.v_parked.(variant) <- cl.v_parked.(variant) - 1

(* Cross-machine wakes: a wait queue belongs to the machine its waiters
   run on, so every wake names that machine explicitly.  Wakes are the
   monitor plane — shared state, no wire bytes (see the .mli). *)
let wake_fols cl chan =
  Array.iteri
    (fun i q -> M.Waitq.broadcast cl.machines.(cl.place.(i + 1)) q)
    chan.fol_q

let broadcast_all cl =
  List.iter
    (fun ch ->
      M.Waitq.broadcast cl.machines.(0) ch.leader_q;
      wake_fols cl ch)
    cl.all_chans;
  List.iter
    (fun d ->
      Array.iteri
        (fun i q -> M.Waitq.broadcast cl.machines.(cl.place.(i + 1)) q)
        d.d_qs)
    cl.all_dets

let fail cl alert =
  if cl.failed = None then begin
    cl.failed <- Some alert;
    cl.failed_at <- M.now cl.machines.(0);
    broadcast_all cl
  end

let get_chan cl path =
  match Hashtbl.find_opt cl.chan_reg path with
  | Some c -> c
  | None ->
    let nf = cl.n - 1 in
    let c =
      {
        ch_id = cl.chan_count;
        ch_path = path;
        sl_sc = [||];
        sl_ready = [||];
        sl_arrived = [||];
        sl_first = [||];
        sl_last = [||];
        sl_lastv = [||];
        sl_ship = [||];
        sl_trace = [||];
        sl_span = [||];
        sl_len = 0;
        leader_pos = 0;
        leader_done = false;
        cursors = Array.make nf 0;
        kn = Array.make nf 0;
        last_ack = Array.make nf 0;
        fol_done = Array.make nf false;
        rp_len = Array.make cl.nodes 0;
        rp_released = Array.make cl.nodes 0;
        leader_q = M.Waitq.create ();
        fol_q = Array.init nf (fun _ -> M.Waitq.create ());
        tapes = Array.init cl.n (fun _ -> F.Tape.create ~depth:cl.cfg.recorder_depth);
      }
    in
    cl.chan_count <- cl.chan_count + 1;
    cl.all_chans <- c :: cl.all_chans;
    Hashtbl.replace cl.chan_reg path c;
    c

let get_det cl path =
  match Hashtbl.find_opt cl.det_reg path with
  | Some d -> d
  | None ->
    let nf = cl.n - 1 in
    let d =
      {
        d_order = Vec.create ();
        d_cursors = Array.make nf 0;
        d_qs = Array.init nf (fun _ -> M.Waitq.create ());
        rd_len = Array.make cl.nodes 0;
      }
    in
    cl.all_dets <- d :: cl.all_dets;
    Hashtbl.replace cl.det_reg path d;
    d

let counter_table cl path variant =
  match Hashtbl.find_opt cl.cnt_reg (path, variant) with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 4 in
    Hashtbl.replace cl.cnt_reg (path, variant) t;
    t

let counter_ref (tbl : (int, int64 ref) Hashtbl.t) id =
  match Hashtbl.find_opt tbl id with
  | Some r -> r
  | None ->
    let r = ref 0L in
    Hashtbl.replace tbl id r;
    r

let get_pth cl path variant =
  match Hashtbl.find_opt cl.pth_reg (path, variant) with
  | Some p -> p
  | None ->
    let p = Pthreads.create () in
    Hashtbl.replace cl.pth_reg (path, variant) p;
    p

let get_proc cl path variant =
  match Hashtbl.find_opt cl.proc_reg (path, variant) with
  | Some p -> p
  | None ->
    let p =
      M.new_proc (machine_of cl variant)
        ~cache_sensitivity:cl.sensitivities.(variant)
        ~name:(Printf.sprintf "%s:%s" cl.names.(variant) path)
        ~working_set:cl.working_sets.(variant) ()
    in
    Hashtbl.replace cl.proc_reg (path, variant) p;
    p

(* ------------------------------------------------------------------ *)
(* Shipping: outboxes, flushes and delivery callbacks *)

(* A node still worth shipping to: it hosts at least one follower that is
   neither quarantined nor finished.  Streams to retired nodes are
   discarded — no bytes, no clock advance on a dead machine. *)
let node_active cl k =
  let act = ref false in
  for v = 1 to cl.n - 1 do
    if cl.place.(v) = k && (not cl.v_quarantined.(v)) && cl.live_threads.(v) > 0
    then act := true
  done;
  !act

let wake_node_fols cl chan k =
  Array.iteri
    (fun i q -> if cl.place.(i + 1) = k then M.Waitq.broadcast cl.machines.(k) q)
    chan.fol_q

let wake_node_det cl det k =
  Array.iteri
    (fun i q -> if cl.place.(i + 1) = k then M.Waitq.broadcast cl.machines.(k) q)
    det.d_qs

(* Flush one node's outbox as a single batched message.  Always called
   from a leader fiber on node 0.  Delivery walks the items in append
   order and only advances monotone watermarks — re-delivery or overlap
   with a lockstep ship can never move a watermark backwards. *)
let flush_node cl k =
  let ob = cl.outboxes.(k - 1) in
  if ob.ob_items <> [] then begin
    let items = List.rev ob.ob_items in
    let bytes = msg_hdr + ob.ob_bytes in
    let span = ob.ob_span in
    ob.ob_items <- [];
    ob.ob_slots <- 0;
    ob.ob_bytes <- 0;
    ob.ob_span <- -1;
    if node_active cl k then begin
      M.compute cl.machines.(0) cl.cfg.msg_cost;
      (match cl.cfg.ship with
       | Full_remote_lockstep -> cl.tf_order <- cl.tf_order + bytes
       | Selective | Selective_replicated -> cl.tf_batch <- cl.tf_batch + bytes);
      Net.send_traced cl.net cl.down.(k - 1) ~bytes ~span ~node:k (fun () ->
          List.iter
            (fun item ->
              match item with
              | Ob_slots (c, hi) ->
                if hi > c.rp_len.(k) then c.rp_len.(k) <- hi;
                if hi > c.rp_released.(k) then c.rp_released.(k) <- hi;
                wake_node_fols cl c k
              | Ob_order (d, hi) ->
                if hi > d.rd_len.(k) then d.rd_len.(k) <- hi;
                wake_node_det cl d k)
            items)
    end
  end

let flush_all cl = for k = 1 to cl.nodes - 1 do flush_node cl k done

(* Append one executed non-sensitive slot to node [k]'s stream; batched
   slots arrive pre-released (the leader already executed them). *)
let append_slot cl k chan ~pos sc =
  let ob = cl.outboxes.(k - 1) in
  (match ob.ob_items with
   | Ob_slots (c, _) :: rest when c == chan ->
     ob.ob_items <- Ob_slots (chan, pos + 1) :: rest
   | items -> ob.ob_items <- Ob_slots (chan, pos + 1) :: items);
  ob.ob_slots <- ob.ob_slots + 1;
  ob.ob_bytes <- ob.ob_bytes + batch_entry_bytes cl.cfg.ship sc;
  (* The batch message carries the context of its newest slot: by the time
     it flushes, earlier slots' rendezvous roots have already closed. *)
  if pos < Array.length chan.sl_span && chan.sl_span.(pos) >= 0 then
    ob.ob_span <- chan.sl_span.(pos);
  if ob.ob_slots >= cl.cfg.batch_slots then flush_node cl k

let append_order cl k det ~hi =
  let ob = cl.outboxes.(k - 1) in
  (match ob.ob_items with
   | Ob_order (d, _) :: rest when d == det -> ob.ob_items <- Ob_order (det, hi) :: rest
   | items -> ob.ob_items <- Ob_order (det, hi) :: items);
  ob.ob_bytes <- ob.ob_bytes + order_entry_bytes;
  (* Naive mode has no slot batches to ride on: each order entry is its
     own message, like the per-operation synccall it models. *)
  if cl.cfg.ship = Full_remote_lockstep then flush_node cl k

(* Follower -> leader flow-control ack: pushes the follower's consumption
   cursor into the leader's knowledge ([kn]), releasing ring capacity.
   Sent every [ack_every] consumed slots, and additionally whenever the
   follower is about to park with unacked consumption — that bound on
   staleness is what makes the capacity wait deadlock-free. *)
let send_flow cl chan ~variant =
  let i = variant - 1 in
  let node = cl.place.(variant) in
  let cur = chan.cursors.(i) in
  chan.last_ack.(i) <- cur;
  M.compute cl.machines.(node) cl.cfg.msg_cost;
  cl.tf_flow <- cl.tf_flow + flow_bytes;
  Net.send cl.net cl.up.(node - 1) ~bytes:flow_bytes (fun () ->
      if cur > chan.kn.(i) then chan.kn.(i) <- cur;
      M.Waitq.broadcast cl.machines.(0) chan.leader_q)

let maybe_flow cl chan ~variant =
  let i = variant - 1 in
  if cl.place.(variant) <> 0
     && chan.cursors.(i) - chan.last_ack.(i) >= cl.cfg.ack_every
  then send_flow cl chan ~variant

(* ------------------------------------------------------------------ *)
(* Fault handling: same verdict machinery as the local engine.  The
   monitor plane is shared state, so a remote quarantine produces the
   exact incident and coverage-loss accounting a local one does. *)

let monitor_proc cl =
  match cl.mon_proc with
  | Some p -> p
  | None ->
    let p = M.new_proc cl.machines.(0) ~name:"cluster-monitor" ~working_set:0.0 () in
    cl.mon_proc <- Some p;
    p

let vote_at chan ~pos v =
  match F.Tape.find chan.tapes.(v) ~pos with
  | Some r -> F.Issued r
  | None ->
    let passed = if v = 0 then chan.leader_pos > pos else chan.cursors.(v - 1) > pos in
    let exited = if v = 0 then chan.leader_done else chan.fol_done.(v - 1) in
    if passed then
      if pos < chan.sl_len then begin
        let sc = chan.sl_sc.(pos) in
        F.Issued { F.r_pos = pos; r_name = sc.Sc.name; r_args = sc.Sc.args; r_time = 0.0 }
      end
      else F.Pending
    else if exited then F.Exited
    else F.Pending

(* Divergence evidence must be mode-independent: when a batched check
   fails, the leader (and followers on other nodes) may have run far
   ahead of the diverging slot, so a live recorder snapshot would show
   run-ahead entries naive lockstep can never contain.  Rebuild the
   window ending at the divergence instead — recorded entries where the
   recorder still holds them, slot-stream reconstructions for positions
   the variant already passed (a passed check means it issued exactly
   the leader's syscall there).  Fault incidents keep the live tapes:
   for those, each variant's actual progress is the evidence. *)
let divergence_tape cl chan ~pos v =
  let lo = max 0 (pos - cl.cfg.recorder_depth + 1) in
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

let incident_for cl ~chan ~pos ~flagged ~expected ~got ?mismatch_override ~time () =
  let tapes =
    match mismatch_override with
    | Some _ -> Array.init cl.n (fun v -> F.Tape.to_list chan.tapes.(v))
    | None -> Array.init cl.n (divergence_tape cl chan ~pos)
  in
  F.build ?mismatch_override ~channel:chan.ch_id ~position:pos ~flagged ~expected ~got
    ~time
    ~votes:(Array.init cl.n (vote_at chan ~pos))
    ~tapes ()

let fault_site cl variant =
  let chans = List.rev cl.all_chans in
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

let cancel_variant cl variant =
  Hashtbl.iter
    (fun (_, v) proc -> if v = variant then M.cancel_proc (machine_of cl variant) proc)
    cl.proc_reg

let quarantine cl ~variant ~cause =
  if not cl.v_quarantined.(variant) then begin
    let now = M.now cl.machines.(0) in
    let chan, pos = fault_site cl variant in
    (* Incident before cursor retirement: the victim's vote must read
       Pending ("never arrived"), not Exited. *)
    let inc =
      incident_for cl ~chan ~pos ~flagged:variant ~expected:(expected_at chan pos)
        ~got:(Nxe.cause_string cause) ~mismatch_override:F.Fault_isolation ~time:now ()
    in
    cl.fault_incidents <- inc :: cl.fault_incidents;
    cl.v_quarantined.(variant) <- true;
    cl.v_dead.(variant) <- true;
    cl.v_status.(variant) <-
      Nxe.Quarantined { q_time = now; q_cause = cause; q_restarts = 0 };
    List.iter (fun c -> c.fol_done.(variant - 1) <- true) cl.all_chans;
    cancel_variant cl variant;
    cl.live_threads.(variant) <- 0;
    cl.v_parked.(variant) <- 0;
    broadcast_all cl
  end

let handle_fault cl ~variant ~cause =
  if (not (aborted cl)) && not cl.v_quarantined.(variant) then begin
    let pol = cl.cfg.fault_policy in
    let abort () =
      let chan, pos = fault_site cl variant in
      let expected =
        match cause with
        | Nxe.Missed_heartbeat _ ->
          Printf.sprintf "<heartbeat within %.0fus>" pol.Nxe.heartbeat_timeout
        | Nxe.Benign_death -> expected_at chan pos
      in
      let got = Nxe.cause_string cause in
      cl.fault_abort_incident <-
        Some
          (incident_for cl ~chan ~pos ~flagged:variant ~expected ~got
             ~mismatch_override:F.Fault_isolation ~time:(M.now cl.machines.(0)) ());
      cl.v_dead.(variant) <- true;
      fail cl
        {
          Nxe.al_channel = chan.ch_id;
          al_position = pos;
          al_variant = variant;
          al_expected = expected;
          al_got = got;
          al_expected_sc = None;
          al_got_sc = None;
        };
      cancel_variant cl variant
    in
    if variant = 0 then abort () (* leader loss is fatal: no follower promotion *)
    else
      match pol.Nxe.policy with
      | Nxe.Abort_on_fault -> abort ()
      | Nxe.Quarantine -> quarantine cl ~variant ~cause
      | Nxe.Restart_once -> abort () (* rejected at entry; defensive *)
  end

let apply_faults cl ~variant sc =
  if Array.length cl.faults = 0 then sc
  else begin
    let ord = cl.sys_ord.(variant) in
    cl.sys_ord.(variant) <- ord + 1;
    let m = machine_of cl variant in
    let sc = ref sc in
    Array.iteri
      (fun k (inj : Faults.injection) ->
        if
          inj.Faults.i_variant = variant
          && (not (aborted cl))
          && not cl.v_dead.(variant)
        then
          match inj.Faults.i_kind with
          | Faults.Stall ->
            if ord >= inj.Faults.i_at && cl.f_done.(k) = 0 then begin
              cl.f_done.(k) <- 1;
              M.sleep m stall_duration
            end
          | Faults.Die ->
            if ord >= inj.Faults.i_at && cl.f_done.(k) = 0 then begin
              cl.f_done.(k) <- 1;
              cl.v_dead.(variant) <- true;
              handle_fault cl ~variant ~cause:Nxe.Benign_death
            end
          | Faults.Delay { d_each; d_count } ->
            if ord >= inj.Faults.i_at && cl.f_done.(k) < d_count then begin
              cl.f_done.(k) <- cl.f_done.(k) + 1;
              M.sleep m d_each
            end
          | Faults.Corrupt { c_arg; c_delta } ->
            if ord = inj.Faults.i_at && cl.f_done.(k) = 0 then begin
              cl.f_done.(k) <- 1;
              let args =
                List.mapi
                  (fun ai a -> if ai = c_arg then Int64.add a c_delta else a)
                  (!sc).Sc.args
              in
              sc := Sc.with_args !sc args
            end)
      cl.faults;
    !sc
  end

(* ------------------------------------------------------------------ *)
(* Syscall synchronization *)

let live_followers chan =
  Array.fold_left (fun acc d -> if d then acc else acc + 1) 0 chan.fol_done

(* A slot is fully retired once the leader released it AND every live
   follower's cursor moved past it — the rendezvous root span closes
   there, so post-release fetches still nest inside it (see Nxe). *)
let slot_retired cl chan pos =
  let all = ref true in
  Array.iteri
    (fun i c ->
      if c <= pos && (not chan.fol_done.(i)) && not cl.v_quarantined.(i + 1) then
        all := false)
    chan.cursors;
  !all

(* Reconstruct the calling thread's last run-queue wait as a Sched_wait
   child of the slot's rendezvous root.  Must run BEFORE any further
   [M.compute]: the next dispatch overwrites the machine's stamps. *)
let trace_sched_wait cl tc chan pos ~variant =
  let node = if variant < 0 then 0 else cl.place.(variant) in
  let r0, r1 = M.last_ready_wait cl.machines.(node) in
  if r1 > r0 then
    ignore
      (Tx.record_child tc Tx.Sched_wait ~parent:chan.sl_span.(pos) ~node
         ~variant ~chan:chan.ch_id ~pos ~t0:r0 ~t1:r1)

(* The leader's run-ahead bound uses what it KNOWS: local followers'
   cursors directly, remote followers' last acked cursor — the wire delay
   of flow acks is part of the model, not an implementation shortcut. *)
let known_min_cursor cl chan =
  let best = ref max_int in
  Array.iteri
    (fun i c ->
      if not chan.fol_done.(i) then begin
        let k = if cl.place.(i + 1) = 0 then c else chan.kn.(i) in
        if k < !best then best := k
      end)
    chan.cursors;
  if !best = max_int then chan.leader_pos else !best

let leader_sync cl chan sc =
  let m = cl.machines.(0) in
  let pub_t0 = M.now m in
  M.compute m cl.cfg.checkin_cost;
  let pos = chan.leader_pos in
  ensure_slot chan;
  let publish_now = M.now m in
  chan.sl_sc.(pos) <- sc;
  chan.sl_ready.(pos) <- false;
  chan.sl_arrived.(pos) <- 0;
  chan.sl_first.(pos) <- publish_now;
  chan.sl_last.(pos) <- publish_now;
  chan.sl_lastv.(pos) <- 0;
  chan.sl_ship.(pos) <- 0.0;
  (match cl.cfg.tracer with
   | Some tc ->
     let trace = Tx.new_trace tc in
     let root =
       Tx.start tc Tx.Rendezvous ~trace ~parent:(-1) ~node:0 ~variant:(-1)
         ~chan:chan.ch_id ~pos ~t0:pub_t0
     in
     chan.sl_trace.(pos) <- trace;
     chan.sl_span.(pos) <- root;
     ignore
       (Tx.record_child tc Tx.Publish ~parent:root ~node:0 ~variant:0
          ~chan:chan.ch_id ~pos ~t0:pub_t0 ~t1:publish_now)
   | None ->
     chan.sl_trace.(pos) <- -1;
     chan.sl_span.(pos) <- -1);
  chan.sl_len <- pos + 1;
  F.Tape.record chan.tapes.(0) ~pos ~time:publish_now sc;
  touch cl 0;
  chan.leader_pos <- pos + 1;
  cl.synced <- cl.synced + 1;
  wake_fols cl chan;
  let sensitive = is_sensitive cl.cfg.ship sc in
  let blocked = ref false in
  let wait_from = M.now m in
  if sensitive then begin
    cl.locksteps <- cl.locksteps + 1;
    (* Everything a remote follower needs to REACH this rendezvous —
       batched slots, order entries — was appended strictly earlier, so
       flushing here (before we can block) keeps the wait acyclic. *)
    flush_all cl;
    chan.sl_ship.(pos) <- M.now m;
    for k = 1 to cl.nodes - 1 do
      if node_active cl k then begin
        M.compute m cl.cfg.msg_cost;
        let bytes = ship_bytes cl.cfg.ship sc in
        cl.tf_ship <- cl.tf_ship + bytes;
        Net.send_traced cl.net cl.down.(k - 1) ~bytes ~span:chan.sl_span.(pos)
          ~node:k (fun () ->
            if pos + 1 > chan.rp_len.(k) then chan.rp_len.(k) <- pos + 1;
            wake_node_fols cl chan k)
      end
    done;
    (* Execute only after every live follower — local or remote — has
       arrived and agreed; remote arrivals are acks on the up link. *)
    let waiting = ref true in
    while !waiting do
      if aborted cl then waiting := false
      else begin
        for i = 0 to Array.length chan.fol_done - 1 do
          if
            chan.fol_done.(i)
            && (not cl.v_quarantined.(i + 1))
            && chan.cursors.(i) <= pos
          then
            fail cl
              {
                Nxe.al_channel = chan.ch_id;
                al_position = pos;
                al_variant = i + 1;
                al_expected = sc.Sc.name;
                al_got = "<exit>";
                al_expected_sc = Some sc;
                al_got_sc = None;
              }
        done;
        if (not (aborted cl)) && chan.sl_arrived.(pos) < live_followers chan then begin
          blocked := true;
          cl_wait cl ~variant:0 chan.leader_q
        end
        else waiting := false
      end
    done;
    (match cl.cfg.tracer with
     | Some tc when not (aborted cl) ->
       Tx.extend_t0 tc chan.sl_span.(pos) ~t0:chan.sl_first.(pos);
       if !blocked then begin
         trace_sched_wait cl tc chan pos ~variant:0;
         ignore
           (Tx.record_child tc Tx.Lockstep_wait ~parent:chan.sl_span.(pos)
              ~node:0 ~variant:(-1) ~chan:chan.ch_id ~pos ~t0:wait_from
              ~t1:(M.now m))
       end
     | _ -> ())
  end
  else begin
    while
      (not (aborted cl))
      && chan.leader_pos - known_min_cursor cl chan > cl.cfg.ring_capacity
    do
      (* Flushing charges msg_cost, and a flow ack can land during that
         compute: re-check before parking so the wakeup is not lost. *)
      if Array.exists (fun ob -> ob.ob_items <> []) cl.outboxes then flush_all cl
      else begin
        blocked := true;
        cl_wait cl ~variant:0 chan.leader_q
      end
    done
  end;
  if !blocked then Tel.Hist.observe cl.h_wait (M.now m -. wait_from);
  if !blocked && not (aborted cl) then M.compute m cl.cfg.resched_cost;
  if not (aborted cl) then begin
    M.compute m (Sc.base_cost sc);
    chan.sl_ready.(pos) <- true;
    cl.executed <- cl.executed + 1;
    touch cl 0;
    if sensitive then
      for k = 1 to cl.nodes - 1 do
        if node_active cl k then begin
          M.compute m cl.cfg.msg_cost;
          let bytes = release_bytes sc in
          cl.tf_release <- cl.tf_release + bytes;
          Net.send_traced cl.net cl.down.(k - 1) ~bytes ~span:chan.sl_span.(pos)
            ~node:k (fun () ->
              if pos + 1 > chan.rp_released.(k) then chan.rp_released.(k) <- pos + 1;
              if pos + 1 > chan.rp_len.(k) then chan.rp_len.(k) <- pos + 1;
              wake_node_fols cl chan k)
        end
      done
    else
      for k = 1 to cl.nodes - 1 do
        if node_active cl k then append_slot cl k chan ~pos sc
      done;
    wake_fols cl chan;
    (* The root closes at full retirement; with no live followers the
       leader's release IS the retirement (otherwise the follower whose
       consume empties the slot closes it). *)
    match cl.cfg.tracer with
    | Some tc when chan.sl_span.(pos) >= 0 ->
      Tx.extend_t0 tc chan.sl_span.(pos) ~t0:chan.sl_first.(pos);
      if slot_retired cl chan pos then Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
    | _ -> ()
  end

(* Local follower: exactly the single-host engine's path — it reads the
   authoritative ring directly and gates on [sl_ready]. *)
let local_follower_sync cl chan ~variant sc =
  let m = cl.machines.(0) in
  let i = variant - 1 in
  let pos = chan.cursors.(i) in
  let blocked_for_slot = ref false in
  let wait_from = M.now m in
  while (not (aborted cl)) && chan.leader_pos <= pos && not chan.leader_done do
    blocked_for_slot := true;
    cl_wait cl ~variant chan.fol_q.(i)
  done;
  if !blocked_for_slot then Tel.Hist.observe cl.h_wait (M.now m -. wait_from);
  (* Capture before the resched compute: the next dispatch overwrites the
     machine's ready-wait stamps. *)
  let rdy0, rdy1 =
    match cl.cfg.tracer with
    | Some _ when !blocked_for_slot -> M.last_ready_wait m
    | _ -> (0.0, 0.0)
  in
  if !blocked_for_slot && not (aborted cl) then M.compute m cl.cfg.resched_cost;
  if aborted cl then ()
  else if chan.leader_pos <= pos then begin
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) sc;
    fail cl
      {
        Nxe.al_channel = chan.ch_id;
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
      fail cl
        {
          Nxe.al_channel = chan.ch_id;
          al_position = pos;
          al_variant = variant;
          al_expected = Format.asprintf "%a" Sc.pp exp_sc;
          al_got = Format.asprintf "%a" Sc.pp sc;
          al_expected_sc = Some exp_sc;
          al_got_sc = Some sc;
        }
    else begin
      chan.sl_arrived.(pos) <- chan.sl_arrived.(pos) + 1;
      if wait_from < chan.sl_first.(pos) then chan.sl_first.(pos) <- wait_from;
      if wait_from >= chan.sl_last.(pos) then begin
        chan.sl_last.(pos) <- wait_from;
        chan.sl_lastv.(pos) <- variant
      end;
      (match cl.cfg.tracer with
       | Some tc when chan.sl_span.(pos) >= 0 ->
         (* t0 clamps to the root's opening; early arrivals invert and
            are dropped by [record_child]. *)
         ignore
           (Tx.record_child tc Tx.Arrival ~parent:chan.sl_span.(pos) ~node:0
              ~variant ~chan:chan.ch_id ~pos ~t0:neg_infinity ~t1:wait_from);
         if rdy1 > rdy0 then
           ignore
             (Tx.record_child tc Tx.Sched_wait ~parent:chan.sl_span.(pos)
                ~node:0 ~variant ~chan:chan.ch_id ~pos ~t0:rdy0 ~t1:rdy1)
       | _ -> ());
      M.Waitq.signal m chan.leader_q;
      let blocked = ref false in
      let ready_from = M.now m in
      while (not (aborted cl)) && not chan.sl_ready.(pos) do
        blocked := true;
        cl_wait cl ~variant chan.fol_q.(i)
      done;
      if !blocked then Tel.Hist.observe cl.h_wait (M.now m -. ready_from);
      if not (aborted cl) then begin
        (match cl.cfg.tracer with
         | Some tc when !blocked && chan.sl_span.(pos) >= 0 ->
           trace_sched_wait cl tc chan pos ~variant
         | _ -> ());
        let fetch_t0 = M.now m in
        M.compute m (cl.cfg.fetch_cost +. if !blocked then cl.cfg.resched_cost else 0.0);
        chan.cursors.(i) <- pos + 1;
        touch cl variant;
        (match cl.cfg.tracer with
         | Some tc when chan.sl_span.(pos) >= 0 ->
           ignore
             (Tx.record_child tc Tx.Fetch ~parent:chan.sl_span.(pos) ~node:0
                ~variant ~chan:chan.ch_id ~pos ~t0:fetch_t0 ~t1:(M.now m));
           if slot_retired cl chan pos then
             Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
         | _ -> ());
        M.Waitq.signal m chan.leader_q
      end
    end
  end

(* Remote follower: sees a slot only once its node's delivery watermark
   covers it; a sensitive slot's arrival is an ack over the up link and
   its release an explicit message; batched slots arrive pre-released. *)
let remote_follower_sync cl chan ~variant sc =
  let node = cl.place.(variant) in
  let m = cl.machines.(node) in
  let i = variant - 1 in
  let pos = chan.cursors.(i) in
  let drained () = chan.leader_done && chan.rp_len.(node) >= chan.leader_pos in
  let blocked_for_slot = ref false in
  let wait_from = M.now m in
  while (not (aborted cl)) && chan.rp_len.(node) <= pos && not (drained ()) do
    (* Sending the flow ack costs CPU, and a delivery can land during that
       compute — so re-check the wait condition before actually parking,
       or the wakeup is lost. *)
    if chan.cursors.(i) > chan.last_ack.(i) then send_flow cl chan ~variant
    else begin
      blocked_for_slot := true;
      cl_wait cl ~variant chan.fol_q.(i)
    end
  done;
  if !blocked_for_slot then Tel.Hist.observe cl.h_wait (M.now m -. wait_from);
  (* As in the local path: read the ready-wait stamps before any compute. *)
  let rdy0, rdy1 =
    match cl.cfg.tracer with
    | Some _ when !blocked_for_slot -> M.last_ready_wait m
    | _ -> (0.0, 0.0)
  in
  if !blocked_for_slot && not (aborted cl) then M.compute m cl.cfg.resched_cost;
  if aborted cl then ()
  else if chan.rp_len.(node) <= pos then begin
    (* Leader exited and its whole stream is delivered here: this variant
       issues an extra syscall — same verdict as the local engine. *)
    F.Tape.record chan.tapes.(variant) ~pos ~time:(M.now m) sc;
    fail cl
      {
        Nxe.al_channel = chan.ch_id;
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
      fail cl
        {
          Nxe.al_channel = chan.ch_id;
          al_position = pos;
          al_variant = variant;
          al_expected = Format.asprintf "%a" Sc.pp exp_sc;
          al_got = Format.asprintf "%a" Sc.pp sc;
          al_expected_sc = Some exp_sc;
          al_got_sc = Some sc;
        }
    else if is_sensitive cl.cfg.ship exp_sc then begin
      (* Remote check: the ack carries this node's verdict (and its
         current cursor, for free) back to the leader.  The Arrival span
         opens at the rendezvous root and closes when the ack lands on
         node 0 — so a remote straggler's lateness INCLUDES its wire
         time, with the ack's Net_msg nested inside it; the largest-edge
         rule then separates "variant slow" from "wire slow". *)
      let arr =
        match cl.cfg.tracer with
        | Some tc when chan.sl_span.(pos) >= 0 ->
          if rdy1 > rdy0 then
            ignore
              (Tx.record_child tc Tx.Sched_wait ~parent:chan.sl_span.(pos)
                 ~node ~variant ~chan:chan.ch_id ~pos ~t0:rdy0 ~t1:rdy1);
          Tx.start tc Tx.Arrival ~trace:chan.sl_trace.(pos)
            ~parent:chan.sl_span.(pos) ~node ~variant ~chan:chan.ch_id ~pos
            ~t0:(Tx.span_t0 tc chan.sl_span.(pos))
        | _ -> -1
      in
      M.compute m cl.cfg.msg_cost;
      let cursor_now = chan.cursors.(i) in
      cl.tf_ack <- cl.tf_ack + ack_bytes;
      Net.send_traced cl.net cl.up.(node - 1) ~bytes:ack_bytes ~span:arr
        ~node:0 (fun () ->
          let t0 = M.now cl.machines.(0) in
          chan.sl_arrived.(pos) <- chan.sl_arrived.(pos) + 1;
          if t0 < chan.sl_first.(pos) then chan.sl_first.(pos) <- t0;
          if t0 >= chan.sl_last.(pos) then begin
            chan.sl_last.(pos) <- t0;
            chan.sl_lastv.(pos) <- variant
          end;
          if chan.sl_ship.(pos) > 0.0 then
            Net.observe_rtt cl.net (t0 -. chan.sl_ship.(pos));
          if cursor_now > chan.kn.(i) then chan.kn.(i) <- cursor_now;
          cl.remote_checked <- cl.remote_checked + 1;
          (match cl.cfg.tracer with
           | Some tc when arr >= 0 -> Tx.finish tc arr ~t1:t0
           | _ -> ());
          M.Waitq.broadcast cl.machines.(0) chan.leader_q);
      let blocked = ref false in
      let ready_from = M.now m in
      while (not (aborted cl)) && chan.rp_released.(node) <= pos do
        blocked := true;
        cl_wait cl ~variant chan.fol_q.(i)
      done;
      if !blocked then Tel.Hist.observe cl.h_wait (M.now m -. ready_from);
      if not (aborted cl) then begin
        (match cl.cfg.tracer with
         | Some tc when !blocked && chan.sl_span.(pos) >= 0 ->
           trace_sched_wait cl tc chan pos ~variant
         | _ -> ());
        let fetch_t0 = M.now m in
        M.compute m (cl.cfg.fetch_cost +. if !blocked then cl.cfg.resched_cost else 0.0);
        chan.cursors.(i) <- pos + 1;
        touch cl variant;
        (match cl.cfg.tracer with
         | Some tc when chan.sl_span.(pos) >= 0 ->
           ignore
             (Tx.record_child tc Tx.Fetch ~parent:chan.sl_span.(pos) ~node
                ~variant ~chan:chan.ch_id ~pos ~t0:fetch_t0 ~t1:(M.now m));
           if slot_retired cl chan pos then
             Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
         | _ -> ());
        maybe_flow cl chan ~variant
      end
    end
    else begin
      (* Batched slot: delivered pre-released.  With replication on, a
         read result is served from this node's replica of the leader
         stream — no payload crossed the wire for it. *)
      if exp_sc.Sc.klass = Sc.Io_read && cl.cfg.ship = Selective_replicated then
        cl.replicated <- cl.replicated + 1;
      (match cl.cfg.tracer with
       | Some tc when chan.sl_span.(pos) >= 0 ->
         ignore
           (Tx.record_child tc Tx.Arrival ~parent:chan.sl_span.(pos) ~node
              ~variant ~chan:chan.ch_id ~pos ~t0:neg_infinity ~t1:wait_from);
         if rdy1 > rdy0 then
           ignore
             (Tx.record_child tc Tx.Sched_wait ~parent:chan.sl_span.(pos)
                ~node ~variant ~chan:chan.ch_id ~pos ~t0:rdy0 ~t1:rdy1)
       | _ -> ());
      let fetch_t0 = M.now m in
      M.compute m cl.cfg.fetch_cost;
      chan.cursors.(i) <- pos + 1;
      touch cl variant;
      (match cl.cfg.tracer with
       | Some tc when chan.sl_span.(pos) >= 0 ->
         ignore
           (Tx.record_child tc Tx.Fetch ~parent:chan.sl_span.(pos) ~node
              ~variant ~chan:chan.ch_id ~pos ~t0:fetch_t0 ~t1:(M.now m));
         if slot_retired cl chan pos then
           Tx.finish tc chan.sl_span.(pos) ~t1:(M.now m)
       | _ -> ());
      maybe_flow cl chan ~variant
    end
  end

(* ------------------------------------------------------------------ *)
(* Weak determinism across nodes: the leader's order list streams to each
   node with the batches (its own messages in naive mode); a remote
   follower replays an entry only after it is delivered to its node. *)

let det_order_op cl det ~variant ~chan =
  if cl.cfg.weak_determinism then begin
    let node = cl.place.(variant) in
    let m = cl.machines.(node) in
    let ltid = chan.ch_id in
    M.compute m cl.cfg.synccall_cost;
    if variant = 0 then begin
      Vec.push det.d_order ltid;
      det.rd_len.(0) <- Vec.length det.d_order;
      cl.order_len <- cl.order_len + 1;
      touch cl 0;
      Array.iteri
        (fun i q -> M.Waitq.broadcast cl.machines.(cl.place.(i + 1)) q)
        det.d_qs;
      for k = 1 to cl.nodes - 1 do
        if node_active cl k then append_order cl k det ~hi:(Vec.length det.d_order)
      done
    end
    else begin
      let i = variant - 1 in
      while
        (not (aborted cl))
        && not
             (det.d_cursors.(i) < det.rd_len.(node)
             && Vec.get det.d_order det.d_cursors.(i) = ltid)
      do
        cl_wait cl ~variant det.d_qs.(i)
      done;
      if not (aborted cl) then begin
        det.d_cursors.(i) <- det.d_cursors.(i) + 1;
        cl.replays <- cl.replays + 1;
        touch cl variant;
        M.Waitq.broadcast m det.d_qs.(i)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Thread executor *)

let do_sys cl ~variant ~chan sc =
  let sc = apply_faults cl ~variant sc in
  if cl.v_dead.(variant) || aborted cl then ()
  else if variant = 0 then leader_sync cl chan sc
  else if cl.place.(variant) = 0 then local_follower_sync cl chan ~variant sc
  else remote_follower_sync cl chan ~variant sc

let rec exec_ops cl ~variant ~chan ~ppath ~proc ~pth ~det ~in_main_init ops () =
  let m = machine_of cl variant in
  let in_main = ref in_main_init in
  let spawn_count = ref 0 in
  let cnts = counter_table cl ppath variant in
  List.iter
    (fun op ->
      if (not (aborted cl)) && not cl.v_dead.(variant) then
        match op with
        | Trace.Work w -> M.compute m w.cost
        | Trace.Idle d -> M.sleep m d
        | Trace.Marker Trace.Main_entered -> in_main := true
        | Trace.Marker Trace.About_to_exit -> in_main := false
        | Trace.Sys sc ->
          if !in_main && Sc.is_synchronized sc then do_sys cl ~variant ~chan sc
          else M.compute m (Sc.base_cost sc)
        | Trace.Incr id ->
          M.compute m 0.05;
          let r = counter_ref cnts id in
          r := Int64.add !r 1L
        | Trace.Sys_shared (sc, id) ->
          let v = !(counter_ref cnts id) in
          let sc = Sc.with_args sc (sc.Sc.args @ [ v ]) in
          if !in_main && Sc.is_synchronized sc then do_sys cl ~variant ~chan sc
          else M.compute m (Sc.base_cost sc)
        | Trace.Lock id ->
          det_order_op cl det ~variant ~chan;
          Pthreads.lock m pth id
        | Trace.Unlock id -> Pthreads.unlock m pth id
        | Trace.Barrier (id, expected) ->
          det_order_op cl det ~variant ~chan;
          Pthreads.barrier m pth id expected
        | Trace.Spawn sub ->
          let k = !spawn_count in
          incr spawn_count;
          M.compute m sc_clone_cost;
          let child = get_chan cl (Printf.sprintf "%s/s%d" chan.ch_path k) in
          cl.live_threads.(variant) <- cl.live_threads.(variant) + 1;
          ignore
            (M.spawn m proc
               ~name:(Printf.sprintf "%s:t%s" cl.names.(variant) child.ch_path)
               (exec_ops cl ~variant ~chan:child ~ppath ~proc ~pth ~det
                  ~in_main_init:!in_main sub))
        | Trace.Fork _ -> invalid_arg "Cluster: Fork is a single-host feature"
        | Trace.Shared_read _ ->
          invalid_arg "Cluster: Shared_read is a single-host feature")
    ops;
  touch cl variant;
  if variant = 0 then begin
    chan.leader_done <- true;
    (* End of this leader thread's stream: whatever is still batched must
       reach the remote nodes, or their followers would wait forever on a
       watermark no one will ever advance. *)
    flush_all cl;
    wake_fols cl chan
  end
  else begin
    chan.fol_done.(variant - 1) <- true;
    M.Waitq.signal cl.machines.(0) chan.leader_q
  end;
  cl.live_threads.(variant) <- max 0 (cl.live_threads.(variant) - 1)

(* ------------------------------------------------------------------ *)
(* Cluster co-simulation: settle every machine (dispatch runnable fibers
   until none makes progress), then step whichever machine holds the
   globally earliest pending event, ties broken by node index — a total
   deterministic order, so one seed gives one bit-stable schedule. *)

let run_cluster cl =
  let ms = cl.machines in
  let nm = Array.length ms in
  let settle () =
    let progressed = ref true in
    while !progressed do
      progressed := false;
      for k = 0 to nm - 1 do
        if M.dispatch_runnable ms.(k) then progressed := true
      done
    done
  in
  let total_unfinished () =
    let s = ref 0 in
    for k = 0 to nm - 1 do
      s := !s + M.unfinished_nondaemon ms.(k)
    done;
    !s
  in
  let continue_ = ref true in
  while !continue_ do
    settle ();
    if total_unfinished () = 0 then continue_ := false
    else begin
      let best = ref (-1) in
      let bt = ref infinity in
      for k = 0 to nm - 1 do
        let t = M.next_event_time ms.(k) in
        if t < !bt then begin
          bt := t;
          best := k
        end
      done;
      if !best < 0 then
        raise
          (M.Deadlock
             ("cluster: "
             ^ String.concat "; "
                 (List.map M.stuck_description (Array.to_list ms))))
      else M.step_event ms.(!best)
    end
  done

(* ------------------------------------------------------------------ *)
(* Entry points *)

let rec check_trace ops =
  List.iter
    (fun op ->
      match op with
      | Trace.Fork _ ->
        invalid_arg "Cluster.run_traces: Fork is a single-host feature"
      | Trace.Shared_read _ ->
        invalid_arg "Cluster.run_traces: Shared_read is a single-host feature"
      | Trace.Spawn sub -> check_trace sub
      | _ -> ())
    ops

let resolve_placement (config : config) n =
  match config.placement with
  | Round_robin -> Array.init n (fun v -> v mod config.nodes)
  | Pinned l ->
    if List.length l <> n then
      invalid_arg "Cluster.run_traces: placement length mismatch";
    let a = Array.of_list l in
    Array.iter
      (fun k ->
        if k < 0 || k >= config.nodes then
          invalid_arg "Cluster.run_traces: placement node out of range")
      a;
    if a.(0) <> 0 then
      invalid_arg "Cluster.run_traces: the leader (variant 0) must be on node 0";
    a

let run_traces ?(config = default_config) ?machine_config ?working_sets ?sensitivities
    ?(faults = Faults.none) ?coverage ~names traces =
  let n = List.length traces in
  if n < 1 then invalid_arg "Cluster.run_traces: need at least one variant";
  if List.length names <> n then
    invalid_arg "Cluster.run_traces: names/traces length mismatch";
  if config.nodes < 1 then invalid_arg "Cluster.run_traces: nodes must be >= 1";
  if config.batch_slots < 1 then
    invalid_arg "Cluster.run_traces: batch_slots must be >= 1";
  if config.ring_capacity < 1 then
    invalid_arg "Cluster.run_traces: ring_capacity must be >= 1";
  if config.ack_every < 1 || config.ack_every > config.ring_capacity then
    invalid_arg "Cluster.run_traces: ack_every must be in [1, ring_capacity]";
  if config.recorder_depth < 1 then
    invalid_arg "Cluster.run_traces: recorder_depth must be >= 1";
  let pol = config.fault_policy in
  (match pol.Nxe.policy with
   | Nxe.Restart_once ->
     invalid_arg "Cluster.run_traces: Restart_once is not supported on clusters"
   | Nxe.Abort_on_fault | Nxe.Quarantine -> ());
  if Float.is_nan pol.Nxe.heartbeat_timeout || pol.Nxe.heartbeat_timeout <= 0.0 then
    invalid_arg "Cluster.run_traces: heartbeat_timeout must be positive (infinity = off)";
  List.iter
    (fun (label, c) ->
      if c < 0.0 || not (Float.is_finite c) then
        invalid_arg (Printf.sprintf "Cluster.run_traces: %s must be non-negative" label))
    [
      ("checkin_cost", config.checkin_cost);
      ("fetch_cost", config.fetch_cost);
      ("synccall_cost", config.synccall_cost);
      ("resched_cost", config.resched_cost);
      ("msg_cost", config.msg_cost);
    ];
  List.iter
    (fun (inj : Faults.injection) ->
      if inj.Faults.i_variant < 0 || inj.Faults.i_variant >= n then
        invalid_arg "Cluster.run_traces: fault injection victim out of range";
      if inj.Faults.i_at < 0 then
        invalid_arg "Cluster.run_traces: fault injection position must be >= 0")
    faults.Faults.p_injections;
  (match coverage with
   | Some cov when List.length cov <> n ->
     invalid_arg "Cluster.run_traces: coverage length mismatch"
   | _ -> ());
  List.iter check_trace traces;
  let place = resolve_placement config n in
  let working_sets =
    match working_sets with
    | Some ws ->
      if List.length ws <> n then
        invalid_arg "Cluster.run_traces: working_sets length mismatch";
      Array.of_list ws
    | None -> Array.make n 1.0
  in
  let sensitivities =
    match sensitivities with
    | Some ss ->
      if List.length ss <> n then
        invalid_arg "Cluster.run_traces: sensitivities length mismatch";
      Array.of_list ss
    | None -> Array.make n (Lazy.from_val 1.0)
  in
  let mk_machine () =
    match machine_config with
    | Some c -> M.create ~config:c ?telemetry:config.telemetry ()
    | None -> M.create ?telemetry:config.telemetry ()
  in
  let machines = Array.init config.nodes (fun _ -> mk_machine ()) in
  let net =
    Net.create ~seed:config.net_seed ?telemetry:config.telemetry
      ?tracer:config.tracer ()
  in
  let down =
    Array.init
      (config.nodes - 1)
      (fun j ->
        Net.link net ~params:config.link ~src:machines.(0) ~dst:machines.(j + 1)
          (Printf.sprintf "n0-n%d" (j + 1)))
  in
  let up =
    Array.init
      (config.nodes - 1)
      (fun j ->
        Net.link net ~params:config.link ~src:machines.(j + 1) ~dst:machines.(0)
          (Printf.sprintf "n%d-n0" (j + 1)))
  in
  let h_wait =
    Tel.Hist.create
      ~buckets:[ 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 5000. ]
      ()
  in
  (match config.telemetry with
   | Some sink -> ignore (Tel.register_hist sink "cluster.lockstep_wait_us" h_wait)
   | None -> ());
  let cl =
    {
      cfg = config;
      n;
      nodes = config.nodes;
      machines;
      place;
      net;
      down;
      up;
      outboxes =
        Array.init
          (config.nodes - 1)
          (fun _ -> { ob_items = []; ob_slots = 0; ob_bytes = 0; ob_span = -1 });
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
      executed = 0;
      locksteps = 0;
      order_len = 0;
      replays = 0;
      remote_checked = 0;
      replicated = 0;
      tf_ship = 0;
      tf_batch = 0;
      tf_release = 0;
      tf_ack = 0;
      tf_flow = 0;
      tf_order = 0;
      faults = Array.of_list faults.Faults.p_injections;
      f_done = Array.make (List.length faults.Faults.p_injections) 0;
      sys_ord = Array.make n 0;
      v_dead = Array.make n false;
      v_quarantined = Array.make n false;
      v_status = Array.make n Nxe.Healthy;
      v_parked = Array.make n 0;
      live_threads = Array.make n 0;
      last_progress = Array.make n 0.0;
      mon_proc = None;
      fault_incidents = [];
      fault_abort_incident = None;
    }
  in
  let root_chan = get_chan cl "c" in
  let root_det = get_det cl "root" in
  let has_marker trace =
    List.exists (function Trace.Marker Trace.Main_entered -> true | _ -> false) trace
  in
  List.iteri
    (fun variant trace ->
      let proc = get_proc cl "root" variant in
      let pth = get_pth cl "root" variant in
      cl.live_threads.(variant) <- cl.live_threads.(variant) + 1;
      ignore
        (M.spawn (machine_of cl variant) proc
           ~name:(Printf.sprintf "%s:main" cl.names.(variant))
           (exec_ops cl ~variant ~chan:root_chan ~ppath:"root" ~proc ~pth ~det:root_det
              ~in_main_init:(not (has_marker trace)) trace)))
    traces;
  (* Heartbeat watchdog, on node 0 (the monitor host).  Same verdict rule
     as the local engine: a variant with unfinished threads, at least one
     of them NOT parked at a sync point, and no engine interaction for a
     full timeout is hung. *)
  let hb = pol.Nxe.heartbeat_timeout in
  if Float.is_finite hb then begin
    let mon = monitor_proc cl in
    ignore
      (M.spawn cl.machines.(0) ~daemon:true mon ~name:"cluster-monitor:watchdog"
         (fun () ->
           let interval = hb /. 2.0 in
           while (not (aborted cl)) && Array.exists (fun c -> c > 0) cl.live_threads do
             M.sleep cl.machines.(0) interval;
             if not (aborted cl) then begin
               let now = M.now cl.machines.(0) in
               for v = 0 to n - 1 do
                 if
                   cl.live_threads.(v) > 0
                   && (not cl.v_quarantined.(v))
                   && cl.v_parked.(v) < cl.live_threads.(v)
                 then begin
                   let silence = now -. cl.last_progress.(v) in
                   if silence >= hb then
                     handle_fault cl ~variant:v ~cause:(Nxe.Missed_heartbeat silence)
                 end
               done
             end
           done))
  end;
  (match run_cluster cl with
   | () -> ()
   | exception M.Deadlock msg -> if not (aborted cl) then raise (M.Deadlock msg));
  let variant_finish =
    List.init n (fun v ->
        Hashtbl.fold
          (fun (_, v') proc acc ->
            if v' = v then Float.max acc (M.proc_finish_time (machine_of cl v) proc)
            else acc)
          cl.proc_reg 0.0)
  in
  let variant_cpu =
    List.init n (fun v ->
        Hashtbl.fold
          (fun (_, v') proc acc ->
            if v' = v then acc +. M.proc_cpu_time (machine_of cl v) proc else acc)
          cl.proc_reg 0.0)
  in
  let incident =
    match cl.fault_abort_incident with
    | Some _ as inc -> inc
    | None -> (
      match cl.failed with
      | None -> None
      | Some a -> (
        match List.find_opt (fun c -> c.ch_id = a.Nxe.al_channel) cl.all_chans with
        | None -> None
        | Some ch ->
          Some
            (incident_for cl ~chan:ch ~pos:a.Nxe.al_position ~flagged:a.Nxe.al_variant
               ~expected:a.Nxe.al_expected ~got:a.Nxe.al_got ~time:cl.failed_at ())))
  in
  (* Union-of-checks coverage loss: identical accounting to the local
     engine — a label is lost when every variant carrying it ended the
     run quarantined, wherever those variants were placed. *)
  let coverage_loss =
    match coverage with
    | None -> []
    | Some cov ->
      let live_labels =
        List.sort_uniq compare
          (List.concat
             (List.mapi
                (fun v labels -> if cl.v_quarantined.(v) then [] else labels)
                cov))
      in
      List.sort_uniq compare
        (List.concat
           (List.mapi
              (fun v labels ->
                if cl.v_quarantined.(v) then
                  List.filter (fun l -> not (List.mem l live_labels)) labels
                else [])
              cov))
  in
  let totals = Net.totals net in
  {
    outcome = (match cl.failed with None -> `All_finished | Some a -> `Aborted a);
    incident;
    total_time =
      Array.fold_left
        (fun acc m -> Float.max acc (M.stats m).M.total_time)
        0.0 machines;
    variant_finish;
    variant_cpu;
    synced_syscalls = cl.synced;
    executed_syscalls = cl.executed;
    lockstep_syscalls = cl.locksteps;
    remote_checked = cl.remote_checked;
    replicated_results = cl.replicated;
    order_entries = cl.order_len;
    det_replays = cl.replays;
    channels = cl.chan_count;
    placement = Array.to_list place;
    variant_status = Array.to_list cl.v_status;
    coverage_loss;
    fault_incidents = List.rev cl.fault_incidents;
    bytes_on_wire = totals.Net.s_bytes;
    msgs_on_wire = totals.Net.s_msgs;
    traffic =
      {
        tf_ship = cl.tf_ship;
        tf_batch = cl.tf_batch;
        tf_release = cl.tf_release;
        tf_ack = cl.tf_ack;
        tf_flow = cl.tf_flow;
        tf_order = cl.tf_order;
      };
    link_stats =
      List.map (fun l -> (Net.link_name l, Net.link_stats l)) (Net.links net);
    histograms =
      [
        ("lockstep_wait_us", Tel.Hist.dump cl.h_wait);
        ("net_rtt_us", Tel.Hist.dump (Net.rtt_hist net));
      ];
    node_stats = Array.to_list (Array.map M.stats machines);
  }

let run_builds ?config ?machine_config ?faults ?coverage ?(jitter = 0.0) ~seed builds =
  (* Same per-(variant, function) systematic compute skew as the local
     engine: diversified binaries never run cycle-identical. *)
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
  let traces =
    List.mapi (fun i b -> jitter_trace i (Program.build_trace b ~seed)) builds
  in
  let working_sets = List.map Program.build_working_set builds in
  let sensitivities =
    List.map (fun b -> lazy (1.0 /. (1.0 +. Program.overhead_of_build b))) builds
  in
  let names =
    List.mapi (fun i b -> Printf.sprintf "v%d-%s" i b.Program.prog.Program.name) builds
  in
  run_traces ?config ?machine_config ?faults ?coverage ~working_sets ~sensitivities
    ~names traces

(* ------------------------------------------------------------------ *)
(* Verdict signature: everything about an incident except wall times. *)

let incident_signature (inc : F.incident) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "chan=%d pos=%d blamed=%d" inc.F.inc_channel inc.F.inc_position
       inc.F.inc_blamed);
  (match inc.F.inc_basis with
   | F.Majority k -> Buffer.add_string b (Printf.sprintf " basis=majority:%d" k)
   | F.Tie -> Buffer.add_string b " basis=tie"
   | F.Tie_broken_by_detection -> Buffer.add_string b " basis=tie-detect");
  Buffer.add_string b
    (match inc.F.inc_mismatch with
     | F.Argument_mismatch -> " class=argument"
     | F.Sequence_mismatch -> " class=sequence"
     | F.Premature_exit -> " class=premature-exit"
     | F.Fault_isolation -> " class=fault-isolation");
  Buffer.add_string b
    (Printf.sprintf " expected=%S got=%S" inc.F.inc_expected inc.F.inc_got);
  let rec_str (r : F.syscall_rec) =
    Printf.sprintf "%d:%s(%s)" r.F.r_pos r.F.r_name
      (String.concat "," (List.map Int64.to_string r.F.r_args))
  in
  Array.iteri
    (fun v vote ->
      Buffer.add_string b
        (match vote with
         | F.Issued r -> Printf.sprintf " v%d=issued:%s" v (rec_str r)
         | F.Exited -> Printf.sprintf " v%d=exited" v
         | F.Pending -> Printf.sprintf " v%d=pending" v))
    inc.F.inc_votes;
  Array.iteri
    (fun v tape ->
      Buffer.add_string b
        (Printf.sprintf " tape%d=[%s]" v (String.concat ";" (List.map rec_str tape))))
    inc.F.inc_tapes;
  (match inc.F.inc_check_site with
   | None -> ()
   | Some cs ->
     Buffer.add_string b
       (Printf.sprintf " site=%s/%s/%s" cs.F.cs_pass cs.F.cs_func cs.F.cs_block));
  Buffer.contents b
