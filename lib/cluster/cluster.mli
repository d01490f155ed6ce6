(** Distributed N-version execution: variant fleets spread over several
    {!Bunshin_machine.Machine} nodes joined by a {!Bunshin_net.Net} model —
    the DMON / dMVX architecture.  This is a front end: runs go through
    the one engine, {!Bunshin_nxe.Nxe.run_net}, over its Net transport.
    Its {!config} is the engine's {!Bunshin_nxe.Nxe.net}, the engine
    settings are one {!Bunshin_nxe.Nxe.config}, and this module projects
    the {!report}.  A one-node cluster therefore reproduces
    {!Bunshin_nxe.Nxe.run_traces} exactly (naive mode against strict
    lockstep, the selective modes against selective lockstep on traces
    without process or socket syscalls).

    The leader variant always runs on node 0 and publishes the same flat
    syscall slot ring as a local group.  Followers placed on node 0
    consume it directly; followers on other nodes see a slot only after
    it has been {e shipped} over a link (serialized columns, batched
    messages — no per-slot message records), so their timing honestly
    includes the wire.  With a [telemetry] sink in the engine config, a
    cluster run records the engine's [nxe.*] counters, instants and
    histograms, as a local run does.

    Three ship modes reproduce the dMVX trade-off:
    - {!Full_remote_lockstep} (naive): every synchronized syscall is
      remote-checked — raw argument buffers cross the wire per slot, the
      leader executes only after every remote follower's ack, and read-like
      results ship back with the release.
    - {!Selective}: only security-sensitive syscalls (write-flavoured IO,
      process control, socket ops) round-trip, compared by digest; the rest
      stream in batches and are checked on arrival, but read-like results
      still cross the wire.
    - {!Selective_replicated}: additionally, read-like results are served
      from the follower node's local copy of the leader stream — only
      metadata crosses for non-sensitive slots.

    Divergence verdicts are mode-independent: an argument or sequence
    mismatch is detected at the same channel position with the same
    expected/got rendering in all three modes (the {!Bunshin_nxe.Nxe.alert}
    record carries no timestamps), and incidents agree up to wall times —
    see {!incident_signature}.

    {b Determinism.}  All cross-node data flows through {!Bunshin_net.Net}
    links (timed {!Bunshin_machine.Machine.post} deliveries); the engine's
    co-simulation loop advances whichever node holds the globally
    earliest event, breaking ties by node index, and link-loss draws use
    a fixed seed — one bit-stable schedule per input.
    Monitor-plane signalling (abort, quarantine, end-of-stream wakes,
    heartbeats) is shared state outside the byte accounting, modelling the
    out-of-band monitor channel.

    {b Units}: simulated microseconds throughout, as in [nxe.mli] and
    [net.mli]. *)

module M := Bunshin_machine.Machine
module Trace := Bunshin_program.Trace
module F := Bunshin_forensics.Forensics
module Faults := Bunshin_faults.Faults
module Nxe := Bunshin_nxe.Nxe
module Net := Bunshin_net.Net

type ship_mode = Nxe.ship_mode =
  | Full_remote_lockstep  (** naive: every slot round-trips with raw buffers *)
  | Selective             (** only sensitive slots round-trip (digest compare) *)
  | Selective_replicated  (** + read-like results served from the local replica *)

type placement = Nxe.placement =
  | Round_robin       (** variant [v] on node [v mod nodes]; leader on node 0 *)
  | Pinned of int list (** explicit variant -> node map; leader must map to 0 *)

type config = Nxe.net = {
  nodes : int;               (** machine instances; node 0 hosts the leader *)
  placement : placement;
  ship : ship_mode;
  link : Net.params;         (** every inter-node link uses these parameters *)
  batch_slots : int;         (** non-sensitive slots per batched message *)
}

val default_config : config
(** 2 nodes, round-robin, [Selective_replicated], default link, batch 16. *)

(** Per-traffic-kind wire accounting (bytes include message headers). *)
type traffic = {
  tf_ship : int;     (** per-slot lockstep ship messages (down) *)
  tf_batch : int;    (** batched non-sensitive slot + order streams (down) *)
  tf_release : int;  (** lockstep releases incl. shipped results (down) *)
  tf_ack : int;      (** lockstep arrival acks (up) *)
  tf_flow : int;     (** cumulative flow-control acks (up) *)
  tf_order : int;    (** weak-determinism order entries in naive mode (down) *)
}

type report = {
  outcome : [ `All_finished | `Aborted of Nxe.alert ];
  incident : F.incident option;
  total_time : float;           (** max finish time across all nodes *)
  variant_finish : float list;
  variant_cpu : float list;
  synced_syscalls : int;
  executed_syscalls : int;
  lockstep_syscalls : int;      (** slots that required a global rendezvous *)
  remote_checked : int;         (** slot acks received over the wire *)
  replicated_results : int;     (** read results served from the local replica *)
  order_entries : int;
  det_replays : int;
  channels : int;
  placement : int list;         (** variant -> node, as placed *)
  variant_status : Nxe.variant_status list;
  coverage_loss : string list;  (** identical accounting to the local engine *)
  fault_incidents : F.incident list;
  bytes_on_wire : int;          (** Net totals over all links *)
  msgs_on_wire : int;
  traffic : traffic;
  link_stats : (string * Net.stats) list; (** per link, creation order *)
  histograms : (string * (float * int) list) list;
      (** [lockstep_wait_us] and [net_rtt_us] *)
  node_stats : M.stats list;    (** per node *)
}

val run_traces :
  ?config:config ->
  ?engine:Nxe.config ->
  ?machine_config:M.config ->
  ?working_sets:float list ->
  ?sensitivities:float Lazy.t list ->
  ?faults:Faults.plan ->
  ?coverage:string list list ->
  names:string list ->
  Trace.t list ->
  report
(** Execute one trace per variant across the cluster.  Variant 0 is the
    leader.  [engine] (default {!Nxe.default_config}) holds the engine
    settings: the ring, weak determinism, telemetry and fault policy; its
    [mode] and [sync_shared_memory] are unused here.  With a telemetry
    sink, whose recorder is the tracer, every synchronized syscall
    becomes one trace rooted at the
    leader's publish, with per-variant arrivals, scheduler waits and the
    link messages that shipped the slot as children, across all nodes
    (context rides in the 8 reserved header bytes of every message, see
    the byte-model note in [net.mli]).  Schedules, reports, incident
    signatures and bytes-on-wire are bit-identical with or without it.
    [working_sets] and [sensitivities] are as in
    {!Nxe.run_traces}: a sensitivity is forced only if its node's LLC is
    over-subscribed.  Traces may use [Work]/[Idle]/[Sys]/[Sys_shared]/[Incr]/
    [Lock]/[Unlock]/[Barrier]/[Spawn]/[Marker]; [Fork], [Shared_read] and
    signal delivery are single-host features and are rejected.
    @raise Invalid_argument on invalid config, placement, unsupported ops,
    a [ring_capacity] below the flow-ack period of 16, or the
    [Restart_once] policy. *)

val incident_signature : F.incident -> string
(** Canonical rendering of an incident with wall times stripped (tape and
    vote timestamps, abort time): two incidents from different ship modes
    or schedules compare equal iff the {e verdict} — channel, position,
    blamed variant, basis, classification, expected/got, per-variant votes
    and tape contents — is identical.  Used by [bench net] to assert the
    three modes agree bit-for-bit on what went wrong. *)

val mode_name : ship_mode -> string
