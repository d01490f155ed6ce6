(** Deterministic network model joining {!Bunshin_machine.Machine} nodes.

    A {!link} is a unidirectional, reliable, in-order channel between two
    machines — the simulation analogue of one direction of a TCP
    connection.  Sending a message serializes it onto the link (the link is
    a pipe: a message departs only once the previous one has finished
    transmitting), propagates it for the link latency, and delivers it by
    running a callback on the destination machine via {!M.post} — so
    delivery is an ordinary timed event on the destination's heap and the
    global schedule of a multi-machine run stays reproducible and
    bit-stable.

    {b Units.}  As everywhere in the machine and NXE layers, all times are
    in {e simulated microseconds} and all rates are per-µs.  Link defaults
    derive from the same wire model the server workloads already use
    ({!Bunshin_workloads.Server.network_gap_us}: a 1 Gb/s link spends
    8.2 µs per KB), not a second invented latency model.

    {b Loss.}  Links are reliable: loss does not drop messages, it models
    TCP-style recovery — each lost transmission adds a retransmission
    timeout plus a repeat transmission to the link's busy time, delaying
    that message {e and everything queued behind it} (in-order delivery is
    preserved by construction: arrival = serialization end + constant
    latency, and serialization ends are monotone per link).  Losses are
    drawn from a per-link generator seeded by the link's creation index,
    so a run yields a bit-identical delivery schedule. *)

module M := Bunshin_machine.Machine
module Tel := Bunshin_telemetry.Telemetry

type params = {
  latency_us : float;      (** one-way propagation delay, µs; must be > 0 *)
  bytes_per_us : float;    (** serialization rate; default ≈ 124.9 (1 Gb/s) *)
  loss : float;            (** per-transmission loss probability, [0, 1) *)
  retransmit_us : float;   (** recovery stall charged per lost transmission *)
}

val default_params : params
(** Same-rack datacenter defaults: 50 µs one-way latency, 1 Gb/s
    serialization rate taken from [Server.network_gap_us ~file_kb:1]
    (8.2 µs/KB), no loss. *)

type t
(** A network: a set of links plus shared accounting (byte/message totals
    and the [net_rtt_us] histogram). *)

type link

type stats = {
  s_msgs : int;        (** messages sent *)
  s_bytes : int;       (** bytes put on the wire, retransmitted copies included *)
  s_retransmits : int; (** lost transmissions that were recovered *)
}

val create : ?telemetry:Tel.sink -> unit -> t
(** A network with no links yet.  With [telemetry], the interned
    counters [net.bytes_sent] / [net.msgs_sent] (global) and
    [net.<link>.bytes_sent] / [net.<link>.msgs_sent] (per link, resolved
    once at {!link} creation) are registered on the sink, and the always-on
    {!rtt_hist} is shared with it under [net_rtt_us] — all visible in
    [bunshin trace --metrics], and {!send_traced} records one causal
    {!Bunshin_trace_ctx.Trace_ctx.Net_msg} span per context-carrying
    message in the sink's recorder.  Without it, accounting still
    accumulates in {!stats}.  Telemetry is pure observation: the delivery
    schedule, stats and byte counts are identical either way. *)

val link : t -> ?params:params -> src:M.t -> dst:M.t -> string -> link
(** [link net ~src ~dst name]: new unidirectional link.
    @raise Invalid_argument on non-positive latency or rate, or loss
    outside [0, 1). *)

val link_name : link -> string

val send : t -> link -> bytes:int -> (unit -> unit) -> unit
(** [send net l ~bytes deliver] queues a message: it departs when the link
    is free, and [deliver] runs on the destination machine (in scheduler
    context, like any {!M.post} callback) at the arrival time.  Callable
    from a fiber on the source machine or from a delivery callback
    (store-and-forward).  @raise Invalid_argument on negative [bytes].

    {b Byte model note.}  Callers size messages themselves (the cluster's
    wire model): every message carries a fixed header which, as of the
    causal-tracing change, is 32 bytes — 24 bytes of transport/session
    header plus 8 bytes of piggybacked trace context (trace id + span id,
    32-bit each), reserved unconditionally so tracing on/off cannot change
    bytes-on-wire. *)

val send_traced : t -> link -> bytes:int -> span:int -> node:int -> (unit -> unit) -> unit
(** {!send}, carrying causal-trace context: when the net has a sink and
    [span >= 0], records a {!Bunshin_trace_ctx.Trace_ctx.Net_msg} span
    under parent [span] covering send -> delivery, annotated with the
    three delay components the critical-path walk distinguishes
    (a0 queueing+serialization, a1 propagation, a2 retransmit extra) and
    stamped with [node] (the receiving side).  Identical wire behavior to
    {!send} in every case. *)

val observe_rtt : t -> float -> unit
(** Record one request/response round-trip into the [net_rtt_us]
    histogram (the cluster layer stamps lockstep ship→ack times). *)

val rtt_hist : t -> Tel.Hist.t

val link_stats : link -> stats

val links : t -> link list
(** All links, in creation order. *)

val totals : t -> stats
(** Sum of {!link_stats} over all links. *)
