(** The N-version execution engine (§3.3, §4.2).

    Runs N program variants in parallel on the simulated machine and makes
    them behave as a single instance:

    - {b Syscall synchronization}: the leader (variant 0) executes each
      synchronized syscall and publishes arguments + results into a shared
      per-channel slot stream; followers compare their own arguments and
      consume results instead of executing.  In {e strict lockstep} the
      leader executes a syscall only after every follower has arrived and
      agreed; in {e selective lockstep} the leader runs ahead through a
      bounded ring buffer, except for the selected (IO-write) syscalls,
      which always lockstep (Figure 2).
    - {b Divergence detection}: argument or sequence mismatch aborts all
      variants and raises an alert (the variant monitor's job).  So does
      a variant killed by a signal ({!Bunshin_program.Trace.Killed}), when
      the monitor reaps it, even if every stream agreed to the end.
    - {b Execution groups}: each fork creates a new group whose child of
      the leader is the new leader (§3.3); each spawned thread gets its own
      syscall channel so scheduler interleaving cannot produce false
      positives.
    - {b Weak determinism}: followers replay the leader's total order of
      pthreads lock acquisitions and barrier arrivals, Kendo-style, via the
      modelled [synccall] (§4.2).
    - {b Sanitizer-introduced syscalls}: synchronization starts at
      [Main_entered], stops at [About_to_exit], and memory-management
      syscalls are never compared, so variants hardened differently do not
      trip false alerts.

    This is the only lockstep engine.  {!run_traces} runs a group
    in-process on one machine; {!run_net} runs the same code with the
    variants spread over several machines joined by a
    {!Bunshin_net.Net} transport (see "Networked groups" below).

    The settable knobs are the ones the paper and the distributed designs
    vary: the lockstep mode, the ring bound, weak determinism,
    shared-memory sync and the fault policy ({!config}), and the node
    count, placement, ship mode, link and batch size ({!net}).  Slot and
    message costs, the flow-ack period and the flight-recorder window are
    calibration constants, documented beside the records. *)

module M := Bunshin_machine.Machine

type mode = Strict_lockstep | Selective_lockstep

(** What the monitor does about a {e benign} variant fault — a death
    reported by waitpid or a missed heartbeat.  Argument {e divergences}
    (including fault-injected corruption) are a security signal and always
    abort, whatever the policy. *)
type recovery =
  | Abort_on_fault  (** fail-stop: any fault tears the whole group down *)
  | Quarantine
      (** retire the victim's ring cursors and replay queues and keep the
          remaining N-1 variants running (graceful degradation; the report
          accounts the sanitizer coverage lost with it) *)
  | Restart_once
      (** quarantine, then after [restart_backoff] respawn the victim from
          its original trace exactly once; it catches up from the retained
          slot stream.  A second fault quarantines it permanently. *)

type fault_policy = {
  policy : recovery;
  heartbeat_timeout : float;
      (** µs of engine-visible silence after which a variant that is
          neither finished nor parked at a sync point is declared hung.
          [infinity] (the default) disables the watchdog entirely — no
          monitor fiber is spawned and the schedule is bit-identical to an
          unmonitored engine.  Must exceed the workload's longest
          syscall-free stretch, or legitimate computation is misread as a
          hang.  The leader is subject to the same verdict, but a leader
          fault always aborts: followers only ever replay published slots,
          so there is no follower promotion (unlike DMON/dMVX leader
          election — here the ring contents are the group's only ground
          truth). *)
  restart_backoff : float;
      (** µs between a [Restart_once] quarantine and the respawn *)
}

val default_policy : fault_policy
(** [Abort_on_fault], watchdog off, 50 µs backoff. *)

type config = {
  mode : mode;
  ring_capacity : int;
      (** slots the leader may have published-but-unconsumed in selective
          mode.  Must be ≥ 1: the leader releases a slot only after its
          run-ahead check, and followers only consume released slots, so
          capacity 0 would deadlock on the first non-lockstep syscall and
          is rejected at [run_*] entry.  Capacity 1 is the tightest legal
          ring — the leader publishes slot [p] and stalls until every live
          follower has consumed slot [p-1], giving at most one slot of
          run-ahead (it still beats strict lockstep: followers need not
          have {e arrived} at [p] before the leader executes it).  Over the
          Net it must be at least 16, the flow-ack period. *)
  weak_determinism : bool;  (** replay leader's lock order in followers *)
  sync_shared_memory : bool;
      (** §3.3's poisoned-page mechanism: copy externally-shared mapped
          content from the leader to followers on access *)
  telemetry : Bunshin_telemetry.Telemetry.sink option;
      (** attach a trace sink, whose recorder
          ({!Bunshin_telemetry.Telemetry.recorder}) is the tracer: every
          synchronized syscall becomes one causal
          {!Bunshin_trace_ctx.Trace_ctx.Rendezvous} tree (publish,
          per-variant arrival, lockstep wait, scheduler waits,
          post-release fetches), each span carrying its variant's node;
          sanitizer checks become one-span trees.  The engine also opens
          an ["nxe"] clock domain (machine µs) with one track per
          (channel, variant) for its release, divergence, quarantine,
          fault, restart, fork, spawn and replay instants; counts
          ["nxe.*"] events on the sink and shares its syscall-gap,
          lockstep-wait and heartbeat histograms with it.  The sink also
          goes to the machines (see {!Bunshin_machine.Machine.create})
          and, over the Net, to the links.  Pure observation: the
          {!report} and the schedule are identical without a sink
          ([None], the default, makes every site a no-op test). *)
  fault_policy : fault_policy;
      (** what to do when a variant dies benignly or stops heartbeating
          (see {!recovery}); {!default_policy} in {!default_config} *)
}
(** The slot costs are constants of the engine, in simulated
    microseconds (the unit of {!M.config} quanta and of every time in
    {!report}): 0.3 to publish a slot, 0.25 for a follower to consume
    one, 0.4 per weak-determinism ordering operation, and 0.25 of futex
    round trip and scheduler latency whenever a party blocks at a sync
    point — the strict-mode "scheduled in and out" cost (§3.3).  The
    divergence flight recorder is always on and keeps the last 16 slots
    per (channel, variant) for the {!report.incident} blame attribution. *)

val default_config : config
(** Strict lockstep, 64-slot ring, weak determinism on. *)

val selective : config
(** [default_config] with [mode = Selective_lockstep]. *)

type alert = {
  al_channel : int;    (** syscall channel (execution-group stream) *)
  al_position : int;   (** index in the channel's syscall stream *)
  al_variant : int;    (** follower that diverged *)
  al_expected : string;
  al_got : string;
  al_expected_sc : Bunshin_syscall.Syscall.t option;
      (** the syscall the agreeing side issued at the slot ([None] when the
          expectation was end-of-stream) *)
  al_got_sc : Bunshin_syscall.Syscall.t option;
      (** the offending variant's own syscall, with its arguments ([None]
          when it exited, or diverged on a shared-memory access) *)
}

type fault_cause =
  | Missed_heartbeat of float
      (** observed engine-visible silence, µs, at the watchdog sweep that
          declared the variant hung *)
  | Benign_death  (** the variant died outside the synced stream (waitpid) *)

type variant_status =
  | Healthy
  | Quarantined of { q_time : float; q_cause : fault_cause; q_restarts : int }
      (** retired at [q_time] after [q_restarts] restart attempts *)
  | Recovered of { q_time : float; q_cause : fault_cause; r_time : float }
      (** quarantined at [q_time], restarted, and finished its full trace
          again at [r_time] — its checks count toward the union again *)

val cause_string : fault_cause -> string
(** Short human rendering, e.g. ["<silent for 119us>"] or
    ["<benign death>"] — also the ["got"] side of the fault's
    flight-recorder incident. *)

type report = {
  outcome : [ `All_finished | `Aborted of alert ];
  incident : Bunshin_forensics.Forensics.incident option;
      (** divergence forensics, present exactly when the outcome is
          [`Aborted]: per-variant flight-recorder tapes around the
          divergent slot, the majority-vote blame verdict, and the
          mismatch classification.  Check-site attribution is joined in by
          the layer that knows the variants' sanitizer outcomes (see
          {!Bunshin_forensics.Forensics.refine_with_detections}). *)
  total_time : float;           (** machine time until the last variant exits *)
  variant_finish : float list;  (** per-variant finish times *)
  variant_cpu : float list;     (** per-variant CPU consumed (incl. sync work) *)
  synced_syscalls : int;        (** syscalls the leader published to a channel *)
  executed_syscalls : int;
      (** of the published, how many the leader actually {e executed}
          (released to followers).  The difference is the in-flight window
          at the end of the run: slots published but still blocked on ring
          capacity or lockstep arrival when the run ended.  This is the
          number attack-window accounting must use — a payload syscall that
          was published but never released did not reach the kernel. *)
  lockstep_syscalls : int;      (** of those published, how many locksteped *)
  avg_syscall_gap : float;      (** mean leader-to-slowest-follower distance,
                                    sampled at each leader publish (§5.3) *)
  max_syscall_gap : int;
  order_list_length : int;      (** weak-determinism operations recorded *)
  det_replays : int;            (** follower lock-order replays performed *)
  channels : int;               (** syscall channels (execution-group streams) *)
  variant_status : variant_status list;
      (** per-variant fault verdict; all [Healthy] in a fault-free run *)
  coverage_loss : string list;
      (** sanitizer-check labels no longer present in the surviving
          variants' union: a label from the [coverage] argument is lost
          when every variant carrying it ended the run quarantined.
          Empty without quarantines (or when [coverage] was not given). *)
  fault_incidents : Bunshin_forensics.Forensics.incident list;
      (** one [Fault_isolation] incident per quarantine, in detection
          order: the victim's flight-recorder tape and Pending vote at the
          slot where it went missing.  Unlike {!report.incident} these are
          benign — the group kept running. *)
  histograms : (string * (float * int) list) list;
      (** always-on distributions, in the [(upper_bound, count)] shape of
          {!Bunshin_util.Stats.histogram}: ["syscall_gap"] (leader
          run-ahead distance in slots, sampled at each leader publish),
          ["lockstep_wait_us"] (time a party spent blocked at a sync
          point, µs) and ["heartbeat_wait_us"] (engine-visible silence per
          watchdog sweep, µs; empty when the watchdog is off).  Collected
          whether or not [config.telemetry] is set. *)
  machine_stats : M.stats;
}

val quarantined_variants : report -> int list
(** Indices still [Quarantined] at the end of the run. *)

val report_signature : report -> string
(** Canonical one-line fingerprint of every deterministic scalar the
    engine computes (outcome, times at exact hex float precision, sync
    counters, per-variant finish/CPU/status, histogram buckets).  Two
    runs with equal signatures took bit-identical schedules on these
    fields — the serving layer uses this to prove pooled group runs are
    bit-identical to solo replays (neutrality). *)

val run_traces :
  ?config:config ->
  ?machine_config:M.config ->
  ?on_machine:(M.t -> unit) ->
  ?working_sets:float list ->
  ?sensitivities:float Lazy.t list ->
  ?signals:(float * Bunshin_program.Trace.t) list ->
  ?faults:Bunshin_faults.Faults.plan ->
  ?coverage:string list list ->
  ?profile:Bunshin_profile.Profile.Collector.t ->
  names:string list ->
  Bunshin_program.Trace.t list ->
  report
(** Synchronize N traces (index 0 is the leader).  [working_sets] defaults
    to 1.0 each; [sensitivities] are the per-variant cache sensitivities
    (default [Lazy.from_val 1.0] each), shared by all of a variant's
    processes and forced only if the group over-subscribes the LLC (see
    {!M.new_proc}); [names] label the machine processes.  [on_machine]
    runs right after machine creation — e.g. to attach background load.
    [signals] are asynchronous deliveries [(time, handler trace)]: the
    leader takes each at its next synchronized syscall and every follower
    runs the handler at the same logical position.
    [faults] (default {!Bunshin_faults.Faults.none}) is a deterministic
    injection plan, applied at per-variant ordinals of the
    synchronized-syscall stream; what happens to the victim is decided by
    [config.fault_policy].  [coverage] gives each variant's sanitizer-check
    labels for the {!report.coverage_loss} account (e.g. from a
    {!Bunshin_variant.Variant.plan}'s specs).
    [profile] attaches an overhead-attribution collector (created for the
    same variant count): the engine records the straggler at every lockstep
    rendezvous during the run and fills the per-variant phase totals when
    it ends.  Attaching one is pure observation — the report is
    bit-identical with and without it.
    @raise Invalid_argument if [ring_capacity < 1], if the heartbeat
    timeout or backoff is invalid, if an injection names a variant out of
    range, if [coverage] has the wrong length, or if [profile] was created
    for a different variant count. *)

val run_builds :
  ?config:config ->
  ?machine_config:M.config ->
  ?on_machine:(M.t -> unit) ->
  ?profile:Bunshin_profile.Profile.Collector.t ->
  ?jitter:float ->
  seed:int ->
  Bunshin_program.Program.build list ->
  report
(** Build each build's trace (same seed, hence synchronizable syscall
    streams) and run them under the engine, with no faults injected.
    Each variant's trace is [Program.build_trace] of its build, jitter
    aside, but the workload body is generated once per distinct program
    in the group (compared physically, [b.prog == b'.prog]) and factored
    once per build ({!Bunshin_program.Program.factor_trace}).  [jitter]
    (default 0) applies a per-variant multiplicative compute skew of up
    to the given fraction — diversified binaries never run
    cycle-identical, and this skew is what lockstep synchronization
    actually waits on.  Each
    variant's cache sensitivity is [1 / (1 + Program.overhead_of_build b)],
    computed only if the group over-subscribes the LLC, from seed-0 work
    weights generated at most once per program. *)

(** {2 Networked groups: the Net transport}

    The same engine with its variants spread over several
    {!Bunshin_machine.Machine} nodes joined by a {!Bunshin_net.Net} model
    (the DMON / dMVX architecture).  The leader always runs on node 0 and
    publishes the same slot ring; a follower on node 0 reads it directly,
    while a follower on node [k > 0] sees a slot only once a link has
    delivered it there, so its timing includes the wire.  Four things
    differ from the in-process transport, and nothing else:
    - which slots rendezvous: the ship mode's sensitive set, not
      [config.mode];
    - what a remote follower may see: its node's delivery watermarks, plus
      arrival acks and flow-control acks on the up link;
    - the leader's wire actions: flush and ship before a rendezvous,
      release or batch after it, flush in the ring wait and at thread
      exit, and batch weak-determinism order pushes (each its own
      message in naive mode);
    - incident tapes of a divergence end at the divergent slot, so the
      verdict is ship-mode-independent.

    Both transports run the same loop ({!Bunshin_machine.Machine.run_group}
    over one machine in-process, one per node here), which advances
    whichever node holds the globally earliest event (ties by node
    index).

    Monitor-plane signalling (abort, quarantine, end-of-stream wakes,
    heartbeats) is shared state outside the byte accounting.  [Fork],
    [Shared_read], signals and [Restart_once] have no wire model and are
    rejected.  {!Bunshin_cluster.Cluster} is the user-facing front end. *)

type ship_mode =
  | Full_remote_lockstep  (** every slot round-trips with raw buffers *)
  | Selective             (** only sensitive slots round-trip (digest compare) *)
  | Selective_replicated  (** + read-like results served from the local replica *)

type placement =
  | Round_robin       (** variant [v] on node [v mod nodes] *)
  | Pinned of int list (** explicit variant -> node map; leader on node 0 *)

type net = {
  nodes : int;          (** machine instances; node 0 hosts the leader *)
  placement : placement;
  ship : ship_mode;
  link : Bunshin_net.Net.params; (** every inter-node link *)
  batch_slots : int;    (** non-sensitive slots per batched message *)
}
(** Marshalling one message costs its sender 0.5 µs of CPU.  A remote
    follower flow-acks its consumption every 16 slots, and before it
    parks with unacked consumption. *)

(** Bytes on the wire per traffic kind, message headers included. *)
type traffic = {
  tf_ship : int;
  tf_batch : int;
  tf_release : int;
  tf_ack : int;
  tf_flow : int;
  tf_order : int;
}

type net_report = {
  placed : int list;            (** variant -> node, as placed *)
  remote_checked : int;         (** slot acks received over the wire *)
  replicated_results : int;     (** read results served from the local replica *)
  bytes_on_wire : int;
  msgs_on_wire : int;
  traffic : traffic;
  link_stats : (string * Bunshin_net.Net.stats) list; (** per link, creation order *)
  net_rtt : (float * int) list; (** ship-to-ack round trips, µs *)
  node_stats : M.stats list;    (** per node *)
}

val run_net :
  net ->
  ?config:config ->
  ?working_sets:float list ->
  ?faults:Bunshin_faults.Faults.plan ->
  ?coverage:string list list ->
  names:string list ->
  Bunshin_program.Trace.t list ->
  report * net_report
(** {!run_traces} over the Net transport, one machine of
    {!Bunshin_machine.Machine.default_config} per node, each variant's
    cache sensitivity 1.0.  In the {!report},
    [total_time] is the latest finish over all nodes and [machine_stats]
    is node 0's; [config.mode] and [config.sync_shared_memory] are unused.
    @raise Invalid_argument as {!run_traces}, and on an invalid [net]
    (fewer than one node, a bad placement, [batch_slots < 1]), on a
    [ring_capacity] below the flow-ack period of 16, on [Fork] or
    [Shared_read] in a trace, or on the [Restart_once] policy. *)
