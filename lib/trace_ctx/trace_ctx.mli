(** The one span store of a traced run: a telemetry sink owns one
    recorder ([Telemetry.recorder]), every layer that traces writes into
    it, and {!to_chrome_json} exports it.  It holds
    - {e causal spans}: each synchronized syscall becomes one trace (a
      tree of spans) connecting the leader's publish, each variant's
      arrival, the link messages that shipped the slot, and the scheduler
      waits in between — across all K nodes of a cluster run, in
      simulated µs;
    - {e entries outside every tree} (trace id [-1]): the machine's
      bursts and scheduler instants, the interpreter's calls and
      detections, the NXE's event instants — each on a track of a named
      clock {!domain} (µs for machine and NXE, instruction steps for an
      [interp:vK] domain).

    Entries live in preallocated struct-of-arrays columns, ids are ints,
    names and texts are strings the caller already holds, and recording
    is a handful of array writes.  When the store fills, recording stops
    (counted in [dropped]) rather than evicting — so every recorded
    non-root span's parent is also recorded.  Recording is pure
    observation: it must not change any schedule, report, or incident
    (pinned by the golden tests). *)

type kind =
  | Rendezvous
      (** root: first arrival at the sync point -> the slot fully retired
          (leader's release plus every live follower's consume — fetches
          happen after the release, and only that boundary lets them nest
          inside the root) *)
  | Publish  (** leader's publish cost at the slot *)
  | Fetch  (** a follower's fetch/compare cost *)
  | Arrival
      (** per-variant: rendezvous open -> this variant's arrival; the
          straggler edge of PR 6, now a span *)
  | Lockstep_wait  (** leader parked waiting for the last arrival *)
  | Sanitizer  (** sanitizer-check share attributed at the sync point *)
  | Sched_wait  (** machine boundary: thread runnable -> dispatched *)
  | Net_msg
      (** a link message: send -> delivery; annotations a0/a1/a2 split
          the delay into serialization / propagation / retransmit-extra *)
  | Slice  (** outside every tree: a named interval on a domain track *)
  | Mark  (** outside every tree: a named instant on a domain track *)

val kind_name : kind -> string

type t

val create : unit -> t
(** A recorder that keeps at most 65536 entries, causal spans and the
    rest together.  Its columns start at 1024 entries and double as they
    fill, up to that bound; an entry past it is dropped and counted. *)

val used : t -> int
(** Entries recorded, of both kinds. *)

val dropped : t -> int
(** Entries refused because the store was full. *)

val new_trace : t -> int
(** Fresh trace id (one per synchronized rendezvous). *)

val start :
  t ->
  kind ->
  trace:int ->
  parent:int ->
  node:int ->
  variant:int ->
  chan:int ->
  pos:int ->
  t0:float ->
  int
(** Open a span; returns its id, or [-1] when the ring is full (callers
    must skip children of a dropped parent).  [parent = -1] marks a
    root; [variant]/[chan]/[pos] are [-1] when not applicable. *)

val finish : t -> int -> t1:float -> unit
(** Close a span ([-1] ids are ignored). *)

val is_open : t -> int -> bool
(** The span was started and not yet finished ([false] for [-1]). *)

val extend_t0 : t -> int -> t0:float -> unit
(** Pull a span's opening back to [t0] if earlier — used to widen a
    rendezvous root to the first arrival once it is known. *)

val annotate : t -> int -> a0:float -> a1:float -> a2:float -> unit

val record :
  t ->
  kind ->
  trace:int ->
  parent:int ->
  node:int ->
  variant:int ->
  chan:int ->
  pos:int ->
  t0:float ->
  t1:float ->
  int
(** [start] + [finish] for a span whose times are already known. *)

val record_child :
  t ->
  kind ->
  parent:int ->
  node:int ->
  variant:int ->
  chan:int ->
  pos:int ->
  t0:float ->
  t1:float ->
  int
(** [record] under [parent], inheriting its trace id with the interval
    clamped into the parent's: [t0] is pulled up to the parent's opening,
    and the span is skipped entirely (returns [-1]) when [parent] is
    [-1]/dropped or already closed before [t1] — a wait that outlives a
    rendezvous did not delay it, so it belongs to no tree. *)

(** {1 Entries outside every tree}

    These never join a trace: {!traces}, {!tree} and the critical-path
    walk ignore them.  Ids are [-1] once the store is full. *)

val domain : t -> name:string -> int
(** A fresh clock domain (a Chrome process) named [name]; returns its id.
    Names need not be unique: each machine of a cluster gets its own
    ["machine"] domain. *)

val name_track : t -> domain:int -> tid:int -> string -> unit
(** Label a track of a domain (last write wins). *)

val slice : t -> domain:int -> tid:int -> t0:float -> t1:float -> string -> unit
(** A closed interval named by the last argument, such as a CPU burst. *)

val open_slice : t -> domain:int -> tid:int -> t0:float -> string -> int
(** An interval closed later with {!finish}, such as an interpreted call:
    the caller keeps the returned id on its own stack. *)

val mark :
  t -> domain:int -> tid:int -> variant:int -> key:string -> text:string -> value:float ->
  ts:float -> string -> unit
(** An instant named by the last argument.  [variant] ([-1] for none),
    the detail [key]/[text] pair ([key = ""] for none) and [value] ([nan]
    for none) become its Chrome args. *)

(** {1 Post-run analysis} (allocates freely; never on the hot path) *)

type span = {
  sp_id : int;
  sp_kind : kind;
  sp_trace : int;
  sp_parent : int;
  sp_node : int;
  sp_variant : int;
  sp_chan : int;
  sp_pos : int;
  sp_t0 : float;
  sp_t1 : float;
  sp_a0 : float;
  sp_a1 : float;
  sp_a2 : float;
}

val span_t0 : t -> int -> float
(** A span's current opening time without building the record ([0.] for
    [-1]/out-of-range ids) — lets engines open children at their parent's
    start on the hot path. *)

val span : t -> int -> span
val spans : t -> span list
(** Every entry, of both kinds, in recording order.  An entry outside
    every tree has trace [-1], its domain in [sp_node] and its track in
    [sp_chan]. *)

val rendezvous_samples : t -> (float * float) list
(** Closed rendezvous roots as (completion, latency) pairs, sorted, so in
    completion order: the sample stream a live monitoring hook inside the
    engine would see. *)

val traces : t -> int list
(** Distinct trace ids, in recording order: entries outside every tree
    carry none. *)

val tree : t -> int -> span list
(** All spans of one trace, in recording order (parents first). *)


val well_formed : t -> (unit, string) result
(** The qcheck property: ids unique and acyclic (parents precede
    children), every non-root parent recorded with the same trace id,
    every closed child's interval nested in its parent's. *)

(** {1 Critical-path attribution}

    Walking a completed rendezvous tree from its root: at each level the
    {e deciding child} is the one finishing last (symptom kinds —
    [Lockstep_wait], post-release [Fetch], and at the root also
    [Net_msg], whose root-direct instances are ship legs already netted
    into the arrivals they gate or post-decision release legs — only when
    nothing else explains the tail); following deciding children down
    yields a chain of edges, and the cause is the {e largest} edge on
    that chain.  An arrival on the chain is decomposed: the ship and ack
    wire hops that gated it become link edges of their own, and its
    straggler edge is the remainder — which is what separates "the
    variant was slow" from "the wire was slow" when a remote straggler
    ends the chain: *)

type cause =
  | Straggler of int  (** compute of variant [v] arrived last *)
  | Link_serialization  (** dominated by bytes / bandwidth *)
  | Link_latency  (** dominated by propagation delay *)
  | Link_retransmit  (** dominated by loss-recovery delay *)
  | Sched of int  (** scheduler wait on node [n] *)
  | Publish_cost  (** the leader's own publish dominated *)

type path = {
  pa_trace : int;
  pa_chan : int;
  pa_pos : int;
  pa_latency : float;  (** root t1 - root t0 *)
  pa_cause : cause;
  pa_edge_us : float;  (** time attributed to the deciding edge *)
}

val critical_paths : t -> path list
(** One entry per closed [Rendezvous] root, in recording order. *)

type attribution = {
  ca_cause : cause;
  ca_count : int;
  ca_total_us : float;
  ca_share : float;  (** of summed rendezvous latency *)
}

val attribute : path list -> attribution list
(** Aggregate causes, sorted by total attributed time (descending). *)

val attribution_to_text : ?label:string -> path list -> string

val tree_to_text : t -> int -> string
(** Render one trace's span tree, indented, for the CLI. *)

val spans_to_json : t -> string
(** The causal spans as a JSON array (self-describing field names). *)

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON (object format, for [chrome://tracing] and
    Perfetto).  Each domain is a process and each labelled track a
    thread; closed slices are complete ([X]) events and marks instants
    ([i]).  Consecutive rendezvous trees of a channel overlap in time, so
    they cannot share a lane: each closed causal span is instead an async
    [b]/[e] pair keyed by its trace id, on track [variant + 1] of one more
    process, ["spans"], with args naming the span and its parent.  Open
    spans are left out. *)
