(** Causal spans for the NXE and the cluster: every synchronized syscall
    becomes one trace (a tree of spans) connecting the leader's publish,
    each variant's arrival, the link messages that shipped the slot, and
    the scheduler waits in between — across all K nodes of a cluster run.

    The recorder is allocation-disciplined in the PR-7 sense: spans live
    in preallocated struct-of-arrays columns, ids are ints, and recording
    a span is a handful of array writes.  When the ring fills, recording
    stops (spans are dropped, counted in [dropped]) rather than evicting
    — so every recorded non-root span's parent is also recorded, and the
    captured prefix is always a forest of well-formed trees.

    Times are simulated microseconds, like everywhere else in the stack.
    Recording is pure observation: attaching a recorder must not change
    any schedule, report, or incident (pinned by the golden tests). *)

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

val kind_name : kind -> string

type t

val create : ?capacity:int -> unit -> t
(** Preallocate a recorder; [capacity] (default 65536) bounds the total
    spans captured per run. *)

val reset : t -> unit
val used : t -> int
val dropped : t -> int

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
val traces : t -> int list
(** Distinct trace ids, in recording order. *)

val tree : t -> int -> span list
(** All spans of one trace, in recording order (parents first). *)

val nodes_spanned : t -> int -> int
(** Number of distinct nodes appearing in a trace's spans. *)

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

val cause_name : cause -> string

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
(** All spans as a JSON array (self-describing field names). *)
