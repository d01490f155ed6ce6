(** High-throughput serving front-end: an open-loop request stream
    sharded across a pool of NXE groups.

    Table 2 measures one lighttpd/nginx stream at a time; this layer
    measures what production serving actually faces — many concurrent
    sessions fanned over many execution groups, where N-variant overhead
    either amortizes or collapses.  The front-end is its own
    discrete-event simulation ({!Bunshin_machine.Machine}): a seeded
    {e open-loop} load generator (arrivals do not wait for completions,
    unlike a closed-loop driver whose offered load collapses with
    latency), a bounded admission queue with backpressure (at saturation
    requests are {e rejected} with an explicit verdict, never queued
    unboundedly), and a dispatcher woken through the machine's
    epoll-style {!Bunshin_machine.Machine.Poll} so one scheduler wakeup
    services a whole batch of arrivals and group completions.

    Each admitted request runs on an NXE group as a full nested
    {!Bunshin_nxe.Nxe.run_traces} — the engine's own machine, schedule
    and report, bit-identical to running the same request solo (the
    {e neutrality} property, checkable via {!solo_report} and
    {!Bunshin_nxe.Nxe.report_signature}).  The pool only adds queueing
    and front-end costs around it; it never reaches inside a group.  The
    front-end costs are constants (see {!default_config}). *)

module M := Bunshin_machine.Machine
module Nxe := Bunshin_nxe.Nxe
module Server := Bunshin_workloads.Server
module Tel := Bunshin_telemetry.Telemetry
module Faults := Bunshin_faults.Faults

(** {1 Request sources} *)

type source = {
  src_names : string list;  (** variant names, length N (index 0 leads) *)
  src_request : req_id:int -> Bunshin_program.Trace.t list;
      (** the N per-variant traces of one request.  Must be a pure
          function of [req_id] — the pool may rebuild a request's traces
          (e.g. for a solo replay) and expects the same streams. *)
}

val server_source :
  ?n:int -> Server.kind -> file_kb:int -> connections:int -> source
(** [n] (default 3) identical variants of one {!Server.request_ops}
    request — the §5.2 methodology (N identical variants) per request,
    with [req_id] baked into the syscall arguments so distinct requests
    are distinct streams.
    @raise Invalid_argument if [n < 1] or [connections < 1]. *)

val jittered : ?jitter:float -> seed:int -> source -> source
(** Heterogeneous service times: scale every [Work]/[Idle] cost of
    request [req_id] by a seeded factor uniform in
    [\[1-jitter, 1+jitter\]] (default 0.3).  The factor is per-request,
    applied identically to all variants — syscall arguments are
    untouched, so cross-variant agreement is preserved.
    @raise Invalid_argument unless [0 <= jitter < 1]. *)

(** {1 Pool configuration} *)

type config = {
  pool_capacity : int;  (** max concurrent NXE groups (machines/cores) *)
  queue_capacity : int;  (** bounded admission queue (≥ 1): arrivals
                             finding it full are rejected on the spot *)
  batch : int;  (** max requests handed to a group per dispatch *)
  retire_idle_us : float;  (** retire a group idle this long *)
  nxe : Nxe.config;  (** engine config shared by every group *)
  seed : int;  (** arrival-process seed *)
  slo : Tel.Slo.target;  (** latency objective for breach/burn accounting *)
  keep_reports : bool;  (** retain each request's NXE report (for
                            neutrality checks; off for long sweeps) *)
  fault_plan : (int -> Faults.plan option) option;
      (** per-request chaos: the plan injected into request [req_id]'s
          group run (and into its solo replay, identically) *)
}

val default_config : config
(** 8 groups, queue of 64, batches of 4, selective-lockstep engine,
    p99 <= 500 µs objective.  The front end's CPU costs are constants:
    0.2 µs per arrival (accept + enqueue), 2 µs per dispatcher cycle (the
    epoll_wait return, queue scan and hand-offs) and 150 µs to fork a
    fresh group's variants. *)

(** {1 Running} *)

type outcome =
  | Completed of { rq_arrival : float; rq_start : float; rq_finish : float; rq_group : int }
  | Rejected of { rq_arrival : float }
      (** backpressure verdict: the admission queue was full at arrival *)
  | Faulted of { rq_arrival : float; rq_start : float; rq_finish : float; rq_group : int }
      (** the group run aborted (divergence under an injected fault) —
          served, but not a success; excluded from latency quantiles *)

type report = {
  sv_offered_rps : float;
  sv_requests : int;
  sv_completed : int;
  sv_rejected : int;
  sv_faulted : int;
  sv_makespan : float;  (** µs from first arrival to last resolution *)
  sv_throughput_rps : float;  (** completed per second of makespan *)
  sv_rejection_rate : float;  (** rejected / requests *)
  sv_p50 : float;
  sv_p95 : float;
  sv_p99 : float;
  sv_p999 : float;
      (** exact percentiles ({!Bunshin_util.Stats.percentiles}) of
          admitted-and-completed request latency (finish − arrival), µs *)
  sv_live_p99 : float;
      (** the {!Tel.Slo} windowed estimate at end of run — what a live
          monitor would have reported *)
  sv_breach_fraction : float;  (** windowed fraction above [slo] limit *)
  sv_burn_rate : float;  (** breach over the target's error budget *)
  sv_mean_service_us : float;  (** mean group-run time per served request *)
  sv_groups_spawned : int;
  sv_groups_retired : int;
  sv_peak_groups : int;
  sv_poll_wakeups : int;  (** dispatcher scheduler wakeups (parked waits) *)
  sv_poll_events : int;
      (** arrivals + completions those wakeups drained;
          [events/wakeups] is the epoll-style amortization factor *)
  sv_outcomes : outcome array;  (** indexed by request id — every request
                                    resolves exactly once (conservation) *)
  sv_reports : (int * Nxe.report) list;
      (** [(req_id, group report)] in completion order, when
          [keep_reports] *)
}

val run : ?config:config -> source -> offered_rps:float -> requests:int -> report
(** Serve [requests] open-loop arrivals at [offered_rps] through the
    pool.  Deterministic: equal arguments give equal reports.
    @raise Invalid_argument on a non-positive rate, request count,
    pool/batch size, negative queue capacity or idle-retirement time, or
    an SLO quantile outside (0, 100). *)

val solo_report : ?config:config -> source -> req_id:int -> Nxe.report
(** The same engine run request [req_id] gets inside the pool — same
    [config.nxe], same fault plan — but alone on a fresh machine.  The
    pooled report must be bit-identical
    ({!Nxe.report_signature}): the pool is pure queueing around the
    engine. *)

val sweep :
  ?config:config -> source -> offered_rps:float list -> requests:int -> report list
(** One {!run} per offered-load point (each from a cold pool, same
    seed): the throughput–latency curve. *)
