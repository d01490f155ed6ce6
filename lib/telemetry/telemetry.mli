(** Structured telemetry for the engine: a metrics registry with flat
    JSON, text and Prometheus exporters, plus the run's one span store.

    The design goal is that telemetry is {e behavior-neutral}: every
    instrumentation point in the engine takes a nullable sink and compiles
    to a no-op when it is absent, and the span store is bounded — a hot
    run can never grow memory or change scheduling because tracing is on.

    {b Spans.}  A sink owns one {!Bunshin_trace_ctx.Trace_ctx} recorder
    ({!recorder}), the tracer of every layer it is attached to; its
    [to_chrome_json] exports them all.  Entries carry raw timestamps from
    their layer's clock — simulated µs for the machine and NXE,
    instruction steps for the interpreter — so each clock is a separate
    {!domain} (a Chrome-trace process) and no timestamps are compared
    across domains.

    {b Metrics} are registered by name on the sink: monotonic counters,
    last/max gauges, and fixed-bucket histograms.  A histogram can also be
    created standalone (see {!Hist.create}) and registered later — the NXE
    uses this to keep its syscall-gap, lockstep-wait and heartbeat
    distributions always-on (they feed [Nxe.report]) and merely {e share}
    them with the sink when tracing is enabled.  It makes them once per
    group run with {!Hist.of_bounds}, over bounds normalised once. *)

type sink

type domain
(** A named clock domain inside a sink (a Chrome-trace process). *)

val create : unit -> sink
(** New sink with an empty recorder ({!Bunshin_trace_ctx.Trace_ctx.create}). *)

val recorder : sink -> Bunshin_trace_ctx.Trace_ctx.t
(** The sink's span store. *)

val domain : sink -> name:string -> domain
(** A fresh domain named [name] in the sink's recorder. *)

val domain_sink : domain -> sink
val domain_name : domain -> string
val domain_id : domain -> int (** its id in the recorder *)


val name_track : domain -> tid:int -> string -> unit
(** Label a track ([thread_name] metadata; last write wins). *)

(** {1 Metrics} *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val last : t -> float
  val max_value : t -> float (** 0. before the first {!set} *)

  val samples : t -> int
end

module Hist : sig
  (** Fixed-bucket histogram: bounded memory however many observations.
      Bucket bounds are upper bounds; an implicit [+inf] bucket catches
      everything above the last bound.  Bucketing agrees exactly with
      {!Bunshin_util.Stats.histogram} over the same samples. *)

  type t

  type bounds
  (** Bucket bounds validated, sorted and deduplicated once.  They are
      immutable, so histograms made from one [bounds] value share it:
      code that makes the same histogram over and over (the NXE, once per
      group run) normalises its bounds once, at module initialisation. *)

  val bounds : float list -> bounds
  (** Bounds are sorted and deduplicated; non-finite bounds are rejected.
      The bounds go through {!Bunshin_util.Stats.bucket_bounds}, the
      normaliser [Stats.histogram] itself uses, so the two cannot drift.
      @raise Invalid_argument on an empty or non-finite bucket list, with
      [Stats.histogram]'s message. *)

  val of_bounds : bounds -> t
  (** An empty histogram over [bounds]: it allocates only its own counts
      and moments, never the bounds. *)

  val create : unit -> t
  (** An empty histogram over the default bounds: a 1-2-5 log scale from
      1 to 10^4, suited to µs-scale latencies.  Other bounds go through
      {!bounds} and {!of_bounds}. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float (** 0. when empty *)

  val max_value : t -> float (** 0. when empty *)

  val dump : t -> (float * int) list
  (** [(upper_bound, count)] per bucket, ending with the [(infinity, n)]
      overflow bucket — the same shape {!Bunshin_util.Stats.histogram}
      returns. *)

  val quantile : t -> float -> float
  (** [quantile h p] with [p] in [\[0,100\]]: the upper bound of the
      bucket holding the rank-[p] observation — i.e. an estimate no more
      than one bucket width above the exact sample quantile.  Ranks that
      land in the overflow bucket return {!max_value}; 0. when empty. *)
end

val counter : sink -> string -> Counter.t
(** Get or create the named counter.
    @raise Invalid_argument if the name is bound to another metric kind. *)

val gauge : sink -> string -> Gauge.t

val hist : sink -> string -> Hist.t
(** Get or create, over {!Hist.create}'s default bounds; a histogram over
    other bounds is registered with {!register_hist}. *)

val register_hist : sink -> string -> Hist.t -> string
(** Share an externally-owned histogram under [name]; on collision the
    name is suffixed ["#2"], ["#3"], ...  Returns the name actually used. *)

(** {1 Windowed SLO monitoring}

    Live tail percentiles over a sliding time window, in bounded memory:
    a ring of [sub_windows] log-bucketed sub-histograms, each covering
    [sub_us] of simulated time.  Advancing time recycles expired
    sub-windows in place, so recording allocates nothing after creation
    and always answers from the last [sub_windows * sub_us]
    microseconds.  Quantiles carry the same one-bucket-width error bound
    as {!Hist.quantile} (pinned against [Stats.percentile] in the test
    suite). *)

module Slo : sig
  type window

  val window : ?sub_windows:int -> ?sub_us:float -> unit -> window
  (** Default: 8 sub-windows of 10,000 µs each, always over
      {!Hist.create}'s default buckets.
      @raise Invalid_argument on a non-positive ring or span. *)

  val span_us : window -> float
  (** Total window span = sub_windows * sub_us. *)

  val observe : window -> now:float -> float -> unit
  (** Record a sample at simulated time [now].  [now] must not move
      backwards by more than the window span; stale samples land in the
      oldest live sub-window. *)

  val count : window -> now:float -> int
  (** Samples still inside the window at [now]. *)

  val quantile : window -> now:float -> float -> float
  (** Live quantile over the window (bucket upper bound; 0. when empty). *)

  val quantiles : window -> now:float -> float list -> float list

  val bucket_width_at : window -> float -> float
  (** Width of the bucket a value falls in — the error bound the
      agreement test asserts. *)

  type target = {
    slo_quantile : float;  (** e.g. 99.0 *)
    slo_limit_us : float;  (** the latency objective at that quantile *)
  }

  val breach_fraction : window -> now:float -> target -> float
  (** Fraction of windowed samples above [slo_limit_us] (resolved at
      bucket granularity: a sample counts as a breach when its whole
      bucket lies above the limit). *)

  val burn_rate : window -> now:float -> target -> float
  (** {!breach_fraction} over the target's error budget
      [(100 - slo_quantile) / 100]: 1.0 burns the budget exactly,
      above 1.0 violates the SLO. *)
end

(** {1 Exporters} *)

val metrics_to_json : sink -> string
(** Flat dump: [{"counters":{...},"gauges":{...},"histograms":{...}}]. *)

val metrics_to_text : sink -> string
(** Human-readable one-metric-per-line dump (histograms take three
    lines: summary with tail percentiles, then buckets). *)

val metrics_to_prometheus : sink -> string
(** Prometheus text exposition format: counters and gauges as scalar
    samples, histograms as cumulative [_bucket{le="..."}] series with
    [_sum]/[_count] — scrape-ready without new tooling.  Metric names
    are sanitized to [[a-zA-Z0-9_:]]. *)
