(** The profiler of Figure 1: run a build on the simulated machine under a
    representative workload and measure where time goes.

    Per-function times come from the performance counters the generator
    plants at function granularity (§4.1); end-to-end time comes from the
    machine clock, so it includes scheduling, syscall service and cache
    effects.  Comparing an instrumented profile against the baseline
    profile yields the overhead profile that drives partitioning. *)

type t = {
  prog_name : string;
  total_time : float;  (** machine wall time of the run, us *)
  by_func : (string * float) list Lazy.t;
      (** per-function self time, us, sorted by name.  Computed from the
          run's own trace the first time it is forced, so a caller that
          reads only [total_time] never pays for it. *)
}

val measure :
  ?machine_config:Bunshin_machine.Machine.config -> Bunshin_program.Program.build ->
  seed:int -> t
(** {!exec_build} on a fresh machine followed by [Machine.run], and the
    run's profile: [total_time], and a lazy [by_func] that is the
    per-function Work of the very trace the machine ran.  The trace is
    built once, in one walk ({!Bunshin_program.Program.build_trace}).
    The build's cache sensitivity
    ({!Bunshin_program.Program.overhead_of_build}, one more trace
    generation) is computed only if the run over-subscribes the LLC. *)

val overhead_by_func : baseline:t -> instrumented:t -> (string * float) list
(** The overhead profile: per-function extra time, clamped at 0.  Forces
    both profiles' [by_func]. *)

val total_overhead : baseline:t -> instrumented:t -> float
(** End-to-end slowdown fraction. *)

(** {1 Serialization} — profiles are build artifacts (Figure 1): save them
    after a train run, reload for variant generation. *)

val to_string : t -> string
(** Stable tab-separated text form.  Forces [by_func]. *)

val of_string : string -> (t, string) result
(** Parse {!to_string} output.  The parsed [by_func] is already forced. *)

(** {1 Trace executor} — also used directly by tests and examples. *)

val exec_build :
  Bunshin_machine.Machine.t -> Bunshin_program.Program.build -> seed:int ->
  Bunshin_machine.Machine.proc
(** Spawn the build's trace onto an existing machine (threads, locks,
    barriers, syscall service costs — no NXE synchronization) and return
    its process handle.  Call [Machine.run] afterwards.  Syscall service
    and application lock waits are phase-tagged (see {!Phase}); each Work
    op is a plain [Machine.compute], sanitizer share included. *)

(** {1 Overhead attribution} *)

(** Named phases over the machine's accounting buckets.  [Compute],
    [Queue], [Idle], [Sched] and [Wait] alias the machine-owned slots;
    the rest claim client slots shared by the solo executor and the NXE. *)
module Phase : sig
  type t =
    | Compute
    | Queue
    | Idle
    | Sched
    | Wait
    | Sanitizer
    | Syscall_service
    | Publish
    | Fetch
    | Synccall
    | Resched
    | Lockstep_wait
    | Pthread_wait

  val all : t list
  (** Every phase once, in report order. *)

  val slot : t -> int
  (** The machine bucket index this phase charges. *)

  val name : t -> string
  (** Stable lowercase name used by every exporter. *)
end

val share_of_factor : float -> float
(** [share_of_factor cf] is [(cf - 1) / cf], or 0 when [cf <= 1]: for a
    function's cost factor under a build
    ({!Bunshin_program.Program.cost_factor}, or the value a trace build
    resolved, {!Bunshin_program.Program.factor}), the share of its measured
    compute attributable to check execution and residual
    instrumentation. *)

(** Preallocated per-run collector: exact per-variant aggregates plus a
    bounded ring of sync-point records (flight-recorder idiom — recording
    never allocates, overflow drops the {e oldest} records and is counted).
    Pass one to [Nxe.run_traces]/[run_builds] via [?profile]; the engine
    records the straggler at each lockstep rendezvous and fills the
    per-variant phase totals when the run ends. *)
module Collector : sig
  type sync_point = {
    sp_chan : int;       (** channel id *)
    sp_pos : int;        (** slot position in the channel stream *)
    sp_time : float;     (** rendezvous completion, machine us *)
    sp_straggler : int;  (** last variant to arrive *)
    sp_wait : float;     (** last arrival - first arrival, us *)
  }

  type t

  val create : int -> t
  (** [create n] for an [n]-variant run; the sync-point ring keeps the
      last 4096 records.  @raise Invalid_argument if [n < 1]. *)

  val variants : t -> int

  val record : t -> chan:int -> pos:int -> time:float -> straggler:int -> wait:float -> unit
  (** Called by the engine at each completed lockstep rendezvous. *)

  val sync_points : t -> int
  (** Total recorded (including any the ring has since dropped). *)

  val dropped : t -> int

  val check_fraction : t -> variant:int -> string -> float
  (** Per-variant sanitizer share of the named function's compute
      (0. when unknown). *)

  val set_check_fraction : t -> variant:int -> string -> float -> unit

  val set_workload : t -> string -> unit
  (** Label the run for the exporters (callers may set it before or after
      the run; the engine never overwrites a non-empty label). *)

  val workload : t -> string

  val fill_variant :
    t -> variant:int -> name:string -> wall:float -> thread_time:float ->
    cpu:float -> float array -> unit
  (** Engine-side: install a variant's totals when the run ends.  The
      array is the machine's per-bucket sums over the variant's processes
      ([Machine.phase_slots] long). *)

  val fill_run : t -> total_time:float -> unit
  (** Engine-side: group wall time. *)
end

type variant_attr = {
  va_index : int;
  va_name : string;
  va_wall : float;           (** variant finish time, us *)
  va_thread_time : float;    (** sum of its threads' accounted lifetimes *)
  va_cpu : float;
  va_phases : (Phase.t * float) list;
  va_phase_sum : float;      (** equals [va_thread_time] up to float noise *)
  va_straggler_count : int;  (** sync points where this variant arrived last *)
  va_straggler_wait : float; (** total group wait it caused, us *)
}

type attribution = {
  at_workload : string;
  at_n : int;
  at_total_time : float;
  at_sync_points : int;
  at_dropped : int;
  at_variants : variant_attr list;
  at_recent : Collector.sync_point list;
}

val attribution : Collector.t -> attribution
(** Decode a filled collector (valid after the NXE run returns). *)

val attribution_to_text : attribution -> string

val attribution_to_json : attribution -> string
(** Single-object JSON; the shape is pinned by the test suite. *)

val attribution_collapsed : attribution -> string
(** Collapsed-stack form ("workload;variant;phase weight" per line, weight
    in integer ns) — feed straight to flamegraph.pl or speedscope. *)
