(** Discrete-event simulation of a multicore machine.

    Threads are cooperative fibers (OCaml 5 effect handlers) that consume
    simulated CPU with {!compute}, block with {!park}/{!wake} or {!sleep},
    and run on a bounded number of cores with round-robin time slicing and a
    context-switch cost.  A shared last-level cache model inflates compute
    cost when the combined working set of active processes exceeds LLC
    capacity — the mechanism behind the paper's Fig. 5 (scalability limited
    by LLC pressure) and Fig. 9 (background load).  A run that fits the
    LLC pays no miss cost at all; past it, a process's LLC-bound cycles
    inflate by [miss_penalty × (1 − 1/pressure)].

    Time is in abstract microseconds.  The simulation is deterministic:
    identical programs produce identical schedules. *)

type t
type tid
type proc

type config = {
  cores : int;              (** simultaneously running threads *)
  quantum : float;          (** scheduler time slice, us *)
  ctx_switch_cost : float;  (** charged when a core switches threads, us *)
  llc_capacity : float;     (** LLC size, abstract working-set units *)
  miss_penalty : float;     (** compute inflation at 100% extra misses *)
  max_time : float;         (** safety stop for runaway simulations *)
}

val default_config : config
(** 4 cores, 250us quantum, 1us context switch, generous LLC. *)

val create : ?config:config -> ?telemetry:Bunshin_telemetry.Telemetry.sink -> unit -> t
(** [telemetry] attaches the machine to a trace sink: it opens a ["machine"]
    clock domain (simulated µs) in the sink's recorder
    ({!Bunshin_telemetry.Telemetry.recorder}) with one track per core plus
    a scheduler track, and records there each CPU burst as a slice on its
    core's track, context switches, park/wake instants and cache-pressure
    changes as marks (the [machine.cache_pressure] gauge samples every
    burst).  A sink keeps every burst scheduled (see {!compute}).  Without
    it every instrumentation point is a no-op — the schedule is identical
    either way. *)

val now : t -> float
(** Current simulated time. *)

val new_proc :
  t -> ?cache_sensitivity:float Lazy.t -> name:string -> working_set:float -> unit -> proc
(** Register a process (one variant, one server, ...).  [working_set] is its
    LLC footprint in the same units as [llc_capacity]; [cache_sensitivity]
    (default [Lazy.from_val 1.0]) is the fraction of its cycles that miss
    penalties touch — a heavily instrumented variant spends most cycles in
    compute-bound checks, so its sensitivity is baseline_cycles /
    total_cycles.  The machine forces it only when it charges a burst of
    this process while the active working sets over-subscribe the LLC, so
    a run that always fits never computes it, and each process forces it
    at most once.  It is forced by the scheduler, so it must be a pure
    computation that performs no machine operation. *)

val spawn : t -> ?daemon:bool -> proc -> name:string -> (unit -> unit) -> tid
(** Create a thread in [proc] running [body].  Daemon threads (background
    load generators) do not keep the simulation alive.  [body] executes when
    {!run} dispatches it and must use the fiber operations below for all
    waiting. *)

(** {1 Fiber operations} — valid only inside a thread body. *)

val compute : t -> float -> unit
(** Consume CPU for the given cost (pre cache inflation).  When the
    machine's state proves the burst would be the next event — no
    telemetry sink, a non-daemon caller, an empty run queue, the
    caller's last core free and still its own, the burst ending strictly
    before every pending event, and in a group of several machines the
    further conditions of {!section-running} — the burst finishes
    without suspending the fiber: [compute] returns with the clock
    advanced while no other fiber ran in between.  The schedule, the
    stats and the phase buckets are the ones the scheduled path gives;
    {!burst_counts} tells the two paths apart. *)

val sleep : t -> float -> unit
(** Wait wall-clock time without occupying a core. *)

val park : t -> unit
(** Block until another thread calls {!wake} on this thread.  A wake that
    arrives before the park is not lost: the park returns immediately. *)

val yield : t -> unit
(** Round-robin reschedule point. *)

val self : t -> tid

(** {1 Cross-thread operations} — callable from fiber bodies or handlers. *)

val wake : t -> tid -> unit
(** Unblock a parked thread (or pre-arm its next {!park}). *)

val thread_name : t -> tid -> string

val cancel_proc : t -> proc -> unit
(** Forcibly terminate every thread of the process — the monitor's
    kill(2).  Each thread's state becomes [Finished] at the current time:
    it never runs again, its pending sleep/burst events are discarded when
    they fire, and it no longer keeps the simulation alive or contributes
    to later finish times.  An already-finished thread, and the currently
    running thread, are left alone (a fiber cannot unwind itself — make it
    observe a flag and return instead). *)

(** {1:running Running}

    One loop runs a machine alone ({!run}) or several machines against
    one global clock ({!run_group}; the lockstep engine over a network,
    [Nxe.run_net], runs one machine per node).

    - {e Event order.}  Each machine keeps one event heap: its threads'
      sleep wakes and burst ends, and its timers ({!post}).  Entries pop
      in time order; at equal times thread events pop before timers, and
      each class pops in posting order.  Across machines the loop steps
      the earliest heap top, ties to the lowest index, and processing it
      advances that machine's clock.  One array therefore gives one
      total, deterministic order.
    - {e Settle.}  Before each step the loop dispatches, in index order,
      every machine on which a thread joined the run queue or a burst
      end freed a core since its last dispatch, and repeats the pass
      while it dispatched one, since a fiber on one machine may wake a
      thread on another.  A dispatch resumes runnable fibers and places
      bursts on free cores, at that machine's own clock.
    - {e Stop and deadlock.}  The loop returns once no machine has an
      unfinished non-daemon thread.  It raises {!Deadlock} as soon as
      every unfinished non-daemon thread on every machine is blocked and
      no machine has a pending timer: from then on only daemons could
      run, and nothing waits for them.
    - {e Inline bursts.}  In a one-machine run, {!compute} may finish a
      burst inline in any fiber.  In a larger group only a fiber that
      the loop resumed while stepping that machine's own event (a burst
      end) qualifies, and only when every other machine has an empty run
      queue and no pending event at or before the slice's end: the loop
      would then settle nothing and pop this slice's end next, whichever
      machine it searched.  A compute in a fiber resumed while the group
      settles stays scheduled, because the rest of the pass could run
      another machine's fiber first. *)

exception Deadlock of string
(** Raised when progress becomes impossible.  The message is
    ["threads blocked forever: "] followed by each machine's blocked
    non-daemon threads (names joined by [", "], machines by ["; "]), or
    ["max_time N exceeded"] when an event passes [max_time]. *)

val run : t -> unit
(** [run t] is [run_group [| t |]]: execute until every non-daemon thread
    finishes.  @raise Deadlock as described above. *)

val run_group : t array -> unit
(** Execute the machines together until none has an unfinished
    non-daemon thread.  @raise Deadlock as described above. *)

val post : t -> at:float -> (unit -> unit) -> unit
(** Schedule [fn] to run in scheduler context (not a fiber) at simulated
    time [at] (clamped to now).  Same-time timers fire in posting order;
    a timer tied with a thread's sleep wake or burst end fires after it.
    A pending timer keeps blocked threads from counting as a
    {!Deadlock}.  The callback may wake threads, spawn, or {!post}
    again — message delivery in [lib/net] is built on this. *)

type stats = {
  total_time : float;          (** time when the last non-daemon thread ended *)
  context_switches : int;
  cache_pressure_peak : float; (** max working-set / LLC ratio observed *)
}

val stats : t -> stats

type burst_counts = {
  inline_bursts : int;    (** burst slices {!compute} finished without suspending *)
  scheduled_bursts : int; (** burst slices placed on a core through the event heap *)
}

val burst_counts : t -> burst_counts
(** Deterministic op counters for the host-cost ledger: each quantum-sized
    slice of a compute counts once, on the path that ran it.  They are
    not part of {!stats}, which is identical whichever path ran. *)

val proc_cpu_time : t -> proc -> float
(** Total CPU consumed by the process's threads (post cache inflation). *)

val proc_finish_time : t -> proc -> float
(** Time when the process's last non-daemon thread finished; 0. if none ran. *)

(** {1 Phase accounting}

    Always-on, allocation-free time attribution: every thread carries a
    preallocated array of {!phase_slots} buckets and each state interval is
    charged to exactly one bucket — Running time to the thread's current
    {e run phase} (default {!slot_compute}), Ready time to {!slot_queue},
    Blocked time to the current {e wait phase} (default {!slot_wait}),
    Sleeping time to {!slot_idle}; the context-switch share of a burst is
    reattributed to {!slot_sched}.  By construction a finished thread's
    buckets sum {e exactly} to its lifetime ({!proc_accounted_time}).
    The accounting never touches scheduler state, so schedules are
    bit-identical whether or not anyone reads it. *)

val phase_slots : int
(** Number of buckets per thread (16). *)

val slot_compute : int (** Running time under the default run phase. *)

val slot_queue : int (** Runnable but waiting for a core. *)

val slot_idle : int (** Sleeping ({!sleep}). *)

val slot_sched : int (** Context-switch cost. *)

val slot_wait : int (** Blocked ({!park}) under the default wait phase. *)

val first_client_slot : int
(** Slots [first_client_slot .. phase_slots-1] are free for client layers
    to claim (the NXE claims them via [Profile.Phase]). *)

val set_phase : t -> int -> int
(** [set_phase t slot] (fiber op): subsequent Running time of the calling
    thread charges to [slot]; returns the previous run phase so callers
    can restore it.  @raise Invalid_argument on an out-of-range slot. *)

val set_wait_phase : t -> int -> int
(** Same for Blocked time. *)

val reattribute : t -> from_:int -> to_:int -> float -> unit
(** Move up to the given amount of already-charged time between two buckets
    of the calling thread.  Clamped at the source bucket's balance, so
    buckets never go negative and the sum is preserved. *)

val compute_share : t -> float -> from_:int -> to_:int -> float -> float
(** [compute_share t d ~from_ ~to_ share] (fiber op) is {!compute} [t d]
    followed by moving [share] of what the burst charged to bucket [from_]
    into bucket [to_], and returns the amount it asked to move.  It splits
    one compute between two phases without splitting the burst, so the
    schedule is that of a plain [compute].  The buckets end bit-identical
    to reading [from_] with {!thread_phase} before and after [compute t d]
    and then calling {!reattribute} with [share] times the difference
    (clamped the same way).  @raise Invalid_argument on an out-of-range
    slot, before computing. *)

val thread_phase : t -> tid -> int -> float
(** One of the thread's buckets, us. *)

val proc_phases : t -> proc -> float array
(** Bucket-wise sum over the process's threads. *)

val proc_accounted_time : t -> proc -> float
(** Lifetime the process's buckets cover: the sum over its threads of
    spawn to finish for a finished thread, spawn to the last charge point
    otherwise.  [proc_phases] sums to this exactly. *)

val last_ready_wait : t -> float * float
(** [(ready_at, dispatched_at)] of the calling thread's most recent
    run-queue wait — the Ready interval closed by its latest dispatch.
    The machine stamps these two floats unconditionally at every
    Ready->Running transition (no allocation, no schedule effect), so a
    tracing layer can reconstruct scheduler-wait spans after the fact
    instead of hooking the dispatcher.  Both are [spawn_time] until the
    thread has been dispatched at least once.  (Fiber op.) *)

(** {1 Waiting primitives built on park/wake} *)

module Waitq : sig
  type mach := t
  type t

  val create : unit -> t
  val wait : mach -> t -> unit
  (** Park the calling thread on the queue. *)

  val signal : mach -> t -> unit
  (** Wake the longest-waiting thread, if any. *)

  val broadcast : mach -> t -> unit
  (** Wake all waiting threads. *)

  val broadcast_many : mach -> t array -> unit
  (** [Array.iter (broadcast m) qs]: wake all waiting threads of every
      queue, in queue order then array order.  One publisher releasing N
      waiters across N queues costs one call, and the woken set lands on
      the run queue before the scheduler runs again. *)

  val waiters : t -> int
end

(** Epoll-style readiness batching for one consumer and many producers:
    producers {!Poll.post} integer source ids, the consumer {!Poll.wait}s
    and receives EVERY id posted so far in one batch.  Only the first
    post of a batch wakes the consumer — later posts coalesce onto the
    same scheduler wakeup, so a front-end serving many execution groups
    pays one dispatch per batch of completions, not one per completion.
    At most one thread may wait on a given poll set. *)
module Poll : sig
  type mach := t
  type t

  val create : unit -> t

  val post : mach -> t -> int -> unit
  (** Mark a source ready.  Wakes the waiting consumer iff it is the
      first pending event (later posts coalesce).  Source ids are
      opaque to the machine; duplicates are delivered as posted. *)

  val wait : mach -> t -> int list
  (** Park until at least one source is ready, then drain and return the
      whole pending batch in post order.  Returns immediately (without a
      scheduler round-trip) if events are already pending. *)

  val pending : t -> int
  (** Posted-but-undelivered event count. *)

  val wakeups : t -> int
  (** Waits that had to park — each cost one scheduler wake.  Waits
      finding events already pending are not counted: they are the
      amortization fast path. *)

  val events : t -> int
  (** Total events delivered; [events / wakeups] is the batching
      (amortization) factor — how many ready sources one scheduler
      wakeup serviced on average. *)
end

