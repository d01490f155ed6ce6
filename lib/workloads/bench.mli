(** Benchmark descriptor shared by all modelled suites, plus common trace
    generators. *)

module Program := Bunshin_program.Program

type suite = Spec_int | Spec_fp | Splash | Parsec | Server

type t = {
  name : string;
  suite : suite;
  threads : int;
  prog : Program.t;
  msan_compatible : bool;     (** gcc cannot run under MSan (§5.6) *)
  nxe_supported : bool;       (** PARSEC cases Bunshin cannot run (§5.1) *)
  unsupported_reason : string option;
}

val suite_name : suite -> string

(** {1 Trace generators} *)

val cpu_trace :
  funcs:(string * float) list ->
  units:int ->
  unit_cost:float ->
  syscall_every:int ->
  Bunshin_util.Rng.t ->
  Bunshin_program.Trace.t
(** Single-threaded CPU workload: [units] work quanta attributed to
    functions drawn by weight, with a read/write syscall every
    [syscall_every] quanta.  Deterministic in the generator state. *)

val threaded_trace :
  ?racy:bool ->
  funcs:(string * float) list ->
  threads:int ->
  units_per_thread:int ->
  unit_cost:float ->
  lock_every:int ->
  barrier_every:int ->
  Bunshin_util.Rng.t ->
  Bunshin_program.Trace.t
(** Pthread workload: main spawns [threads - 1] workers and works itself;
    critical sections guarded by a small set of mutexes; periodic global
    barriers.  Each work unit is followed by off-CPU time of half its
    cost — memory stalls and imbalance keep real 4-thread benchmarks well
    below 4x CPU demand, which is what lets N variants share the
    testbed.
    [racy] (default false) adds unguarded shared-counter updates whose
    values leak into syscall arguments: the intentional data races that
    make canneal-style programs impossible to synchronize (5.1). *)
