(** Interpreter for the mini-IR with a memory-error-faithful flat memory.

    Memory is an address space of slots.  Allocations (globals, allocas,
    malloc) occupy contiguous slot ranges separated by redzones.  Unchecked
    erroneous accesses behave the way unsafe native code does:

    - an out-of-bounds write lands in the redzone or the neighbouring
      allocation (silent corruption, recorded as a {!hazard});
    - a use-after-free reads stale bytes or corrupts whatever reuses them;
    - an uninitialised read observes {!config.undef_as} (a per-run value, so
      two variants can legitimately diverge — the nondeterminism source the
      paper's §5.3 discusses);
    - division by zero and null/wild-pointer dereferences trap ({!crash});
    - signed overflow wraps silently.

    Sanitizer instrumentation makes these errors *detectable*: check
    intrinsics ({!Runtime_api}) query allocation metadata and branch to a
    report handler, whose call raises a {!outcome} [Detected]. *)

open Ast

type event =
  | Output of int64                 (** [print] intrinsic *)
  | Syscall of string * int64 list  (** [sys_*] intrinsic: name (with prefix) and args *)

type crash =
  | Div_by_zero
  | Null_deref
  | Wild_pointer of int64       (** dereference of an unmapped address *)
  | Bad_indirect_call of int64  (** indirect call to a non-function value *)
  | Stack_overflow_sim          (** call depth limit *)
  | Heap_exhausted
      (** an allocation would take the heap past 2{^ 22} slots; like
          [Stack_overflow_sim], an artifact of the model, not a memory
          error of the program *)

type hazard =
  | Oob_write of int64
  | Oob_read of int64
  | Uaf_write of int64
  | Uaf_read of int64
  | Uninit_read of int64
  | Double_free of int64
  | Bad_free of int64

type detection = {
  d_handler : string;  (** report handler that fired, e.g. __asan_report_store *)
  d_func : string;     (** function containing the failed check *)
  d_block : string;    (** basic block from which the handler was called —
                           for instrumented code this is the check's sink
                           block ([san.fail.N]), whose [N] is the check id
                           forensics uses for check-site attribution; [""]
                           when the handler was called from outside any
                           block (top-level entry) *)
}

type outcome =
  | Finished of int64 option
  | Detected of detection
  | Crashed of crash
  | Fuel_exhausted

type run = {
  outcome : outcome;
  events : event list;       (** observable behaviour, in order *)
  timeline : (int * event) list;
      (** the same events with the instruction count at which each occurred
          — what the NXE bridge uses to reconstruct compute intervals *)
  hazards : hazard list;     (** silent memory errors that occurred, in order *)
  steps : int;               (** instructions executed *)
}

type config = {
  fuel : int;           (** instruction budget (default 1_000_000) *)
  max_depth : int;      (** call depth limit (default 10_000) *)
  redzone : int;        (** slots between allocations (default 1) *)
  undef_as : int64;     (** value observed by uninitialised reads (default 0) *)
  layout_seed : int;    (** ASLR model: 0 = fixed layout; otherwise shifts the
                            address-space base and pads allocations, so
                            absolute addresses differ between variants *)
}

val default_config : config

val run :
  ?config:config ->
  ?telemetry:Bunshin_telemetry.Telemetry.domain ->
  modul ->
  entry:string ->
  args:int64 list ->
  run
(** Execute [entry] with the given integer arguments.

    This is the fast path: it precompiles the module ({!compile}) and runs
    the result ({!run_compiled}).  Callers executing the same module many
    times (variant evaluation, attack campaigns, benchmarks) should compile
    once themselves and call {!run_compiled} per run.

    [telemetry] attaches the run to a trace domain whose clock is the
    {e instruction counter} (not machine time).  The sink's recorder gets
    one slice per function activation on the domain's ["calls"] track and
    a ["detected"] mark naming the handler when a report handler fires;
    the sink gets counters [<domain>.check_hits] / [.check_fails] /
    [.detections].  Omitted, every instrumentation
    point is a no-op and the {!run} result is identical.
    @raise Invalid_argument if [entry] does not exist or arity mismatches. *)

val compile : modul -> Precompile.t
(** Resolve names, number registers and pre-split phis once, so repeated
    {!run_compiled} calls skip all per-step lookup work.  The result
    snapshots the module: recompile after mutating it. *)

val run_compiled :
  ?config:config ->
  ?telemetry:Bunshin_telemetry.Telemetry.domain ->
  Precompile.t ->
  entry:string ->
  args:int64 list ->
  run
(** Like {!run} on the module the argument was compiled from.  Identical
    observable behaviour — outcome, events, timeline, hazards, step count,
    layout randomization — for any [config]/[telemetry]/[args]. *)

val run_reference :
  ?config:config ->
  ?telemetry:Bunshin_telemetry.Telemetry.domain ->
  modul ->
  entry:string ->
  args:int64 list ->
  run
(** The original tree-walking interpreter, kept as the semantic oracle:
    it resolves every name lazily on every step, which makes it slow and
    easy to audit.  {!run} must agree with it bit-for-bit on the {!run}
    record — the differential suite in [test/test_ir.ml] enforces this. *)

val address_of_global : ?config:config -> modul -> string -> int64
(** Address the named global receives under the given layout — what an
    attacker learns from an information leak.
    @raise Invalid_argument for unknown globals. *)

val address_of_func : modul -> string -> int64
(** Code address of a function (layout-independent in this model).
    @raise Invalid_argument for unknown functions. *)

val events_equal : run -> run -> bool
(** Same observable event sequence — the notion of behavioural equivalence
    used by the check-removal correctness tests. *)
