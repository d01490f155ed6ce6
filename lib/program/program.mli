(** Program models: a named program, its functions with instruction-mix
    profiles, and a workload (trace generator).

    A {!build} is "the program compiled in a particular way": which
    sanitizers are linked in, and — for check distribution — which functions
    keep their checks.  {!build_trace} turns a build into the concrete trace
    a variant executes: check costs inflate Work ops of selected functions,
    residual (metadata) cost inflates every Work op, and the sanitizer
    runtime's own syscalls are woven in at the three phases of §3.3. *)

module Cost := Bunshin_sanitizer.Cost_model
module San := Bunshin_sanitizer.Sanitizer

type func = { fn_name : string; fn_profile : Cost.code_profile }

type t = {
  name : string;
  funcs : func list;
  working_set : float;     (** LLC footprint, machine cache-model units *)
  gen_trace : Bunshin_util.Rng.t -> Trace.t;
      (** the workload: deterministic given the generator state *)
}

val find_func : t -> string -> func option

type build = {
  prog : t;
  sanitizers : San.t list;
  checked_funcs : string list option;
      (** [None]: checks everywhere (normal sanitizer build);
          [Some us]: checks kept only in the listed units (a
          check-distribution variant) *)
  block_split : int;
      (** check-distribution granularity: 1 = whole functions (the paper's
          prototype); k > 1 splits every function into k block groups and
          [checked_funcs] entries take the form ["func#i"] with i < k — the
          finer-grained distribution of §6 *)
}

val baseline : t -> build
(** No sanitizers at all. *)

val full : San.t list -> t -> build
(** All listed sanitizers, checks everywhere.
    @raise Invalid_argument if the set is not collectively enforceable. *)

val variant : San.t list -> ?block_split:int -> checked:string list -> t -> build
(** Check-distribution variant: sanitizers linked in, checks kept only in
    [checked] (function names, or ["func#i"] block units when
    [block_split] > 1). *)

val block_unit : string -> int -> string
(** [block_unit f i] is the unit name of function [f]'s i-th block group. *)

val build_trace : build -> seed:int -> Trace.t
(** Concrete trace of this build under its workload.  The same seed yields
    behaviourally equivalent traces across builds of the same program
    (identical syscall sequence inside main), so the NXE can synchronize
    them; only costs and sanitizer-runtime syscalls differ.  Each Work op
    costs the workload's cost times {!cost_factor}.  [build_trace b ~seed]
    is [fst (build_trace_factored b ~seed)]. *)

module Func_tbl : Hashtbl.S with type key = string
(** Hash tables keyed by function name, compared with [String.equal]: the
    per-op lookups of the trace builder and the executors. *)

type factors
(** The per-function factors one {!build_trace_factored} call resolved.
    Owned by the caller; nothing is kept between calls. *)

val build_trace_factored :
  ?jitter:(string -> float) -> build -> seed:int -> Trace.t * factors
(** {!build_trace} in one walk over the generated ops, and the factors it
    resolved.  The walk multiplies each Work op's cost by the function's
    {!cost_factor} and then, if given, by [jitter fname]:
    [(c *. cost_factor) *. jitter], which is the cost of [Trace.map_cost]
    with the factor followed by [Trace.map_cost] with the jitter.  It
    weaves the runtime's in-execution syscalls in after every 500 us of
    factored, pre-jitter work on the main body (not inside Spawn/Fork
    bodies), and splices the pre-main and post-exit phases around it.
    [cost_factor] and [jitter] are each called once per distinct function
    of the trace (a baseline build skips [cost_factor], and without
    [jitter] there is no second multiplication).  The walk costs O(1) per
    op plus one string-keyed lookup per Work op. *)

val factor : factors -> string -> float
(** [factor fs fname] is {!cost_factor} of the build for [fname]: the
    value resolved while the trace was built, or, for a function the trace
    never charged, computed now. *)

val build_working_set : build -> float
(** LLC working set after shadow-memory inflation. *)

val build_ram_overhead : build -> float
(** Resident-memory inflation over baseline RSS, a fraction (§5.7): check
    distribution cannot shrink it (ASan shadows the whole space in every
    variant), but sanitizer distribution splits it, since each variant
    links only its own group's runtimes. *)

val overhead_of_build : build -> float
(** Model-predicted slowdown of this build vs baseline on the typical
    function mix of the program (used for quick estimates; the profiler
    measures the real thing on the machine).  Unless the build is a
    baseline (result 0, no work), each call generates the program's whole
    seed-0 workload trace and sums its work per function, as dear as one
    {!build_trace}; the profiler and the engines therefore derive a
    build's cache sensitivity from it lazily. *)

val cost_factor : build -> string -> float
(** Work-cost multiplier this build applies to the named function
    (1.0 + kept checks + residual).  The sanitizer-attributable fraction of
    the function's measured compute is [(cost_factor - 1) / cost_factor] —
    what the overhead-attribution profiler uses to split compute from
    check execution without perturbing burst boundaries. *)
