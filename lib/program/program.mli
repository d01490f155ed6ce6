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
    is [fst (factor_trace b (generate b.prog ~seed))]. *)

module Func_tbl : Hashtbl.S with type key = string
(** Hash tables keyed by function name, compared with [String.equal]: the
    per-op lookups of the trace builder and the executors. *)

type factors
(** The per-function factors one {!factor_trace} call resolved.  Owned by
    the caller; nothing is kept between calls. *)

(** {2 Generating and factoring}

    A build's trace is made in two steps.  {!generate} runs the program's
    workload: it depends on the program and the seed only, and is most of
    the cost.  {!factor_trace} then applies one build to that body.  The
    body is only read, so the builds of one program at one seed can share
    a single generation: a group keys the body on the physical identity of
    the build's {!t} ([b.prog == b'.prog]) and factors it once per build
    ([Nxe.run_builds] does).  Two distinct [t] values are never assumed to
    share a workload, even when they are structurally equal. *)

val generate : t -> seed:int -> Trace.t
(** [generate prog ~seed] is [prog.gen_trace (Rng.create seed)]: the
    workload body every build of [prog] at [seed] factors. *)

val factor_trace : ?jitter:(string -> float) -> build -> Trace.t -> Trace.t * factors
(** [factor_trace ?jitter b body] is the build's trace of [body], which
    must be [generate b.prog ~seed], in one walk over its ops, and the
    factors it resolved.  The walk multiplies each Work op's cost by the
    function's {!cost_factor} and then, if given, by [jitter fname]:
    [(c *. cost_factor) *. jitter], which is the cost of [Trace.map_cost]
    with the factor followed by [Trace.map_cost] with the jitter.  It
    weaves the runtime's in-execution syscalls in after every 500 us of
    factored, pre-jitter work on the main body (not inside Spawn/Fork
    bodies), and splices the pre-main and post-exit phases around it.
    [cost_factor] and [jitter] are each resolved once per distinct
    function of the trace, and the sanitizers' group check and residual
    costs once per distinct code profile (a baseline build skips the
    factor, and without [jitter] there is no second multiplication).  The
    walk costs O(1) per op plus one string-keyed lookup per Work op, and
    [body] is left as it was. *)

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
    build's cache sensitivity from it lazily.
    [overhead_of_build b] is [overhead_with (work_weights b.prog) b]. *)

type work_weights
(** A program's seed-0 work per function, generated on first use. *)

val work_weights : t -> work_weights
(** [work_weights prog] generates nothing yet: the seed-0 workload is
    generated and summed the first time {!overhead_with} needs it, once
    for every build that shares the value. *)

val overhead_with : work_weights -> build -> float
(** [overhead_with (work_weights b.prog) b] is {!overhead_of_build}[ b],
    bit for bit; the builds of one program can share one [work_weights],
    so a group generates the seed-0 workload at most once per program. *)

val cost_factor : build -> string -> float
(** Work-cost multiplier this build applies to the named function
    (1.0 + kept checks + residual).  The sanitizer-attributable fraction of
    the function's measured compute is [(cost_factor - 1) / cost_factor] —
    what the overhead-attribution profiler uses to split compute from
    check execution without perturbing burst boundaries. *)
