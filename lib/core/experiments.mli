(** End-to-end experiment pipelines: one function per table/figure of §5.

    Every pipeline builds its own simulated machine (matching the paper's
    testbeds), runs the full stack — workload trace generation, profiling,
    overhead distribution, variant builds, NXE synchronization — and
    returns the numbers the corresponding table or figure reports.

    Seeds: profiling uses the {e train} seed and measurements the {e ref}
    seed, mirroring the paper's use of SPEC train/ref datasets. *)

module Bench := Bunshin_workloads.Bench
module Server := Bunshin_workloads.Server
module Nxe := Bunshin_nxe.Nxe

val train_seed : int
val ref_seed : int

val desktop : Bunshin_machine.Machine.config
(** The 4-core Xeon E5-1620 testbed. *)


(** {1 §5.2 — NXE efficiency (Figures 3 and 4)} *)

type efficiency = {
  ef_bench : string;
  ef_strict : float;     (** slowdown of 3 identical variants, strict *)
  ef_selective : float;  (** same, selective *)
}

val nxe_efficiency : Bench.t -> efficiency

(** {1 §5.2 — server latency (Table 2)} *)

type server_latency = {
  sl_base : float;       (** us per request, no NXE *)
  sl_strict : float;
  sl_selective : float;
}

val server_latency :
  Server.kind -> file_kb:int -> connections:int -> server_latency

(** {1 §5.2 — scalability in N (Figure 5)} *)

val scalability : Bench.t -> (int * float) list
(** Overhead of synchronizing [n] identical variants on the 12-core
    machine, for each [n] in 2..8. *)

(** {1 §5.3 — attack window (syscall distance)} *)

val syscall_gap : Bench.t -> float
(** Mean leader-to-slowest-follower syscall distance in selective mode for
    a 2-variant ASan check distribution of the benchmark. *)

(** {1 §5.4 — check distribution on ASan (Figure 6)} *)

type distribution = {
  cd_bench : string;
  cd_full_overhead : float;       (** sanitizer enforced on the whole program *)
  cd_variant_overheads : float list;  (** each variant run solo *)
  cd_bunshin_overhead : float;    (** N variants under the NXE *)
}

val check_distribution : ?n:int -> ?block_split:int -> Bench.t -> distribution
(** ASan's checks over [n] variants.  [block_split] > 1 distributes at
    basic-block granularity (§6), which rescues the hmmer/lbm
    single-hot-function outliers. *)

(** {1 Overhead attribution (the [bunshin profile] engine)} *)

val attribution_run :
  ?config:Nxe.config ->
  ?workload:string ->
  seed:int ->
  Bunshin_program.Program.build list ->
  Bunshin_profile.Profile.attribution * Nxe.report
(** Run the builds under the NXE on the {!desktop} machine with an
    attribution collector attached and decode it: per-variant phase
    decomposition plus the straggler record of every lockstep
    rendezvous. *)

type overhead_attribution = {
  oa_workload : string;
  oa_n : int;
  oa_attr : Bunshin_profile.Profile.attribution;
  oa_report : Nxe.report;
  oa_solo_overheads : float list; (** each variant run solo vs baseline *)
  oa_group_overhead : float;      (** the N-variant group vs baseline *)
  oa_max_solo : float;
  oa_sum_solo : float;
  oa_max_tracks_group : bool;
      (** the max-dominates rule: the group's slowdown is closer to the
          slowest variant's solo overhead than to the sum of all of them *)
}

val overhead_attribution : ?n:int -> ?config:Nxe.config -> Bench.t -> overhead_attribution
(** Check-distribute the benchmark's ASan checks over [n] variants
    (Figure-1 workflow), run the group under the NXE on the {!desktop}
    machine with attribution on, and check the max-vs-sum overhead rule
    against per-variant solo runs. *)

(** {1 §5.5 — sanitizer distribution on UBSan (Figure 7)} *)

val ubsan_distribution : ?n:int -> Bench.t -> distribution

(** {1 §5.6 — unifying ASan, MSan and UBSan (Figure 8)} *)

type unify = {
  un_bench : string;
  un_asan : float;
  un_msan : float;
  un_ubsan : float;
  un_bunshin : float;   (** all three composited under the NXE *)
  un_extra_over_max : float;  (** the +4.99% headline *)
}

val unify_sanitizers : Bench.t -> unify option
(** [None] when the benchmark cannot run one of the sanitizers (gcc/MSan). *)

(** {1 §5.7 — background load (Figure 9) and single core} *)

val load_sensitivity : Bench.t -> (float * float) list
(** [(level, overhead)] of a 2-variant NXE versus a solo run under the same
    stress-ng-style background load, at levels 0.02, 0.5 and 0.99. *)

val single_core_overhead : Bench.t -> float
(** Synchronization overhead of 2 variants when the machine has one core. *)

(** {1 §2.3 — ASAP comparison (selective protection vs distribution)} *)

type asap_comparison = {
  ac_bench : string;
  ac_budget : float;            (** requested fraction of full check cost *)
  ac_asap_overhead : float;     (** single pruned binary, run solo *)
  ac_asap_coverage : float;     (** fraction of functions still checked *)
  ac_bunshin_overhead : float;  (** 2-variant distribution under the NXE *)
  ac_bunshin_coverage : float;  (** always 1.0: every check lives somewhere *)
}

val asap_comparison : Bench.t -> asap_comparison
(** Same performance target, opposite security outcome: ASAP prunes the
    hottest checks to fit a budget of half the full check cost; Bunshin
    keeps them all and splits them across variants. *)

(** {1 §5.1 — NXE robustness} *)

val robustness : unit -> (string * bool) list
(** Run 3 identical copies of each benchmark's baseline binary under strict
    lockstep and report whether the run completed without a (false)
    divergence alert: SPEC + supported SPLASH/PARSEC + both servers — the
    §5.1 sweep. *)

val unsupported_demo : unit -> (string * bool) list
(** The other half of §5.1: each runnable-but-racy PARSEC member paired
    with [true] when the engine (correctly) fails on it — the data races
    make syscall arguments schedule-dependent. *)

(** {1 Helpers} *)

val solo_time : ?machine_config:Bunshin_machine.Machine.config ->
  Bunshin_program.Program.build -> seed:int -> float

val nxe_run :
  ?config:Nxe.config -> ?machine_config:Bunshin_machine.Machine.config ->
  ?on_machine:(Bunshin_machine.Machine.t -> unit) ->
  seed:int -> Bunshin_program.Program.build list -> Nxe.report

(** {1 High-throughput serving (the [bunshin serve] front-end)} *)

val serve_ir_kernel : unit -> Bunshin_ir.Ast.modul
(** The request handler {!serve_ir_source} serves: [main(rid)] prints
    [rid], runs 24 multiply-add steps over it and prints the result — 51
    interpreter steps, no allocation. *)

val serve_ir_source : ?n:int -> unit -> Bunshin_serve.Serve.source * int ref
(** An IR-backed request source for {!Bunshin_serve.Serve.run}: [n]
    variants of a small request-handler kernel, each
    [Interp.compile]d ONCE here and shared by every pool group (the
    returned counter stays at [n] however many requests are served —
    pinned in the test suite).  Each request interprets the precompiled
    kernel with the request id as argument, so distinct requests are
    distinct syscall streams. *)
