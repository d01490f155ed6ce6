(** Cost models: how much a sanitizer slows down a piece of code.

    The paper's variant generator needs only one number per (sanitizer,
    program unit) pair: the runtime overhead its checks add.  Rather than
    hard-coding per-benchmark numbers, the model derives overhead from a
    {!code_profile} — the instruction mix of the unit — so different
    workloads (memory-bound lbm vs control-bound gcc) naturally produce
    different slowdowns, including the paper's outliers.

    All overheads are fractions of baseline runtime: 1.07 = 107% slowdown.
    Distributable check cost and non-distributable residual (the paper's
    O_residual: metadata creation, bookkeeping, reporting) are separated,
    because check distribution removes only the former. *)

type code_profile = {
  mem_op_density : float;   (** memory accesses per instruction (0..1) *)
  arith_density : float;    (** integer arithmetic per instruction (0..1) *)
  ptr_density : float;      (** pointer derivations per instruction (0..1) *)
  branch_density : float;   (** branches per instruction (0..1) *)
  alloc_intensity : float;  (** heap allocations per kilo-instruction *)
}

val typical_profile : code_profile
(** A SPEC-like average mix; used for calibration tests. *)

type t = {
  check_cost : code_profile -> float;
      (** distributable slowdown fraction from sanity checks *)
  residual_cost : code_profile -> float;
      (** per-variant, non-removable slowdown (metadata maintenance) *)
  ws_multiplier : float;
      (** LLC-resident working-set inflation, >= 1 — feeds the machine's
          cache model *)
  ram_overhead : float;
      (** resident-memory inflation as a fraction of baseline RSS (ASan's
          whole-address-space shadow ~ 2.0, i.e. 3x total) — the §5.7
          memory discussion.  Unlike checks, this cost is per-variant: a
          variant keeps the full shadow no matter how few checks it runs *)
}

val total : t -> code_profile -> float
(** [check_cost + residual_cost]. *)

val zero : t
(** No-op sanitizer cost (baseline builds). *)

val scale : float -> t -> t
(** Scale both cost components (used to split UBSan into sub-sanitizers). *)
