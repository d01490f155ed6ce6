(** Registry of sanitizer-style security mechanisms.

    Each sanitizer bundles everything Bunshin needs to know about it:
    what it detects (Table 1), what it costs ({!Cost_model}), which address
    regions its runtime claims (the source of implementation conflicts such
    as ASan vs MSan, §1), which syscalls its runtime introduces and in which
    phase (§3.3), and which family it belongs to (sub-sanitizers of one
    family share metadata infrastructure, the negative O_synergy of the
    appendix). *)

type id =
  | Asan
  | Msan
  | Ubsan_sub of string  (** one of the 19 UBSan sub-sanitizers *)
  | Softbound
  | Cets
  | Cpi
  | Cfi
  | Safecode
  | Stack_cookie

type region = Shadow_low | Shadow_high | Metadata_table | Safe_region | No_region

type phase = Pre_main | In_execution | Post_exit

type t = {
  id : id;
  sname : string;
  family : string;       (** sanitizers of one family share residual costs *)
  detects : Memory_error.t -> bool;
  protects_control_flow : bool;  (** CPI/stack-cookie style control-data guard *)
  region : region;
  cost : Cost_model.t;
}

val name : t -> string
val pp : Format.formatter -> t -> unit

val conflict : t -> t -> bool
(** Two sanitizers whose runtimes claim the same exclusive address region
    cannot be linked into one binary (e.g. ASan's shadow vs MSan's
    protected low memory). *)

val collectively_enforceable : t list -> bool
(** Pairwise conflict-free: the condition for one sanitizer-distribution
    group (§3.1). *)

val introduced_syscalls : t -> phase -> Bunshin_syscall.Syscall.t list
(** Syscalls the sanitizer runtime issues outside program logic: pre-main
    data collection, in-execution memory management, post-exit reporting.
    The NXE must tolerate all three (§3.3). *)

val detects : t -> Memory_error.t -> bool

(** {1 The mechanisms themselves} *)

val asan : t
val msan : t
val softbound : t
val cets : t
val cpi : t
val cfi : t
val safecode : t
val stack_cookie : t

val ubsan_subs : t list
(** The 19 sub-sanitizers that make up UBSan, each individually cheap
    (<= 40% at the typical profile) but expensive in aggregate (§5.5). *)

val find_ubsan_sub : string -> t option

val all : t list

val group_cost : t list -> Cost_model.code_profile -> float
(** Cost of enforcing a conflict-free group in one variant: check costs
    add; residuals are shared within a family and added across families. *)

val group_residual : t list -> Cost_model.code_profile -> float
(** The residual (non-distributable) part of {!group_cost} alone. *)

val group_check_cost : t list -> Cost_model.code_profile -> float
(** The distributable check part of {!group_cost} alone. *)

val group_ws_multiplier : t list -> float
(** Working-set inflation of a group: per-family maximum (shared shadow),
    multiplied across families. *)

val group_ram_overhead : t list -> float
(** Resident-memory inflation of a group, as a fraction of baseline RSS:
    additive across the enforced mechanisms, per-variant, and independent
    of which checks the variant keeps (§5.7). *)

val coverage_row : Memory_error.t -> string list
(** Names of the modelled sanitizers that detect the given class — the
    Defenses column of Table 1. *)
