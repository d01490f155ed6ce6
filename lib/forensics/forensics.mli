(** Divergence forensics: flight recorder, blame attribution, and incident
    reports for the NXE.

    When the monitor aborts on a divergence it historically reported one
    line: which follower disagreed and the two syscall strings.  That names
    the symptom, not the culprit — with N variants the {e flagged} follower
    is just the first comparison that failed, and the root cause (which
    variant went off-script, and which sanitizer check made it do so) has
    to be reconstructed.  This module is that reconstruction:

    - {b Flight recorder} ({!Tape}): a bounded per-(channel, variant) ring
      of the last K published/fetched syscall slots.  Recording a slot is
      three array stores into preallocated parallel arrays — no allocation
      on the steady path — so the recorder is always on, like the NXE's
      report histograms.
    - {b Blame attribution}: at the divergent slot every variant casts a
      {!vote} (the syscall it issued there, or the fact it had exited, or
      that it never arrived).  Majority vote names the outlier; a 2-variant
      tie falls back to the flagged follower unless exactly one variant's
      sanitizer fired ({!refine_with_detections}), which breaks the tie —
      the §5.3 story where the detecting variant is the one that issues the
      extra report write.
    - {b Check-site attribution}: a sanitizer detection carries the report
      handler, function and sink-block label ([san.fail.N]); joining those
      against the handler-prefix table names the pass and check id that
      fired.
    - {b Incident reports}: the whole finding as one {!incident} value,
      renderable as an aligned, diff-marked text tape ({!to_text}) or as
      JSON ({!to_json} / {!of_json}).

    Incidents are filed only by the NXE ([Nxe.report.incident]); the
    attack suites get theirs from a group run through the bridge
    ([Bunshin_attack.Bridge.run_runs]), which also joins the detections. *)

type syscall_rec = {
  r_pos : int;          (** slot index in the channel's syscall stream *)
  r_name : string;
  r_args : int64 list;
  r_time : float;       (** machine time (µs) the slot was published/fetched *)
}

(** {1 Flight recorder} *)

module Tape : sig
  type t

  val create : depth:int -> t
  (** A recorder retaining the last [depth] records.
      @raise Invalid_argument if [depth < 1]. *)

  val depth : t -> int

  val record : t -> pos:int -> time:float -> Bunshin_syscall.Syscall.t -> unit
  (** Append one record, evicting the oldest when full.  Allocation-free:
      three stores into preallocated arrays (the syscall value is shared,
      not copied). *)

  val recorded : t -> int
  (** Total records ever written (≥ number retained). *)

  val to_list : t -> syscall_rec list
  (** Retained records, oldest first. *)

  val find : t -> pos:int -> syscall_rec option
  (** The retained record for stream position [pos], if not yet evicted. *)
end

(** {1 Blame attribution} *)

(** What a variant was doing at the divergent slot. *)
type vote =
  | Issued of syscall_rec  (** it issued this syscall there *)
  | Exited                 (** its stream ended before the slot *)
  | Pending                (** it had not reached the slot when the run aborted *)

(** How the blame was decided. *)
type basis =
  | Majority of int  (** the blamed variant was outvoted by this many agreeing peers *)
  | Tie              (** no majority (e.g. N = 2): the flagged variant is blamed *)
  | Tie_broken_by_detection
      (** tie resolved because exactly one variant's sanitizer fired *)

type mismatch =
  | Argument_mismatch  (** same syscall, different arguments *)
  | Sequence_mismatch  (** different syscalls at the same position *)
  | Premature_exit     (** one side exited while the other kept issuing *)
  | Fault_isolation
      (** not a divergence: the monitor retired the variant after a benign
          fault (missed heartbeat, benign death) — the incident documents a
          quarantine, never set by {!classify} *)

val blame : votes:vote array -> flagged:int -> int * basis
(** Majority vote over the non-[Pending] votes: variants ballot with the
    (name, args) of their {!Issued} syscall (or their exit); if a unique
    plurality exists, the variant outside it is the outlier.  With no
    majority — or when the outlier is ambiguous — the [flagged] variant
    (the one the monitor's first failing comparison named) is blamed with
    basis {!Tie}. *)

val classify : votes:vote array -> blamed:int -> mismatch
(** Kind of divergence between the blamed variant's vote and its peers'. *)

(** {1 Check-site attribution} *)

type check_site = {
  cs_variant : int;   (** variant whose check fired *)
  cs_pass : string;
      (** sanitizer pass owning the report handler ([__asan_report_store]
          -> ["asan"]); [""] for names outside
          {!Bunshin_ir.Runtime_api.report_prefixes}, and ["ir"] for the
          interpreter's bare ["unreachable"] *)
  cs_handler : string;(** report handler, e.g. [__asan_report_store] *)
  cs_func : string;   (** function containing the failed check *)
  cs_block : string;  (** sink block label, e.g. [san.fail.3] *)
  cs_check_id : int;  (** the [N] of [san.fail.N]; -1 for any other label *)
}

(** {1 Incidents} *)

type incident = {
  inc_channel : int;
  inc_position : int;               (** divergent slot in the channel stream *)
  inc_blamed : int;                 (** the outlier variant *)
  inc_basis : basis;
  inc_mismatch : mismatch;
  inc_expected : string;            (** what the agreeing side did there *)
  inc_got : string;                 (** what the blamed variant did there *)
  inc_time : float;                 (** machine time (µs) of the abort *)
  inc_votes : vote array;           (** per variant *)
  inc_tapes : syscall_rec list array;  (** per-variant flight-recorder window *)
  inc_check_site : check_site option;
}

val build :
  ?mismatch_override:mismatch ->
  channel:int ->
  position:int ->
  flagged:int ->
  expected:string ->
  got:string ->
  time:float ->
  votes:vote array ->
  tapes:syscall_rec list array ->
  unit ->
  incident
(** Assemble an incident, running {!blame} and {!classify}.
    [mismatch_override] replaces the classified mismatch — used for
    {!Fault_isolation} incidents, whose votes show a benign fault rather
    than a divergence.
    @raise Invalid_argument if [votes] and [tapes] lengths differ or
    [flagged] is out of range. *)

val refine_with_detections :
  incident -> Bunshin_ir.Interp.detection option array -> incident
(** Join the per-variant sanitizer outcomes in: when exactly one variant
    detected, its check site is attributed, and a {!Tie} blame moves to
    that variant with basis {!Tie_broken_by_detection}.  An array shorter
    than the variant count treats the missing entries as [None]. *)

(** {1 Rendering} *)

val to_text : incident -> string
(** Human-readable report: blame line, mismatch kind, attributed check
    site, then the per-variant tapes aligned on stream position with the
    divergent slot marked [>>] and disagreeing entries marked [!!]. *)

val to_json : incident -> string
(** Machine-readable export.  Syscall arguments are serialized as decimal
    strings so full [int64] range survives the round trip. *)

val of_json : string -> (incident, string) result
(** Inverse of {!to_json}: [of_json (to_json i)] returns an incident equal
    to [i]. *)
