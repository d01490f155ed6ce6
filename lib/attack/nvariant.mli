(** Memory-layout diversification: the classic N-variant defense (Cox et
    al. [10], cited in the paper's §2.2) reproduced at the IR level.

    Two variants of the same program run under disjoint address-space
    layouts (the interpreter's ASLR model).  A write-what-where exploit
    that hijacks a function pointer needs the pointer slot's absolute
    address; an address valid in one variant is wild in the other, so the
    attack can corrupt at most one variant — and the survivors' diverging
    behaviour, or the crash of the variant the wild write hit, is exactly
    what the NXE monitor flags: both runs go through one {!Bridge.run_runs}
    group run, whose abort is the detection.  No sanitizer is involved:
    the protection comes from diversification alone. *)

open Bunshin_ir

val demo_modul : unit -> Ast.modul
(** A victim with a function-pointer dispatch table and an arbitrary-write
    primitive ([main(where, what)] stores [what] at address [where] before
    dispatching). *)

type verdict = {
  nv_hijacked_a : bool;   (** exploit takes over variant A (it knows A's layout) *)
  nv_hijacked_b : bool;   (** the same bytes take over variant B *)
  nv_diverged : bool;     (** interpreter event streams differ (informational) *)
  nv_detected : bool;     (** the monitor's decision: the group run aborted *)
  nv_benign_clean : bool;
      (** benign input finishes in both layouts and their group run ends
          [`All_finished] *)
}

val evaluate : unit -> verdict
(** Run the exploit (crafted against variant A's layout) on both variants,
    under two distinct layouts (seeds 41 and 42), and report the
    monitor's view. *)

val single_layout_escapes : unit -> bool
(** Control experiment: with both variants sharing one layout the exploit
    hijacks both identically — their group run finishes without an abort,
    so the attack escapes. *)
