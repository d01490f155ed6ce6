(** Micro-RIPE: executable attack programs behind the Table 3 model.

    Where {!Ripe} classifies the full 3840-combination matrix, this module
    {e generates real mini-IR programs} for the structural core of that
    matrix — buffer location x target placement x overflow technique x
    payload — and runs each exploit through the actual pipeline:

    - vanilla: does the attack succeed (hijack or data tampering)?
    - full ASan: is it detected?
    - 2-variant ASan check distribution: does the NXE monitor, running
      both variants as one group ({!Bridge.run_runs}), match full ASan?
    - stack cookies / CFI: which structural subsets do they catch?

    The headline facts the big-matrix model asserts are demonstrated here:
    every cross-object overflow is caught by ASan and by Bunshin alike,
    while {e intra-object} overflows (the function pointer lives inside the
    overflowed struct) escape both — RIPE's 8 survivors. *)

open Bunshin_ir

type location = Stack | Heap | Bss | Data

type target =
  | Adjacent_func_ptr  (** fp in the neighbouring object: crosses a redzone *)
  | Struct_func_ptr    (** fp is a field of the overflowed struct: intra-object *)
  | Adjacent_auth_flag (** data-only attack on a neighbouring credential flag *)

type technique =
  | Direct    (** contiguous copy loop runs past the buffer *)
  | Indirect  (** overflow corrupts a data pointer; a later write through it
                  redirects to the real target *)

type combo = { location : location; target : target; technique : technique }

val combos : combo list
(** The feasible structural combinations (indirect data-only is excluded,
    as in RIPE). *)

val program : combo -> Ast.modul
(** The victim program for a combination.  [main(len, value)] copies
    [value] into the buffer's first [len] slots (directly or through the
    corrupted pointer) and then uses the target. *)

val exploit_args : combo -> Ast.modul -> int64 list
(** Arguments that spring the attack (overflow length + payload value). *)

val benign_args : int64 list

type outcome = {
  ro_vanilla_succeeds : bool;
  ro_asan_detects : bool;
  ro_bunshin_detects : bool;
      (** the variants' group run under the NXE aborted on the exploit: the
          variants diverged, or one was killed by its check or a crash *)
  ro_cookie_detects : bool;
  ro_cfi_detects : bool;
  ro_benign_clean : bool;
      (** every build finishes on benign input without the attack's
          effect, and the variants' group run ends [`All_finished] *)
  ro_incident : Bunshin_forensics.Forensics.incident option;
      (** the incident the engine filed with a Bunshin detection:
          divergent slot, blamed variant, attributed check site ([None]
          when undetected) *)
}

val evaluate : combo -> outcome

val pp_combo : Format.formatter -> combo -> unit
