(** The five real-world vulnerability case studies of Table 4, modelled as
    mini-IR programs whose vulnerable function reproduces the bug class:

    - nginx 1.4.0, CVE-2013-2028: stack buffer overflow in
      [ngx_http_parse_chunked] (the blind-ROP entry point) — ASan;
    - cpython 2.7.10, CVE-2016-5636: integer overflow in zipimport leading
      to an undersized allocation and heap overflow — ASan;
    - php 5.6.6, CVE-2015-4602: type confusion turning an attacker integer
      into a pointer — ASan;
    - openssl 1.0.1a, CVE-2014-0160: heartbleed out-of-bounds read — ASan;
    - httpd 2.4.10, CVE-2014-3581: NULL dereference in mod_cache — UBSan.

    Each case runs end to end through the real pipeline: instrument the IR
    with the sanitizer, split checks over two variants with the slicer, run
    both variants on the exploit input in the interpreter, and synchronize
    the two runs under the NXE ({!Bridge.run_runs}).  Detection is the
    monitor's: the group run aborts when the variants diverge (§5.3's
    nginx example: variant A issues ASan's report write while variant B
    does not), or when a variant is killed by its sanitizer's abort or a
    crash even though the streams agree. *)

open Bunshin_ir

type case = {
  c_program : string;   (** e.g. "nginx-1.4.0" *)
  c_cve : string;       (** e.g. "2013-2028" *)
  c_exploit : string;   (** e.g. "blind ROP" *)
  c_sanitizer : string; (** "ASan" or "UBSan" *)
  c_modul : Ast.modul;
  c_entry : string;
  c_benign : int64 list;
  c_exploit_args : int64 list;
  c_vuln_func : string; (** function holding the bug *)
}

val cases : case list
(** The five Table 4 rows. *)


val variants : case -> Ast.modul list
(** The case's 2-variant check distribution: instrument with the case
    sanitizer, then [A] keeps only the vulnerable function's checks and
    [B] keeps everything else.  What {!evaluate} runs, exposed so a
    full-stack driver can push the same modules through the NXE bridge. *)

type verdict = {
  v_full_sanitizer : bool;   (** full instrumentation detects the exploit *)
  v_variant_a : bool;        (** variant holding the check detects it *)
  v_variant_b : bool;        (** the other variant alone detects it *)
  v_diverged : bool;         (** interpreter event streams differ (informational) *)
  v_bunshin_detects : bool;  (** the NXE monitor's decision: the group run aborted *)
  v_benign_clean : bool;
      (** benign input triggers nothing anywhere: the full build and both
          variants finish, and the variants' group run ends [`All_finished] *)
  v_incident : Bunshin_forensics.Forensics.incident option;
      (** the incident the engine filed with the abort: blamed variant and
          attributed check site ([None] when nothing was detected) *)
}

val evaluate : case -> verdict
(** Run the full pipeline on the case (2-variant check distribution).
    Detection and the incident come from one {!Bridge.run_runs} group run
    of the variants on the exploit input; a second group run on the
    benign input backs [v_benign_clean]. *)
