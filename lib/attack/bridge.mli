(** The bridge between the reproduction's two layers: turn an IR
    interpreter run into a machine-level trace and synchronize IR-program
    variants under the real NXE.

    An interpreter run's timeline (instruction counts at each observable
    event) becomes compute intervals between syscalls; [print] output is
    stdout traffic (a write); a sanitizer {e detection} ends the trace with
    the report write the runtime emits before aborting — exactly the §5.3
    observation that variant A "issues a write syscall (trying to write to
    stderr) due to ASan's reporting" while variant B does not, which is
    what the monitor catches.  The abort itself, and a crash, end the
    trace with a {!Bunshin_program.Trace.Killed} marker, which the monitor
    also treats as an alarm: variants that all detect or crash at the same
    point of their streams are caught too.

    This is the one monitor the attack suites use: {!Cve}, {!Ripe_ir} and
    {!Nvariant} take every detection verdict and incident from a
    {!run_runs} group run. *)

module Nxe := Bunshin_nxe.Nxe

val trace_of_run : Bunshin_ir.Interp.run -> Bunshin_program.Trace.t
(** Convert a run: [Work] between events (10 µs per 1000 interpreted
    instructions), [Sys] at each syscall/output, the detection-report write
    and [Killed "SIGABRT"] when the run ended in [Detected], and
    [Killed "SIGSEGV"] ([Killed "SIGFPE"] for a division by zero) when it
    ended in [Crashed]. *)

val run_runs : ?config:Nxe.config -> Bunshin_ir.Interp.run list -> Nxe.report
(** Synchronize variants that have already been interpreted: convert each
    run with {!trace_of_run} and run the traces under
    {!Bunshin_nxe.Nxe.run_traces} (variant 0 leads; processes are named
    [ir-v0], [ir-v1], ...).  The outcome is the monitor's verdict:
    [`Aborted] exactly when it saw the variants diverge, or reaped a
    variant killed by its sanitizer or a crash.  On an abort,
    this layer joins each run's sanitizer outcome into the incident
    ({!Bunshin_forensics.Forensics.refine_with_detections}), so the blamed
    variant's firing check site (pass, check id, IR location) is
    attributed and a lone detection breaks a 2-variant blame tie. *)

val run_ir_variants :
  ?config:Nxe.config ->
  entry:string ->
  args:int64 list ->
  Bunshin_ir.Ast.modul list ->
  Nxe.report
(** Interpret each variant module on the given input and synchronize the
    runs with {!run_runs}.  A divergence alert here is the full-stack
    reproduction of the paper's detection story: sliced variants agree on
    benign inputs and diverge at the report syscall under attack.  When
    [config.telemetry] is set, each variant's interpretation is traced in
    its own instruction-step domain ([interp:v0], [interp:v1], ...) on the
    same sink, alongside the nxe and machine domains. *)
