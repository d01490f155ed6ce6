(** Bunshin: N-version execution that composites security mechanisms
    through diversification.

    This is the public facade: it re-exports every subsystem and provides
    the end-to-end pipelines (Figure 1's generator workflow and §5's
    experiments) under {!Experiments}.

    {[
      let bench = Bunshin.Spec.find "bzip2" in
      let r = Bunshin.Experiments.check_distribution ~n:3 bench in
      Format.printf "full ASan %s -> Bunshin %s@."
        (Bunshin.Stats.pct r.cd_full_overhead)
        (Bunshin.Stats.pct r.cd_bunshin_overhead)
    ]} *)

module Rng = Bunshin_util.Rng
module Stats = Bunshin_util.Stats
module Table = Bunshin_util.Table
module Json = Bunshin_util.Json
module Ir = Bunshin_ir.Ast
module Builder = Bunshin_ir.Builder
module Interp = Bunshin_ir.Interp
module Precompile = Bunshin_ir.Precompile
module Shadow = Bunshin_ir.Shadow
module Verify = Bunshin_ir.Verify
module Printer = Bunshin_ir.Printer
module Ir_parser = Bunshin_ir.Parser
module Simplify = Bunshin_ir.Simplify
module Cfg = Bunshin_ir.Cfg
module Syscall = Bunshin_syscall.Syscall
module Telemetry = Bunshin_telemetry.Telemetry
module Machine = Bunshin_machine.Machine
module Pthreads = Bunshin_machine.Pthreads
module Memory_error = Bunshin_sanitizer.Memory_error
module Sanitizer = Bunshin_sanitizer.Sanitizer
module Cost_model = Bunshin_sanitizer.Cost_model
module Instrument = Bunshin_sanitizer.Instrument
module Slicer = Bunshin_slicer.Slicer
module Partition = Bunshin_partition.Partition
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module Profile = Bunshin_profile.Profile
module Gate = Bunshin_profile.Gate
module Variant = Bunshin_variant.Variant
module Asap = Bunshin_variant.Asap
module Nxe = Bunshin_nxe.Nxe
module Net = Bunshin_net.Net
module Trace_ctx = Bunshin_trace_ctx.Trace_ctx
module Cluster = Bunshin_cluster.Cluster
module Faults = Bunshin_faults.Faults
module Forensics = Bunshin_forensics.Forensics
module Ripe = Bunshin_attack.Ripe
module Cve = Bunshin_attack.Cve
module Bench = Bunshin_workloads.Bench
module Spec = Bunshin_workloads.Spec
module Multithreaded = Bunshin_workloads.Multithreaded
module Server = Bunshin_workloads.Server
module Load = Bunshin_workloads.Load
module Serve = Bunshin_serve.Serve
module Experiments = Experiments
module Bridge = Bunshin_attack.Bridge
module Nvariant = Bunshin_attack.Nvariant
module Ripe_ir = Bunshin_attack.Ripe_ir
module Window = Bunshin_attack.Window
