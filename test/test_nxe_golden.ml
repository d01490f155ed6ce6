(* Golden-report regression tests for the NXE.

   Every field of [Nxe.report] — outcome, forensics incident JSON, fault
   incidents, counts, gap stats, per-variant status, histograms, machine
   stats — is rendered to a canonical text form (floats in hex, so the
   comparison is bit-exact) and compared against a committed snapshot in
   test/golden/.  The corpus covers strict and selective lockstep, clean
   and divergent runs, fault quarantine and restart, signals, shared
   memory, weak determinism and multi-group traces, so any engine change
   that perturbs the simulated schedule — not just the verdict — fails
   here.

   Each scenario additionally runs with a profile collector attached and
   with a telemetry sink attached: both are documented as pure
   observation, so all three reports must render byte-identically.

   Regenerate with:
     BUNSHIN_REGEN_GOLDEN=test/golden dune exec test/test_nxe_golden.exe *)

module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module San = Bunshin_sanitizer.Sanitizer
module Cost = Bunshin_sanitizer.Cost_model
module Nxe = Bunshin_nxe.Nxe
module Faults = Bunshin_faults.Faults
module Pr = Bunshin_profile.Profile
module Tel = Bunshin_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* Canonical report rendering *)

open Kit

let render (r : Nxe.report) =
  let b = Buffer.create 4096 in
  let line fmt = line b fmt in
  render_verdict b r.Nxe.outcome r.Nxe.incident;
  line "total_time: %s" (fl r.Nxe.total_time);
  line "variant_finish: %s" (fls r.Nxe.variant_finish);
  line "variant_cpu: %s" (fls r.Nxe.variant_cpu);
  line "synced_syscalls: %d" r.Nxe.synced_syscalls;
  line "executed_syscalls: %d" r.Nxe.executed_syscalls;
  line "lockstep_syscalls: %d" r.Nxe.lockstep_syscalls;
  line "avg_syscall_gap: %s" (fl r.Nxe.avg_syscall_gap);
  line "max_syscall_gap: %d" r.Nxe.max_syscall_gap;
  line "order_list_length: %d" r.Nxe.order_list_length;
  line "det_replays: %d" r.Nxe.det_replays;
  line "channels: %d" r.Nxe.channels;
  render_health b ~status:r.Nxe.variant_status ~coverage_loss:r.Nxe.coverage_loss
    ~fault_incidents:r.Nxe.fault_incidents;
  render_histograms b r.Nxe.histograms;
  line "machine: total=%s ctx=%d pressure_peak=%s" (fl r.Nxe.machine_stats.M.total_time)
    r.Nxe.machine_stats.M.context_switches
    (fl r.Nxe.machine_stats.M.cache_pressure_peak);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scenario corpus *)

(* A trace exercising most op kinds: locks, barrier, spawned threads,
   shared counters, shared-memory reads, a fork and sync fences. *)
let rich_trace () =
  let child = [ work 6.0; wr 70 ] in
  let worker tag =
    [
      work 12.0;
      Trace.Lock 0;
      work 2.0;
      Trace.Incr 1;
      Trace.Unlock 0;
      Trace.Sys_shared (Sc.write ~args:[ 1L; tag ] (), 1);
      Trace.Barrier (0, 3);
    ]
  in
  [ Trace.Marker Trace.Main_entered ]
  @ [ Trace.Spawn (worker 10L); Trace.Spawn (worker 20L) ]
  @ worker 0L
  @ [
      Trace.Shared_read { region = 2; counter = 5 };
      Trace.Sys_shared (Sc.write ~args:[ 1L; 3L ] (), 5);
      Trace.Idle 4.0;
      Trace.Fork child;
      work 5.0;
      rd 8;
      wr 9;
      Trace.Marker Trace.About_to_exit;
      Trace.Sys (Sc.make "exit_group");
    ]

let asym_traces () =
  let mk cost =
    List.concat
      (List.init 18 (fun i ->
           [ work cost; rd i; wr i ]))
  in
  [ mk 2.0; mk 9.0 ]

let small_prog =
  {
    Program.name = "golden";
    funcs = [ { Program.fn_name = "f"; fn_profile = Cost.typical_profile } ];
    working_set = 1.0;
    gen_trace =
      (fun _ ->
        List.concat (List.init 10 (fun i -> [ work 40.0; wr i ])));
  }

let stall_policy policy =
  { Nxe.policy; heartbeat_timeout = 200.0; restart_backoff = 50.0 }

(* Each scenario takes the instrumentation to attach and must pass it on:
   the harness runs it bare, with a profile collector, and with a
   telemetry sink, expecting identical reports. *)
type scenario = {
  s_name : string;
  s_n : int; (* variant count, for the profile collector *)
  s_run : profile:Pr.Collector.t option -> telemetry:Tel.sink option -> Nxe.report;
}

let sc name n run = { s_name = name; s_n = n; s_run = run }

let base_cfg telemetry = { Nxe.default_config with telemetry }

let scenarios =
  [
    sc "strict_mt" 3 (fun ~profile ~telemetry ->
        Nxe.run_traces ~config:(base_cfg telemetry) ?profile ~names:(names 3)
          (List.init 3 (fun _ -> rich_trace ())));
    sc "selective_mt" 3 (fun ~profile ~telemetry ->
        Nxe.run_traces
          ~config:{ (base_cfg telemetry) with mode = Nxe.Selective_lockstep }
          ?profile ~names:(names 3)
          (List.init 3 (fun _ -> rich_trace ())));
    sc "selective_runahead" 2 (fun ~profile ~telemetry ->
        Nxe.run_traces
          ~config:
            { (base_cfg telemetry) with mode = Nxe.Selective_lockstep; ring_capacity = 4 }
          ?profile ~names:(names 2) (asym_traces ()));
    sc "selective_capacity1" 2 (fun ~profile ~telemetry ->
        Nxe.run_traces
          ~config:
            { (base_cfg telemetry) with mode = Nxe.Selective_lockstep; ring_capacity = 1 }
          ?profile ~names:(names 2) (asym_traces ()));
    sc "strict_diverge_arg" 3 (fun ~profile ~telemetry ->
        Nxe.run_traces ~config:(base_cfg telemetry) ?profile ~names:(names 3)
          (diverge_at ~pos:3 ~tag:999 3));
    sc "selective_diverge_arg" 3 (fun ~profile ~telemetry ->
        Nxe.run_traces
          ~config:{ (base_cfg telemetry) with mode = Nxe.Selective_lockstep }
          ?profile ~names:(names 3) (diverge_at ~pos:5 ~tag:777 3));
    sc "strict_diverge_seq" 2 (fun ~profile ~telemetry ->
        let l = [ work 4.0; wr 1 ] in
        Nxe.run_traces ~config:(base_cfg telemetry) ?profile ~names:(names 2)
          [ l; l @ [ rd 2 ] ]);
    sc "quarantine_stall" 3 (fun ~profile ~telemetry ->
        let faults = Faults.make [ { Faults.i_variant = 1; i_at = 2; i_kind = Faults.Stall } ] in
        Nxe.run_traces
          ~config:{ (base_cfg telemetry) with fault_policy = stall_policy Nxe.Quarantine }
          ~faults
          ~coverage:[ [ "asan"; "msan" ]; [ "msan" ]; [ "asan" ] ]
          ?profile ~names:(names 3) (diverge_at ~pos:(-1) ~tag:0 3));
    sc "restart_die" 3 (fun ~profile ~telemetry ->
        let faults = Faults.make [ { Faults.i_variant = 2; i_at = 1; i_kind = Faults.Die } ] in
        Nxe.run_traces
          ~config:
            { (base_cfg telemetry) with fault_policy = stall_policy Nxe.Restart_once }
          ~faults ?profile ~names:(names 3) (diverge_at ~pos:(-1) ~tag:0 3));
    sc "abort_on_death" 2 (fun ~profile ~telemetry ->
        let faults = Faults.make [ { Faults.i_variant = 1; i_at = 1; i_kind = Faults.Die } ] in
        Nxe.run_traces ~config:(base_cfg telemetry) ~faults ?profile ~names:(names 2)
          (diverge_at ~pos:(-1) ~tag:0 2));
    sc "delay_corrupt" 2 (fun ~profile ~telemetry ->
        let faults =
          Faults.make
            [
              { Faults.i_variant = 1; i_at = 1;
                i_kind = Faults.Delay { d_each = 9.0; d_count = 2 } };
              { Faults.i_variant = 1; i_at = 4;
                i_kind = Faults.Corrupt { c_arg = 1; c_delta = 13L } };
            ]
        in
        Nxe.run_traces ~config:(base_cfg telemetry) ~faults ?profile ~names:(names 2)
          (diverge_at ~pos:(-1) ~tag:0 2));
    sc "signals" 2 (fun ~profile ~telemetry ->
        let handler = [ work 3.0; Trace.Sys (Sc.write ~args:[ 2L; 123L ] ()) ] in
        Nxe.run_traces ~config:(base_cfg telemetry)
          ~signals:[ (30.0, handler) ]
          ?profile ~names:(names 2) (diverge_at ~pos:(-1) ~tag:0 2));
    sc "shared_mem_off" 2 (fun ~profile ~telemetry ->
        Nxe.run_traces
          ~config:{ (base_cfg telemetry) with sync_shared_memory = false }
          ?profile ~names:(names 2)
          (List.init 2 (fun _ -> rich_trace ())));
    sc "weak_det_off" 2 (fun ~profile ~telemetry ->
        Nxe.run_traces
          ~config:{ (base_cfg telemetry) with weak_determinism = false }
          ?profile ~names:(names 2)
          (List.init 2 (fun _ -> rich_trace ())));
    sc "builds_sanitized" 3 (fun ~profile ~telemetry ->
        Nxe.run_builds ~config:(base_cfg telemetry) ~jitter:0.03 ~seed:5 ?profile
          [
            Program.full [ San.asan ] small_prog;
            Program.full [ San.msan ] small_prog;
            Program.baseline small_prog;
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Harness *)

let () =
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  List.iter
    (fun s ->
      let base = render (s.s_run ~profile:None ~telemetry:None) in
      let with_profile =
        render (s.s_run ~profile:(Some (Pr.Collector.create s.s_n)) ~telemetry:None)
      in
      if with_profile <> base then
        fail (s.s_name ^ ": profile-attached report differs from bare run");
      let with_tel = render (s.s_run ~profile:None ~telemetry:(Some (Tel.create ()))) in
      if with_tel <> base then
        fail (s.s_name ^ ": telemetry-attached report differs from bare run");
      Result.iter_error (fun e -> fail (s.s_name ^ ": report " ^ e)) (Golden.check s.s_name base);
      print_string ("golden " ^ s.s_name ^ ": checked\n"))
    scenarios;
  Golden.finish !failures
