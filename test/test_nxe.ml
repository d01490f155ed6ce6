(* Tests for Bunshin_nxe: lockstep modes, divergence detection, execution
   groups, weak determinism, sanitizer-syscall tolerance. *)

module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module San = Bunshin_sanitizer.Sanitizer
module Cost = Bunshin_sanitizer.Cost_model
module Nxe = Bunshin_nxe.Nxe
module Faults = Bunshin_faults.Faults
module F = Bunshin_forensics.Forensics
module Serve = Bunshin_serve.Serve
module Server = Bunshin_workloads.Server

open Kit

let run ?config ?machine_config n trace =
  Nxe.run_traces ?config ?machine_config ~names:(names n) (List.init n (fun _ -> trace))

let check_aborted msg r =
  Alcotest.(check bool) msg true
    (match r.Nxe.outcome with `Aborted _ -> true | `All_finished -> false)

(* ------------------------------------------------------------------ *)
(* Basic synchronization *)

let test_identical_variants_finish () =
  let r = run 3 (basic_trace 20) in
  Alcotest.(check bool) "all finished" true (finished r.Nxe.outcome);
  Alcotest.(check int) "synced all writes" 20 r.Nxe.synced_syscalls;
  Alcotest.(check int) "one channel" 1 r.Nxe.channels

let test_single_variant_degenerates () =
  let r = run 1 (basic_trace 20) in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check bool) "time sane" true (r.Nxe.total_time >= 1000.0)

let test_sync_overhead_small () =
  (* NXE overhead over a solo run should be modest for a CPU-heavy trace. *)
  let trace = basic_trace 50 in
  let solo = run 1 trace in
  let nxe3 = run 3 trace in
  let oh =
    Bunshin_util.Stats.overhead ~baseline:solo.Nxe.total_time ~measured:nxe3.Nxe.total_time
  in
  Alcotest.(check bool) (Printf.sprintf "overhead %.3f < 0.5" oh) true (oh < 0.5);
  Alcotest.(check bool) "positive" true (oh > 0.0)

let test_selective_not_slower_than_strict () =
  (* A read-heavy trace: selective mode skips lockstep on reads. *)
  let trace = List.concat (List.init 40 (fun i -> [ work 10.0; rd i ])) in
  let strict = run ~config:Nxe.default_config 3 trace in
  let sel = run ~config:Nxe.selective 3 trace in
  Alcotest.(check bool) "both finish" true
    (finished strict.Nxe.outcome && finished sel.Nxe.outcome);
  Alcotest.(check bool)
    (Printf.sprintf "selective %.1f <= strict %.1f" sel.Nxe.total_time strict.Nxe.total_time)
    true
    (sel.Nxe.total_time <= strict.Nxe.total_time +. 1e-6)

let test_selective_still_locksteps_writes () =
  let trace = basic_trace 20 in
  let r = run ~config:Nxe.selective 3 trace in
  Alcotest.(check int) "all writes locksteped" 20 r.Nxe.lockstep_syscalls

let test_strict_locksteps_everything () =
  let trace = List.concat (List.init 10 (fun _ -> [ work 5.0; rd 64 ])) in
  let r = run ~config:Nxe.default_config 2 trace in
  Alcotest.(check int) "all synced locksteped" r.Nxe.synced_syscalls r.Nxe.lockstep_syscalls

(* ------------------------------------------------------------------ *)
(* Divergence detection *)

let test_argument_divergence_detected () =
  let leader = [ work 10.0; wr 42 ] in
  let follower = [ work 10.0; wr 666 ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "argument mismatch aborts" r;
  match r.Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check int) "variant 1 diverged" 1 a.Nxe.al_variant;
    Alcotest.(check int) "at position 0" 0 a.Nxe.al_position;
    (* The alert names the offending syscall itself, not just a string. *)
    Alcotest.(check int) "channel id" 0 a.Nxe.al_channel;
    (match (a.Nxe.al_expected_sc, a.Nxe.al_got_sc) with
     | Some exp, Some got ->
       Alcotest.(check string) "expected syscall name" "write" exp.Sc.name;
       Alcotest.(check (list int64)) "expected args" [ 1L; 42L ] exp.Sc.args;
       Alcotest.(check string) "offending syscall name" "write" got.Sc.name;
       Alcotest.(check (list int64)) "offending args" [ 1L; 666L ] got.Sc.args
     | _ -> Alcotest.fail "alert should carry both syscalls")
  | `All_finished -> ()

let test_selective_alert_carries_syscalls () =
  (* Same content guarantee under selective lockstep: the write still
     locksteps, and the alert names both sides' syscalls. *)
  let leader = [ work 10.0; wr 42 ] in
  let follower = [ work 10.0; wr 666 ] in
  let r = Nxe.run_traces ~config:Nxe.selective ~names:(names 2) [ leader; follower ] in
  check_aborted "selective argument mismatch aborts" r;
  match r.Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check int) "channel id" 0 a.Nxe.al_channel;
    (match a.Nxe.al_got_sc with
     | Some got ->
       Alcotest.(check string) "offending syscall name" "write" got.Sc.name;
       Alcotest.(check (list int64)) "offending args" [ 1L; 666L ] got.Sc.args
     | None -> Alcotest.fail "alert should carry the offending syscall")
  | `All_finished -> ()

let test_sequence_alert_syscall_content () =
  (* A follower's extra syscall: got is the extra call, expected is
     end-of-stream (None). *)
  let leader = [ work 10.0; wr 5 ] in
  let follower = [ work 10.0; wr 5; rd 9 ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "extra follower syscall aborts" r;
  match r.Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check bool) "no expected syscall" true (a.Nxe.al_expected_sc = None);
    (match a.Nxe.al_got_sc with
     | Some got ->
       Alcotest.(check string) "extra syscall name" "read" got.Sc.name;
       Alcotest.(check (list int64)) "extra syscall args" [ 3L; 9L ] got.Sc.args
     | None -> Alcotest.fail "alert should carry the extra syscall")
  | `All_finished -> ()

let test_syscall_name_divergence_detected () =
  let leader = [ work 10.0; wr 64 ] in
  let follower = [ work 10.0; rd 64 ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "name mismatch aborts" r

let test_sequence_divergence_follower_extra () =
  let leader = [ work 10.0; wr 64 ] in
  let follower = [ work 10.0; wr 64; wr 64 ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "extra follower syscall aborts" r

let test_sequence_divergence_leader_extra () =
  let leader = [ work 10.0; wr 64; wr 64 ] in
  let follower = [ work 10.0; wr 64 ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "extra leader syscall aborts" r

let test_divergence_aborts_all_variants_quickly () =
  (* After the alert, the long tail of variant work is skipped. *)
  let tail = List.init 100 (fun _ -> work 100.0) in
  let leader = (work 1.0 :: wr 1 :: tail) in
  let follower = (work 1.0 :: wr 2 :: tail) in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "aborted" r;
  Alcotest.(check bool) "stopped early" true (r.Nxe.total_time < 5000.0)

let test_divergence_third_variant () =
  let good = [ work 5.0; wr 7 ] in
  let bad = [ work 5.0; wr 8 ] in
  let r = Nxe.run_traces ~names:(names 3) [ good; good; bad ] in
  check_aborted "aborted" r;
  match r.Nxe.outcome with
  | `Aborted a -> Alcotest.(check int) "variant 2" 2 a.Nxe.al_variant
  | `All_finished -> ()

(* Under selective lockstep the leader runs ahead through unselected
   reads, so it has already issued its second read when the slower v1's
   first one diverges.  The incident's tapes still end at the divergent
   slot: the same window the Net transport reports. *)
let test_selective_incident_tape_ends_at_divergence () =
  let trace lag first =
    [ work lag; rd first; work 5.0; rd 32 ]
  in
  let r =
    Nxe.run_traces ~config:Nxe.selective ~names:(names 3)
      [ trace 5.0 49; trace 30.0 50; trace 5.0 49 ]
  in
  check_aborted "v1 diverges" r;
  match r.Nxe.incident with
  | None -> Alcotest.fail "divergence must attach an incident"
  | Some inc ->
    Alcotest.(check int) "divergent slot" 0 inc.F.inc_position;
    Alcotest.(check int) "v1 blamed" 1 inc.F.inc_blamed;
    Alcotest.(check (list int)) "leader tape ends at the divergence" [ 0 ]
      (List.map (fun rc -> rc.F.r_pos) inc.F.inc_tapes.(0));
    Array.iteri
      (fun v tape ->
        List.iter
          (fun rc ->
            if rc.F.r_pos > 0 then
              Alcotest.failf "v%d tape holds slot %d past the divergence" v rc.F.r_pos)
          tape)
      inc.F.inc_tapes

let test_killed_variants () =
  (* Variants that all die the same way agree on every slot; the monitor
     still aborts when it reaps them, whatever the fault policy.  The ops
     after a kill never run: their writes differ, yet the alarm is the kill. *)
  let dies last = basic_trace 3 @ [ Trace.Marker (Trace.Killed "SIGABRT"); last ] in
  let quarantine =
    { Nxe.default_config with fault_policy = { Nxe.default_policy with policy = Nxe.Quarantine } }
  in
  List.iter
    (fun (label, config) ->
      let r =
        Nxe.run_traces ~config ~names:(names 2)
          [ dies (wr 7); dies (wr 8) ]
      in
      match r.Nxe.outcome with
      | `Aborted a ->
        Alcotest.(check (pair string string))
          (label ^ " alert") ("<exit>", "<killed by SIGABRT>") (a.Nxe.al_expected, a.Nxe.al_got);
        Alcotest.(check int) (label ^ " at stream end") 3 a.Nxe.al_position;
        Alcotest.(check int) (label ^ " synced") 3 r.Nxe.synced_syscalls;
        Alcotest.(check bool) (label ^ " incident") true (r.Nxe.incident <> None)
      | `All_finished -> Alcotest.fail (label ^ ": identical kills not caught"))
    [ ("strict", Nxe.default_config); ("selective", Nxe.selective); ("quarantine", quarantine) ];
  (* A peer that goes on past the kill: the ordinary early-exit divergence. *)
  let lone = basic_trace 2 @ [ Trace.Marker (Trace.Killed "SIGSEGV") ] in
  match (Nxe.run_traces ~names:(names 2) [ basic_trace 3; lone ]).Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check (pair int string)) "lone kill" (2, "<exit>") (a.Nxe.al_position, a.Nxe.al_got)
  | `All_finished -> Alcotest.fail "lone kill not caught"

(* ------------------------------------------------------------------ *)
(* Sanitizer-introduced syscalls (§3.3) *)

let test_memory_syscalls_not_compared () =
  (* One variant issues extra mmaps mid-stream (sanitizer metadata): no
     false alert. *)
  let leader = [ work 10.0; wr 64; work 10.0; wr 2 ] in
  let follower =
    [
      work 10.0;
      Trace.Sys (Sc.mmap ());
      wr 64;
      Trace.Sys (Sc.munmap ());
      work 10.0;
      wr 2;
    ]
  in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  Alcotest.(check bool) "no false alert" true (finished r.Nxe.outcome)

let test_vdso_not_synchronized () =
  let leader = [ work 10.0; Trace.Sys (Sc.make "gettimeofday_vdso"); wr 64 ] in
  let follower = [ work 10.0; wr 64 ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  Alcotest.(check bool) "vdso ignored" true (finished r.Nxe.outcome)

let test_pre_main_and_post_exit_not_synchronized () =
  (* Differently-sanitized builds: ASan variant scans /proc before main and
     writes a report at exit; baseline does neither.  The markers fence
     synchronization so no alert fires — the paper's empirical claim. *)
  let body = [ work 10.0; wr 64; work 10.0 ] in
  let asan_like =
    [ Trace.Sys (Sc.make "openat"); Trace.Sys (Sc.read ()); Trace.Sys (Sc.mmap ()) ]
    @ (Trace.Marker Trace.Main_entered :: body)
    @ [ Trace.Marker Trace.About_to_exit; Trace.Sys (Sc.write ~args:[ 2L; 999L ] ()) ]
  in
  let plain = (Trace.Marker Trace.Main_entered :: body) @ [ Trace.Marker Trace.About_to_exit ] in
  let r = Nxe.run_traces ~names:(names 2) [ asan_like; plain ] in
  Alcotest.(check bool) "no false alert across phases" true (finished r.Nxe.outcome);
  Alcotest.(check int) "only the body write synced" 1 r.Nxe.synced_syscalls

let test_differently_sanitized_builds_no_false_alert () =
  (* Full pipeline check: the same program built with ASan, MSan and
     baseline produces synchronizable traces. *)
  let prog =
    {
      Program.name = "p";
      funcs = [ { Program.fn_name = "f"; fn_profile = Cost.typical_profile } ];
      working_set = 1.0;
      gen_trace = (fun _ -> List.concat (List.init 8 (fun i -> [ work 100.0; wr i ])));
    }
  in
  let builds =
    [ Program.full [ San.asan ] prog; Program.full [ San.msan ] prog; Program.baseline prog ]
  in
  let r = Nxe.run_builds ~seed:3 builds in
  Alcotest.(check bool) "no false alert" true (finished r.Nxe.outcome)

(* ------------------------------------------------------------------ *)
(* Ring buffer and syscall gap *)

let test_strict_gap_at_most_one () =
  let r = run ~config:Nxe.default_config 3 (basic_trace 20) in
  Alcotest.(check bool) "gap <= 1" true (r.Nxe.max_syscall_gap <= 1)

(* Same syscall stream, follower computes 5x slower (e.g. a heavily
   instrumented variant): the leader runs ahead through the ring. *)
let asymmetric_traces () =
  let mk cost = List.concat (List.init 30 (fun i -> [ work cost; rd i ])) in
  [ mk 2.0; mk 10.0 ]

let test_selective_gap_can_grow () =
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with ring_capacity = 16 }
      ~names:(names 2) (asymmetric_traces ())
  in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check bool)
    (Printf.sprintf "gap %d > 1" r.Nxe.max_syscall_gap)
    true (r.Nxe.max_syscall_gap > 1)

let test_ring_capacity_bounds_gap () =
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with ring_capacity = 4 }
      ~names:(names 2) (asymmetric_traces ())
  in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check bool)
    (Printf.sprintf "gap %d <= 5" r.Nxe.max_syscall_gap)
    true (r.Nxe.max_syscall_gap <= 5)

let test_ring_capacity_validated () =
  (* Capacity <= 0 would deadlock on the first non-lockstep syscall
     (followers only consume released slots); it must be rejected at
     entry, not discovered as a hang. *)
  List.iter
    (fun cap ->
      List.iter
        (fun base ->
          Alcotest.check_raises
            (Printf.sprintf "capacity %d rejected" cap)
            (Invalid_argument "Nxe.run_traces: ring_capacity must be >= 1")
            (fun () ->
              ignore
                (Nxe.run_traces
                   ~config:{ base with Nxe.ring_capacity = cap }
                   ~names:(names 2)
                   [ basic_trace 20; basic_trace 20 ])))
        [ Nxe.default_config; Nxe.selective ])
    [ 0; -3 ]

let test_capacity_one_tightest_ring () =
  (* Capacity 1: at most one unconsumed slot in flight.  The run-ahead gap
     sampled at publish can reach 2 (the just-published slot plus the one
     being consumed) but never beyond, and the group still finishes. *)
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with ring_capacity = 1 }
      ~names:(names 2) (asymmetric_traces ())
  in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check bool)
    (Printf.sprintf "gap %d <= 2" r.Nxe.max_syscall_gap)
    true
    (r.Nxe.max_syscall_gap <= 2)

let test_strict_mode_keeps_slow_follower_close () =
  (* In strict mode the same asymmetric pair never drifts. *)
  let r = Nxe.run_traces ~config:Nxe.default_config ~names:(names 2) (asymmetric_traces ()) in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check bool) "gap <= 1" true (r.Nxe.max_syscall_gap <= 1)

(* ------------------------------------------------------------------ *)
(* Multithreading and execution groups *)

let mt_trace () =
  let worker tag =
    [
      work 20.0;
      Trace.Lock 0;
      work 5.0;
      Trace.Unlock 0;
      wr tag;
    ]
  in
  [ Trace.Spawn (worker 10); Trace.Spawn (worker 20) ] @ worker 0

let test_multithreaded_channels () =
  let r = run 2 (mt_trace ()) in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check int) "three channels" 3 r.Nxe.channels;
  Alcotest.(check int) "three writes synced" 3 r.Nxe.synced_syscalls

let test_weak_determinism_replays () =
  let r = run 2 (mt_trace ()) in
  (* Leader records 3 lock acquisitions; 1 follower replays all 3. *)
  Alcotest.(check int) "order list" 3 r.Nxe.order_list_length;
  Alcotest.(check int) "replays" 3 r.Nxe.det_replays

let test_weak_determinism_off () =
  let cfg = { Nxe.default_config with weak_determinism = false } in
  let r = run ~config:cfg 2 (mt_trace ()) in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check int) "no ordering recorded" 0 r.Nxe.order_list_length

let test_weak_determinism_costs () =
  (* Lock-heavy trace: weak determinism should add measurable overhead
     (the ~8.5% of §3.3, magnitude depends on lock frequency). *)
  let lock_heavy =
    List.concat (List.init 50 (fun _ -> [ Trace.Lock 0; work 2.0; Trace.Unlock 0 ]))
  in
  let on = run 2 lock_heavy in
  let off = run ~config:{ Nxe.default_config with weak_determinism = false } 2 lock_heavy in
  Alcotest.(check bool) "costs more" true (on.Nxe.total_time > off.Nxe.total_time)

let test_barrier_participates () =
  let worker = [ work 5.0; Trace.Barrier (0, 3) ] in
  let trace = [ Trace.Spawn worker; Trace.Spawn worker ] @ worker in
  let r = run 2 trace in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check int) "3 barrier arrivals ordered" 3 r.Nxe.order_list_length

let test_fork_new_execution_group () =
  let child = [ work 10.0; wr 77 ] in
  let trace = [ work 5.0; Trace.Fork child; work 5.0; wr 1 ] in
  let r = run 2 trace in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check int) "parent + child channels" 2 r.Nxe.channels;
  Alcotest.(check int) "both writes synced" 2 r.Nxe.synced_syscalls

let test_fork_child_divergence_detected () =
  let child_ok = [ work 10.0; wr 77 ] in
  let child_bad = [ work 10.0; wr 78 ] in
  let leader = [ Trace.Fork child_ok; wr 1 ] in
  let follower = [ Trace.Fork child_bad; wr 1 ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "child divergence aborts" r

let test_daemon_style_processes_independent () =
  (* Server pattern: children handle different "connections" concurrently;
     each child pair synchronizes on its own channel. *)
  let child i = [ work 10.0; wr i ] in
  let trace = List.init 4 (fun i -> Trace.Fork (child i)) @ [ work 1.0 ] in
  let r = run 3 trace in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check int) "five channels" 5 r.Nxe.channels

(* ------------------------------------------------------------------ *)
(* Scalability shape *)

let test_more_variants_more_overhead () =
  let trace = basic_trace 30 in
  let mcfg cores = { M.default_config with cores; llc_capacity = 8.0 } in
  let time n =
    (Nxe.run_traces ~machine_config:(mcfg 12) ~working_sets:(List.init n (fun _ -> 4.0))
       ~names:(names n)
       (List.init n (fun _ -> trace)))
      .Nxe.total_time
  in
  let t2 = time 2 and t4 = time 4 and t8 = time 8 in
  Alcotest.(check bool) (Printf.sprintf "t2=%.0f <= t4=%.0f" t2 t4) true (t2 <= t4 +. 1e-6);
  Alcotest.(check bool) (Printf.sprintf "t4=%.0f <= t8=%.0f" t4 t8) true (t4 <= t8 +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Random structured traces (the kit's ops: work, syscalls, locked
   sections; spawned threads): the engine's liveness and
   no-false-positive guarantees on identical variants. *)
let prop_random_traces_identical_clean =
  QCheck.Test.make ~name:"nxe: random identical variants stay clean" ~count:60 ops (fun ops ->
      let t = trace_of_ops ops in
      let strict = run 3 t in
      let sel = run ~config:Nxe.selective 3 t in
      finished strict.Nxe.outcome && finished sel.Nxe.outcome)

let prop_random_threaded_traces_clean =
  QCheck.Test.make ~name:"nxe: random threaded variants stay clean" ~count:40 ops (fun ops ->
      let t = trace_of_ops ops in
      finished (run 2 (Trace.Spawn t :: t)).Nxe.outcome)

let prop_identical_variants_never_alert =
  QCheck.Test.make ~name:"nxe: identical variants never alert" ~count:40
    QCheck.(pair (int_range 1 4) (int_range 1 15))
    (fun (n, units) ->
      let trace = List.concat (List.init units (fun i -> [ work 5.0; wr i ])) in
      finished (run n trace).Nxe.outcome)

let prop_divergent_args_always_alert =
  QCheck.Test.make ~name:"nxe: any arg difference alerts" ~count:40
    QCheck.(pair (int_range 0 9) small_int)
    (fun (pos, salt) ->
      let mk tag =
        List.concat
          (List.init 10 (fun i ->
               [ work 2.0; wr (if i = pos then tag else i) ]))
      in
      let r = Nxe.run_traces ~names:(names 2) [ mk 1000; mk (1001 + salt) ] in
      match r.Nxe.outcome with `Aborted a -> a.Nxe.al_position = pos | `All_finished -> false)

(* Strict and selective lockstep must reach the same divergence verdict on
   the same traces: selective mode changes WHEN the leader may run ahead,
   never WHAT counts as a divergence, so an injected argument perturbation
   aborts both modes with the same verdict — and a clean corpus aborts
   neither. *)
let prop_strict_selective_same_verdict =
  QCheck.Test.make ~name:"nxe: strict and selective agree on the verdict" ~count:60
    QCheck.(triple ops (int_range 0 20) bool)
    (fun (ops, k, clean) ->
      let base = trace_of_ops ops in
      let follower = if clean then base else Trace.perturb_syscall ~k base in
      let run cfg = Nxe.run_traces ~config:cfg ~names:(names 2) [ base; follower ] in
      verdict (run Nxe.default_config).Nxe.outcome = verdict (run Nxe.selective).Nxe.outcome)

(* ------------------------------------------------------------------ *)
(* Fixed cost of a group run.  The histogram bounds are shared by every
   run; the lock and shared-counter tables are made on a process's first
   op that uses them.  These tests pin that nothing else is shared, and
   that a restart still starts the victim from fresh tables. *)

(* Two threads that each take lock 1, bump shared counter 7 and write its
   value, four times. *)
let locked_counter_trace () =
  let step tag =
    [
      Trace.Lock 1;
      Trace.Incr 7;
      Trace.Sys_shared (Sc.write ~args:[ 1L; tag ] (), 7);
      Trace.Unlock 1;
      work 3.0;
    ]
  in
  let worker base = List.concat (List.init 4 (fun i -> step (Int64.of_int (base + i)))) in
  Trace.Spawn (worker 100) :: worker 0

let test_back_to_back_runs () =
  let a () = Nxe.report_signature (run ~config:Nxe.selective 3 (locked_counter_trace ())) in
  let first = a () in
  (* B exits holding lock 1 with counter 7 at 1: a table kept from B
     would block A's first lock or shift its written values. *)
  let b =
    run 2
      [ work 2.0; Trace.Lock 1; Trace.Incr 7; Trace.Sys_shared (Sc.write ~args:[ 1L; 0L ] (), 7) ]
  in
  Alcotest.(check bool) "B finished" true (finished b.Nxe.outcome);
  Alcotest.(check string) "A again" first (a ())

(* The victim dies at its fourth write, holding lock 1 with counter 7
   bumped.  The restart must give it a fresh lock table and fresh
   counters, or its replay blocks on the held lock or diverges.  The
   pinned signature is the one the engine gave when it built both tables
   at thread start. *)
let test_restart_fresh_tables () =
  let config =
    {
      Nxe.default_config with
      fault_policy =
        { Nxe.policy = Nxe.Restart_once; heartbeat_timeout = infinity; restart_backoff = 20.0 };
    }
  in
  let faults = Faults.make [ { Faults.i_variant = 2; i_at = 3; i_kind = Faults.Die } ] in
  let r =
    Nxe.run_traces ~config ~faults ~names:(names 3)
      (List.init 3 (fun _ -> locked_counter_trace ()))
  in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check bool) "victim recovered" true
    (match List.nth r.Nxe.variant_status 2 with Nxe.Recovered _ -> true | _ -> false);
  Alcotest.(check string) "signature"
    "finished t=0x1.88p+6 syn=8 exe=8 lock=8 gap=0x0p+0/0 ord=8 rep=20 ch=2 \
     fin=[0x1.db3333333332fp+5;0x1.df3333333332fp+5;0x1.88p+6;] \
     cpu=[0x1.27fffffffffffp+6;0x1.e6cccccccccccp+5;0x1.6c99999999999p+6;] \
     st=[H;H;R@0x1.4999999999997p+5->0x1.88p+6(<benign death>);] \
     hist=[syscall_gap:0x0p+0*8,0x1p+0*0,0x1p+1*0,0x1p+2*0,0x1p+3*0,0x1p+4*0,0x1p+5*0,\
     0x1p+6*0,0x1p+7*0,0x1p+8*0,infinity*0,;lockstep_wait_us:0x1p-1*6,0x1p+0*0,0x1p+1*5,\
     0x1.4p+2*10,0x1.4p+3*0,0x1.4p+4*0,0x1.9p+5*0,0x1.9p+6*0,0x1.9p+7*0,0x1.f4p+8*0,\
     0x1.f4p+9*0,0x1.388p+12*0,infinity*0,;heartbeat_wait_us:0x1p+0*0,0x1.4p+2*0,\
     0x1.4p+3*0,0x1.9p+4*0,0x1.9p+5*0,0x1.9p+6*0,0x1.f4p+7*0,0x1.f4p+8*0,0x1.f4p+9*0,\
     0x1.388p+12*0,0x1.388p+13*0,infinity*0,;]"
    (Nxe.report_signature r)

(* Minor words of one call, after a warm-up call. *)
let words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

let test_fixed_cost_bounded () =
  let at_most what bound w =
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f words <= %.0f" what w bound) true (w <= bound)
  in
  at_most "empty run" 2000.0
    (words (fun () -> Nxe.run_traces ~config:Nxe.selective ~names:(names 3) [ []; []; [] ]));
  let src =
    Serve.jittered ~jitter:0.3 ~seed:102
      (Serve.server_source ~n:3 Server.Lighttpd ~file_kb:1 ~connections:16)
  in
  let traces = src.Serve.src_request ~req_id:0 in
  at_most "lighttpd request" 2400.0
    (words (fun () -> Nxe.run_traces ~config:Nxe.selective ~names:src.Serve.src_names traces))

let () =
  Alcotest.run "bunshin_nxe"
    [
      ( "sync",
        [
          Alcotest.test_case "identical variants finish" `Quick test_identical_variants_finish;
          Alcotest.test_case "single variant" `Quick test_single_variant_degenerates;
          Alcotest.test_case "sync overhead small" `Quick test_sync_overhead_small;
          Alcotest.test_case "selective <= strict" `Quick test_selective_not_slower_than_strict;
          Alcotest.test_case "selective locksteps writes" `Quick test_selective_still_locksteps_writes;
          Alcotest.test_case "strict locksteps everything" `Quick test_strict_locksteps_everything;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "argument divergence" `Quick test_argument_divergence_detected;
          Alcotest.test_case "selective alert carries syscalls" `Quick
            test_selective_alert_carries_syscalls;
          Alcotest.test_case "sequence alert syscall content" `Quick
            test_sequence_alert_syscall_content;
          Alcotest.test_case "name divergence" `Quick test_syscall_name_divergence_detected;
          Alcotest.test_case "follower extra syscall" `Quick test_sequence_divergence_follower_extra;
          Alcotest.test_case "leader extra syscall" `Quick test_sequence_divergence_leader_extra;
          Alcotest.test_case "abort stops all" `Quick test_divergence_aborts_all_variants_quickly;
          Alcotest.test_case "third variant blamed" `Quick test_divergence_third_variant;
          Alcotest.test_case "killed variants" `Quick test_killed_variants;
          Alcotest.test_case "selective incident tape ends at divergence" `Quick
            test_selective_incident_tape_ends_at_divergence;
        ] );
      ( "sanitizer-syscalls",
        [
          Alcotest.test_case "memory class ignored" `Quick test_memory_syscalls_not_compared;
          Alcotest.test_case "vdso ignored" `Quick test_vdso_not_synchronized;
          Alcotest.test_case "pre-main/post-exit fenced" `Quick test_pre_main_and_post_exit_not_synchronized;
          Alcotest.test_case "different sanitizers no alert" `Quick test_differently_sanitized_builds_no_false_alert;
        ] );
      ( "ring",
        [
          Alcotest.test_case "strict gap <= 1" `Quick test_strict_gap_at_most_one;
          Alcotest.test_case "selective gap grows" `Quick test_selective_gap_can_grow;
          Alcotest.test_case "capacity bounds gap" `Quick test_ring_capacity_bounds_gap;
          Alcotest.test_case "capacity <= 0 rejected" `Quick test_ring_capacity_validated;
          Alcotest.test_case "capacity 1 tightest ring" `Quick test_capacity_one_tightest_ring;
          Alcotest.test_case "strict keeps follower close" `Quick test_strict_mode_keeps_slow_follower_close;
        ] );
      ( "groups",
        [
          Alcotest.test_case "multithreaded channels" `Quick test_multithreaded_channels;
          Alcotest.test_case "weak determinism replays" `Quick test_weak_determinism_replays;
          Alcotest.test_case "weak determinism off" `Quick test_weak_determinism_off;
          Alcotest.test_case "weak determinism costs" `Quick test_weak_determinism_costs;
          Alcotest.test_case "barrier participates" `Quick test_barrier_participates;
          Alcotest.test_case "fork new group" `Quick test_fork_new_execution_group;
          Alcotest.test_case "fork child divergence" `Quick test_fork_child_divergence_detected;
          Alcotest.test_case "daemon children independent" `Quick test_daemon_style_processes_independent;
        ] );
      ("scalability", [ Alcotest.test_case "monotone in N" `Quick test_more_variants_more_overhead ]);
      ( "properties",
        qcheck
          [
            prop_identical_variants_never_alert;
            prop_divergent_args_always_alert;
            prop_random_traces_identical_clean;
            prop_random_threaded_traces_clean;
            prop_strict_selective_same_verdict;
          ] );
      ( "fixed cost",
        [
          Alcotest.test_case "back-to-back runs" `Quick test_back_to_back_runs;
          Alcotest.test_case "restart fresh tables" `Quick test_restart_fresh_tables;
          Alcotest.test_case "words per run bounded" `Quick test_fixed_cost_bounded;
        ] );
    ]
