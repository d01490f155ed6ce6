(* Tests for the extension features: basic-block-granularity distribution
   (§6), layout diversification, attack-window exploitation, the appendix
   model, and profile serialization. *)

open Bunshin
module E = Experiments
module B = Builder

(* ------------------------------------------------------------------ *)
(* Basic-block granularity: cost-model level *)

let test_block_unit_naming () =
  Alcotest.(check string) "unit name" "f#3" (Program.block_unit "f" 3)

let test_variant_block_fraction () =
  let prog = (Spec.find "bzip2").Bench.prog in
  (* A variant holding 2 of hot's 4 block groups pays ~half its checks. *)
  let hot = "bzip2_hot" in
  let full = Program.full [ Sanitizer.asan ] prog in
  let none = Program.variant [ Sanitizer.asan ] ~checked:[] prog in
  let half =
    Program.variant [ Sanitizer.asan ] ~block_split:4
      ~checked:[ Program.block_unit hot 0; Program.block_unit hot 2 ]
      prog
  in
  let whole =
    Program.variant [ Sanitizer.asan ] ~block_split:4
      ~checked:(List.init 4 (Program.block_unit hot))
      prog
  in
  let t b = Trace_sum.total_work (Program.build_trace b ~seed:1) in
  Alcotest.(check bool) "none < half" true (t none < t half);
  Alcotest.(check bool) "half < whole" true (t half < t whole);
  Alcotest.(check bool) "whole < full" true (t whole < t full);
  (* The half variant sits about midway between none and whole. *)
  let mid = (t none +. t whole) /. 2.0 in
  Alcotest.(check bool) "half ~ midway" true (Float.abs (t half -. mid) /. mid < 0.02)

let test_block_split_plan_covers () =
  let prog = (Spec.find "hmmer").Bench.prog in
  let profile = List.map (fun f -> (f.Program.fn_name, 10.0)) prog.Program.funcs in
  let plan =
    Variant.check_distribution ~n:3 ~block_split:4 ~sanitizer:Sanitizer.asan
      ~overhead_profile:profile prog
  in
  Alcotest.(check bool) "coverage complete" true (Variant.coverage_complete plan);
  (* Units are disjoint across variants. *)
  let all =
    List.concat_map
      (fun s -> Option.value ~default:[] s.Variant.vs_checked_funcs)
      plan.Variant.pl_specs
  in
  Alcotest.(check int) "disjoint" (List.length (List.sort_uniq compare all)) (List.length all);
  Alcotest.(check int) "4 units per function" (4 * List.length prog.Program.funcs)
    (List.length all)

let test_block_split_fixes_outlier () =
  (* The §6 headline: hmmer distributes at block granularity. *)
  let bench = Spec.find "hmmer" in
  let func_level = E.check_distribution ~n:3 bench in
  let block_level = E.check_distribution ~n:3 ~block_split:8 bench in
  Alcotest.(check bool) "func-level stuck near full" true
    (func_level.E.cd_bunshin_overhead > 0.85 *. func_level.E.cd_full_overhead);
  Alcotest.(check bool) "block-level distributes" true
    (block_level.E.cd_bunshin_overhead < 0.60 *. block_level.E.cd_full_overhead)

(* ------------------------------------------------------------------ *)
(* Basic-block granularity: IR level (sink_filter) *)

let test_sink_filter_partitions_checks () =
  (* One function with two checked accesses; split its sinks across two
     variants and verify the union still covers both errors. *)
  let b = B.create "two-sites" in
  B.start_func b ~name:"main" ~params:[ "i"; "j" ];
  let p = B.call b "malloc" [ B.cst 4 ] in
  B.store b (B.cst 1) (B.gep b p (Ir.Reg "i"));
  B.store b (B.cst 2) (B.gep b p (Ir.Reg "j"));
  B.ret b None;
  let m = B.finish b in
  let inst = Instrument.apply_exn [ Sanitizer.asan ] m in
  let sinks = Slicer.discover inst in
  Alcotest.(check int) "two sinks" 2 (List.length sinks);
  let s0 = List.nth sinks 0 and s1 = List.nth sinks 1 in
  let va = Slicer.remove_checks ~sink_filter:(fun s -> s = s1) inst in
  let vb = Slicer.remove_checks ~sink_filter:(fun s -> s = s0) inst in
  Alcotest.(check int) "va keeps one" 1 (List.length (Slicer.discover va));
  Alcotest.(check int) "vb keeps one" 1 (List.length (Slicer.discover vb));
  let detected m args =
    match (Interp.run m ~entry:"main" ~args).Interp.outcome with
    | Interp.Detected _ -> true
    | _ -> false
  in
  (* Overflow at the first site (i=4) vs second site (j=4). *)
  let first = [ 4L; 0L ] and second = [ 0L; 4L ] in
  Alcotest.(check bool) "union covers first" true (detected va first || detected vb first);
  Alcotest.(check bool) "union covers second" true (detected va second || detected vb second);
  Alcotest.(check bool) "each variant misses one" true
    ((not (detected va first && detected va second))
    && not (detected vb first && detected vb second))

(* ------------------------------------------------------------------ *)
(* Layout diversification *)

let test_layout_changes_addresses () =
  let m = Nvariant.demo_modul () in
  let a1 = Interp.address_of_global ~config:{ Interp.default_config with layout_seed = 1 } m "dispatch_table" in
  let a2 = Interp.address_of_global ~config:{ Interp.default_config with layout_seed = 2 } m "dispatch_table" in
  let a0 = Interp.address_of_global m "dispatch_table" in
  Alcotest.(check bool) "layouts differ" true (a1 <> a2);
  Alcotest.(check bool) "seed 0 is fixed" true (a0 = Interp.address_of_global m "dispatch_table")

let test_layout_preserves_behaviour () =
  (* Benign runs are layout-independent in observable events. *)
  let m = Nvariant.demo_modul () in
  let run seed =
    Interp.run ~config:{ Interp.default_config with layout_seed = seed } m ~entry:"main"
      ~args:[ 0L; 0L ]
  in
  Alcotest.(check bool) "same events" true (Interp.events_equal (run 5) (run 9))

let test_nvariant_detects () =
  let v = Nvariant.evaluate () in
  Alcotest.(check bool) "A hijacked" true v.Nvariant.nv_hijacked_a;
  Alcotest.(check bool) "B not hijacked" false v.Nvariant.nv_hijacked_b;
  Alcotest.(check bool) "diverged" true v.Nvariant.nv_diverged;
  Alcotest.(check bool) "detected" true v.Nvariant.nv_detected;
  Alcotest.(check bool) "benign clean" true v.Nvariant.nv_benign_clean

let test_nvariant_control () =
  Alcotest.(check bool) "single layout escapes" true (Nvariant.single_layout_escapes ())

let test_nvariant_seed_pairs () =
  (* The defense holds across several layout pairs. *)
  List.iter
    (fun (a, b) ->
      let v = Nvariant.evaluate ~seed_a:a ~seed_b:b () in
      Alcotest.(check bool) (Printf.sprintf "detected %d/%d" a b) true v.Nvariant.nv_detected)
    [ (1, 2); (7, 13); (100, 200) ]

(* ------------------------------------------------------------------ *)
(* Attack window *)

let test_window_strict_zero () =
  List.iter
    (fun payload ->
      let w = Window.run ~mode:Nxe.default_config ~payload () in
      Alcotest.(check int) "nothing executes" 0 w.Window.wr_executed;
      Alcotest.(check bool) "detected" true w.Window.wr_detected)
    [ Window.Reads; Window.Writes ]

let test_window_selective_writes_blocked () =
  let w = Window.run ~mode:Nxe.selective ~payload:Window.Writes () in
  Alcotest.(check int) "exfiltration blocked" 0 w.Window.wr_executed;
  Alcotest.(check bool) "detected" true w.Window.wr_detected

let test_window_selective_reads_leak () =
  (* Under-capacity: every read-class payload syscall executes before the
     healthy follower's divergence aborts the group.  Executed-payload
     accounting counts released slots, so this is exact, not a bound. *)
  let w = Window.run ~mode:Nxe.selective ~payload:Window.Reads ~n_malicious:16 () in
  Alcotest.(check int) "all 16 execute" 16 w.Window.wr_executed;
  Alcotest.(check bool) "still detected" true w.Window.wr_detected

let test_window_capacity_bounds_damage () =
  (* Over-capacity: the leader executes exactly [ring_capacity] payload
     syscalls and then blocks publishing the next one — the last published
     slot is still waiting on capacity when the abort lands, so it never
     reaches the kernel.  (The old synced-minus-prefix arithmetic counted
     that blocked slot as executed: an off-by-one in the attack window.) *)
  List.iter
    (fun cap ->
      let w =
        Window.run
          ~mode:{ Nxe.selective with Nxe.ring_capacity = cap }
          ~payload:Window.Reads ~n_malicious:32 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "exactly ring_capacity=%d execute" cap)
        cap w.Window.wr_executed;
      Alcotest.(check bool) "detected" true w.Window.wr_detected)
    [ 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Shared-memory races vs weak determinism (5.1's unsupported PARSEC
   members, demonstrated operationally) *)

(* Two threads, each: work; [lock] incr counter; syscall exposing it
   [unlock].  Work costs differ per variant, so without ordering the
   variants interleave differently. *)
let shared_trace ~locked ~t1_work ~t2_work =
  let thread work =
    let critical =
      [ Trace.Incr 0; Trace.Sys_shared (Bunshin.Syscall.read ~args:[ 3L ] (), 0) ]
    in
    Trace.Work { func = "f"; cost = work }
    ::
    (if locked then (Trace.Lock 0 :: critical) @ [ Trace.Unlock 0 ] else critical)
  in
  [ Trace.Spawn (thread t1_work) ] @ thread t2_work

let run_shared ~locked ~weak_det =
  (* Selective mode: a leader thread publishing inside a critical section
     does not block there, so the test isolates ordering effects from
     lockstep-vs-lock interleaving deadlocks. *)
  let config = { Nxe.selective with Nxe.weak_determinism = weak_det } in
  (* Variant 0: the spawned thread is fast; variant 1: it is slow (and the
     spawn itself costs a clone syscall, so the asymmetry must be large). *)
  let v0 = shared_trace ~locked ~t1_work:5.0 ~t2_work:60.0 in
  let v1 = shared_trace ~locked ~t1_work:60.0 ~t2_work:5.0 in
  let r = Nxe.run_traces ~config ~names:[ "v0"; "v1" ] [ v0; v1 ] in
  match r.Nxe.outcome with `All_finished -> `Clean | `Aborted _ -> `Alert

let test_race_free_with_weak_determinism () =
  (* Lock-ordered shared accesses replay identically: no false alert even
     though the variants' schedules differ. *)
  Alcotest.(check bool) "clean" true (run_shared ~locked:true ~weak_det:true = `Clean)

let test_race_free_without_weak_determinism_diverges () =
  (* Same race-free program, ordering enforcement off: the variants commit
     the lock-ordered updates in different orders and the NXE (rightly)
     cannot tell this apart from an attack. *)
  Alcotest.(check bool) "false alert" true (run_shared ~locked:true ~weak_det:false = `Alert)

let test_racy_program_diverges_regardless () =
  (* canneal/facesim/ferret/x264: intentional races bypass the pthreads
     API, so weak determinism cannot help — the paper's 5.1 exclusions. *)
  Alcotest.(check bool) "false alert" true (run_shared ~locked:false ~weak_det:true = `Alert)

(* ------------------------------------------------------------------ *)
(* Asynchronous signal delivery at equivalent points *)

let signal_body = List.concat (List.init 6 (fun i -> [ Kit.work 40.0; Kit.rd i ]))

let sigusr1_handler =
  [
    Trace.Work { func = "handler"; cost = 2.0 };
    Trace.Sys (Bunshin.Syscall.write ~args:[ 2L; 911L ] ());
  ]

let test_signal_delivered_to_all_variants () =
  (* The handler's write syscall enters the synchronized stream; if any
     follower failed to run the handler at the same position, the stream
     would diverge. *)
  let r =
    Nxe.run_traces
      ~signals:[ (100.0, sigusr1_handler) ]
      ~names:[ "v0"; "v1"; "v2" ]
      [ signal_body; signal_body; signal_body ]
  in
  Alcotest.(check bool) "no divergence" true (r.Nxe.outcome = `All_finished);
  (* 6 reads + 1 delivery marker + 1 handler write. *)
  Alcotest.(check int) "stream length" 8 r.Nxe.synced_syscalls

let test_multiple_signals () =
  let r =
    Nxe.run_traces
      ~signals:[ (50.0, sigusr1_handler); (150.0, sigusr1_handler) ]
      ~names:[ "v0"; "v1" ] [ signal_body; signal_body ]
  in
  Alcotest.(check bool) "clean" true (r.Nxe.outcome = `All_finished);
  Alcotest.(check int) "two deliveries" 10 r.Nxe.synced_syscalls

let test_signal_in_selective_mode () =
  let r =
    Nxe.run_traces ~config:Nxe.selective
      ~signals:[ (100.0, sigusr1_handler) ]
      ~names:[ "v0"; "v1" ] [ signal_body; signal_body ]
  in
  Alcotest.(check bool) "clean" true (r.Nxe.outcome = `All_finished)

let test_no_signal_is_baseline () =
  let r = Nxe.run_traces ~names:[ "v0"; "v1" ] [ signal_body; signal_body ] in
  Alcotest.(check int) "six syscalls" 6 r.Nxe.synced_syscalls

(* ------------------------------------------------------------------ *)
(* Shared-memory propagation (§3.3's poisoned-page mechanism) *)

(* Read an externally-written shared mapping, then expose the value read
   through a syscall argument.  Without propagation the followers see their
   stale local copy and diverge. *)
let shared_mapping_trace () =
  [
    Trace.Work { func = "f"; cost = 10.0 };
    Trace.Shared_read { region = 3; counter = 0 };
    Trace.Sys_shared (Bunshin.Syscall.write ~args:[ 1L ] (), 0);
    Trace.Work { func = "f"; cost = 5.0 };
    Trace.Shared_read { region = 3; counter = 0 };
    Trace.Sys_shared (Bunshin.Syscall.write ~args:[ 1L ] (), 0);
  ]

let run_shared_mapping ~propagate =
  let config = { Nxe.default_config with Nxe.sync_shared_memory = propagate } in
  let t = shared_mapping_trace () in
  Nxe.run_traces ~config ~names:[ "v0"; "v1"; "v2" ] [ t; t; t ]

let test_shared_memory_propagation_clean () =
  let r = run_shared_mapping ~propagate:true in
  Alcotest.(check bool) "no divergence" true (r.Nxe.outcome = `All_finished);
  (* Two page-fault slots + two exposed writes per run. *)
  Alcotest.(check int) "4 synced" 4 r.Nxe.synced_syscalls

let test_shared_memory_without_propagation_diverges () =
  let r = run_shared_mapping ~propagate:false in
  Alcotest.(check bool) "diverges on stale copy" true
    (match r.Nxe.outcome with `Aborted _ -> true | `All_finished -> false)

let test_shared_memory_values_progress () =
  (* The world writes fresh values between accesses: the leader's two reads
     observe different contents (the 7k+region sequence), and followers
     adopt exactly those. *)
  let p =
    {
      Program.name = "shm";
      funcs = [ { Program.fn_name = "f"; fn_profile = Cost_model.typical_profile } ];
      working_set = 1.0;
      gen_trace = (fun _ -> shared_mapping_trace ());
    }
  in
  let prof = Profile.measure (Program.baseline p) ~seed:1 in
  Alcotest.(check bool) "solo run works" true (prof.Profile.total_time > 0.0)

(* ------------------------------------------------------------------ *)
(* Appendix model *)

(* Eq. 1 on a real measurement: the group's overhead is the slowest
   variant's plus a synchronization term, O = max O_Vi + O_sync. *)
let bzip2_distribution = lazy (E.check_distribution ~n:3 (Spec.find "bzip2"))

let test_model_eq1 () =
  (* Synchronized execution never beats its slowest member. *)
  let r = Lazy.force bzip2_distribution in
  Alcotest.(check bool) "total >= max variant" true
    (r.E.cd_bunshin_overhead +. 0.02 >= Stats.maximum r.E.cd_variant_overheads)

let test_model_imbalance () =
  (* Eq. 4, normalized per bin, as the distributions compute it. *)
  let split ws =
    Partition.lpt 2 (List.mapi (fun i w -> { Partition.label = string_of_int i; weight = w }) ws)
  in
  Alcotest.(check (float 1e-9)) "balanced" 0.0 (Partition.imbalance (split [ 0.4; 0.4 ]));
  Alcotest.(check (float 1e-9)) "eq4" 0.1 (Partition.imbalance (split [ 0.3; 0.5 ]))

let test_model_validates_measurement () =
  let r = Lazy.force bzip2_distribution in
  let sync = r.E.cd_bunshin_overhead -. Stats.maximum r.E.cd_variant_overheads in
  Alcotest.(check bool) (Printf.sprintf "sync %.3f in [0, 0.35]" sync) true
    (sync >= -0.02 && sync <= 0.35)

(* ------------------------------------------------------------------ *)
(* The bridge: IR variants under the real NXE *)

let bridge_cve () = List.hd Bunshin.Cve.cases

let test_bridge_benign_runs_clean () =
  let case = bridge_cve () in
  let r =
    Bunshin.Bridge.run_ir_variants ~entry:case.Bunshin.Cve.c_entry
      ~args:case.Bunshin.Cve.c_benign (Bunshin.Cve.variants case)
  in
  Alcotest.(check bool) "no divergence on benign input" true (r.Nxe.outcome = `All_finished);
  Alcotest.(check bool) "some syscalls synced" true (r.Nxe.synced_syscalls > 0)

let test_bridge_exploit_aborts_under_nxe () =
  (* The full-stack 5.3 story: the checked variant's ASan report write is
     an extra syscall the unchecked variant never issues; the engine
     aborts the group. *)
  let case = bridge_cve () in
  let r =
    Bunshin.Bridge.run_ir_variants ~entry:case.Bunshin.Cve.c_entry
      ~args:case.Bunshin.Cve.c_exploit_args (Bunshin.Cve.variants case)
  in
  Alcotest.(check bool) "monitor aborts" true
    (match r.Nxe.outcome with `Aborted _ -> true | `All_finished -> false)

let test_bridge_trace_shape () =
  let case = bridge_cve () in
  let run =
    Interp.run case.Bunshin.Cve.c_modul ~entry:case.Bunshin.Cve.c_entry
      ~args:case.Bunshin.Cve.c_benign
  in
  let t = Bunshin.Bridge.trace_of_run run in
  Alcotest.(check int) "one syscall per event" (List.length run.Interp.events)
    (Trace_sum.syscall_count t);
  Alcotest.(check bool) "has compute" true (Trace_sum.total_work t > 0.0)

(* ------------------------------------------------------------------ *)
(* §5.7 memory model *)

let test_ram_check_distribution_not_reduced () =
  let prog = (Spec.find "bzip2").Bench.prog in
  let full = Program.build_ram_overhead (Program.full [ Sanitizer.asan ] prog) in
  let partial =
    Program.build_ram_overhead (Program.variant [ Sanitizer.asan ] ~checked:[] prog)
  in
  (* The shadow stays whole no matter how few checks the variant keeps. *)
  Alcotest.(check (float 1e-9)) "same RAM" full partial;
  Alcotest.(check bool) "substantial" true (full >= 1.5)

let test_ram_sanitizer_distribution_splits () =
  let prog = (Spec.find "bzip2").Bench.prog in
  let full = Program.build_ram_overhead (Program.full Sanitizer.ubsan_subs prog) in
  match
    Variant.sanitizer_distribution ~n:3
      ~units:(List.map (fun s -> ([ s ], 0.1)) Sanitizer.ubsan_subs)
      prog
  with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    let rams = List.map Program.build_ram_overhead (Variant.builds plan) in
    Alcotest.(check bool) "max variant well below full" true
      (Stats.maximum rams < 0.6 *. full);
    Alcotest.(check (float 1e-9)) "total conserved" full (Stats.sum rams)

(* ------------------------------------------------------------------ *)
(* Profile serialization *)

let test_profile_roundtrip () =
  let p = Profile.measure (Program.baseline (Spec.find "bzip2").Bench.prog) ~seed:1 in
  match Profile.of_string (Profile.to_string p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    Alcotest.(check string) "name" p.Profile.prog_name p'.Profile.prog_name;
    Alcotest.(check (float 1e-3)) "total" p.Profile.total_time p'.Profile.total_time;
    Alcotest.(check int) "funcs" (List.length (Lazy.force p.Profile.by_func))
      (List.length (Lazy.force p'.Profile.by_func))

let test_profile_rejects_garbage () =
  Alcotest.(check bool) "bad input" true (Result.is_error (Profile.of_string "nonsense"));
  Alcotest.(check bool) "bad number" true
    (Result.is_error (Profile.of_string "program\tx\ntotal\tnot-a-float\n"))

let () =
  Alcotest.run "bunshin_extensions"
    [
      ( "block-granularity",
        [
          Alcotest.test_case "unit naming" `Quick test_block_unit_naming;
          Alcotest.test_case "cost fractions" `Quick test_variant_block_fraction;
          Alcotest.test_case "plan covers" `Quick test_block_split_plan_covers;
          Alcotest.test_case "fixes outlier" `Slow test_block_split_fixes_outlier;
          Alcotest.test_case "ir sink filter" `Quick test_sink_filter_partitions_checks;
        ] );
      ( "layout-diversification",
        [
          Alcotest.test_case "addresses differ" `Quick test_layout_changes_addresses;
          Alcotest.test_case "behaviour preserved" `Quick test_layout_preserves_behaviour;
          Alcotest.test_case "detects hijack" `Quick test_nvariant_detects;
          Alcotest.test_case "single-layout control" `Quick test_nvariant_control;
          Alcotest.test_case "several seed pairs" `Quick test_nvariant_seed_pairs;
        ] );
      ( "attack-window",
        [
          Alcotest.test_case "strict executes nothing" `Quick test_window_strict_zero;
          Alcotest.test_case "selective blocks writes" `Quick test_window_selective_writes_blocked;
          Alcotest.test_case "selective leaks reads" `Quick test_window_selective_reads_leak;
          Alcotest.test_case "capacity bounds damage" `Quick test_window_capacity_bounds_damage;
        ] );
      ( "signals",
        [
          Alcotest.test_case "delivered to all variants" `Quick
            test_signal_delivered_to_all_variants;
          Alcotest.test_case "multiple signals" `Quick test_multiple_signals;
          Alcotest.test_case "selective mode" `Quick test_signal_in_selective_mode;
          Alcotest.test_case "no signal baseline" `Quick test_no_signal_is_baseline;
        ] );
      ( "shared-memory",
        [
          Alcotest.test_case "propagation keeps variants consistent" `Quick
            test_shared_memory_propagation_clean;
          Alcotest.test_case "stale copies diverge" `Quick
            test_shared_memory_without_propagation_diverges;
          Alcotest.test_case "solo semantics" `Quick test_shared_memory_values_progress;
        ] );
      ( "weak-determinism-races",
        [
          Alcotest.test_case "race-free + ordering: clean" `Quick
            test_race_free_with_weak_determinism;
          Alcotest.test_case "ordering off: diverges" `Quick
            test_race_free_without_weak_determinism_diverges;
          Alcotest.test_case "racy: diverges regardless" `Quick
            test_racy_program_diverges_regardless;
        ] );
      ( "model",
        [
          Alcotest.test_case "eq1" `Quick test_model_eq1;
          Alcotest.test_case "imbalance" `Quick test_model_imbalance;
          Alcotest.test_case "validates measurement" `Quick test_model_validates_measurement;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "benign clean under NXE" `Quick test_bridge_benign_runs_clean;
          Alcotest.test_case "exploit aborts under NXE" `Quick test_bridge_exploit_aborts_under_nxe;
          Alcotest.test_case "trace shape" `Quick test_bridge_trace_shape;
        ] );
      ( "memory-model",
        [
          Alcotest.test_case "check distribution keeps shadow" `Quick
            test_ram_check_distribution_not_reduced;
          Alcotest.test_case "sanitizer distribution splits RAM" `Quick
            test_ram_sanitizer_distribution_splits;
        ] );
      ( "profile-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_profile_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_profile_rejects_garbage;
        ] );
    ]
