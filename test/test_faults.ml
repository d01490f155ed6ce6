(* Tests for the fault-tolerant NXE: deterministic fault injection
   (Bunshin_faults), hung/crashed-variant detection, quarantine with N−1
   degradation, restart, and the fail-stop policy.  Companion to
   test_nxe.ml, which covers the fault-free engine. *)

module Nxe = Bunshin_nxe.Nxe
module Faults = Bunshin_faults.Faults
module F = Bunshin_forensics.Forensics

open Kit

let policy ?(hb = 100.0) ?(backoff = 20.0) p =
  { Nxe.policy = p; heartbeat_timeout = hb; restart_backoff = backoff }

let config ?hb ?backoff p =
  { Nxe.default_config with fault_policy = policy ?hb ?backoff p }

let run ?(n = 3) ?(coverage = coverage3) ~config ~faults () =
  Nxe.run_traces ~config ~faults ~coverage ~names:(names n)
    (List.init n (fun _ -> chaos_trace ()))

let die_v2 = Faults.make [ { Faults.i_variant = 2; i_at = 7; i_kind = Faults.Die } ]

let check_time = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Plans *)

let test_plan_deterministic () =
  let p1 = Faults.plan ~seed:7 ~variants:3 ~count:10 () in
  let p2 = Faults.plan ~seed:7 ~variants:3 ~count:10 () in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check int) "count honoured" 10 (List.length p1.Faults.p_injections);
  List.iter
    (fun i ->
      Alcotest.(check bool) "followers only" true (i.Faults.i_variant >= 1);
      Alcotest.(check bool) "victim in range" true (i.Faults.i_variant < 3);
      Alcotest.(check bool) "ordinal in range" true
        (i.Faults.i_at >= 0 && i.Faults.i_at < 8))
    p1.Faults.p_injections;
  (* Across a pool of seeds the stream must actually vary. *)
  let plans = List.init 16 (fun s -> Faults.plan ~seed:s ~variants:4 ~count:4 ()) in
  Alcotest.(check bool) "seeds differ" true
    (List.length (List.sort_uniq compare plans) > 1)

let test_plan_validation () =
  Alcotest.(check bool) "variants >= 2" true
    (invalid (fun () -> Faults.plan ~seed:0 ~variants:1 ()));
  Alcotest.(check bool) "syscalls >= 1" true
    (invalid (fun () -> Faults.plan ~seed:0 ~variants:3 ~syscalls:0 ()));
  Alcotest.(check bool) "count >= 0" true
    (invalid (fun () -> Faults.plan ~seed:0 ~variants:3 ~count:(-1) ()));
  Alcotest.(check bool) "describe is human" true
    (String.length (Faults.describe { Faults.i_variant = 2; i_at = 4; i_kind = Faults.Stall }) > 0)

let test_run_validation () =
  let bad_victim = Faults.make [ { Faults.i_variant = 9; i_at = 0; i_kind = Faults.Die } ] in
  Alcotest.(check bool) "victim out of range" true
    (invalid (fun () -> run ~config:(config Nxe.Quarantine) ~faults:bad_victim ()));
  Alcotest.(check bool) "negative heartbeat" true
    (invalid (fun () -> run ~config:(config ~hb:(-1.0) Nxe.Quarantine) ~faults:stall_v1 ()));
  Alcotest.(check bool) "negative backoff" true
    (invalid (fun () ->
         run ~config:(config ~backoff:(-5.0) Nxe.Restart_once) ~faults:stall_v1 ()));
  Alcotest.(check bool) "coverage length" true
    (invalid (fun () ->
         run ~coverage:[ [ "asan" ] ] ~config:(config Nxe.Quarantine) ~faults:stall_v1 ()))

(* ------------------------------------------------------------------ *)
(* Quarantine: hung variant detected by heartbeat, N−1 keep running *)

let test_stall_quarantine () =
  let r = run ~config:(config Nxe.Quarantine) ~faults:stall_v1 () in
  Alcotest.(check bool) "group finished without v1" true (finished r.Nxe.outcome);
  Alcotest.(check (list int)) "v1 quarantined" [ 1 ] (Nxe.quarantined_variants r);
  (match List.nth r.Nxe.variant_status 1 with
  | Nxe.Quarantined { q_time; q_cause = Nxe.Missed_heartbeat silence; q_restarts } ->
      check_time "detected at the watchdog sweep" 150.0 q_time;
      Alcotest.(check bool) "observed silence >= timeout" true (silence >= 100.0);
      Alcotest.(check int) "no restarts under Quarantine" 0 q_restarts
  | _ -> Alcotest.fail "expected Quarantined/Missed_heartbeat");
  (* The survivors executed their FULL streams: degradation, not abort. *)
  Alcotest.(check int) "leader executed everything" chaos_units r.Nxe.executed_syscalls;
  check_time "run ends when the survivors do" 203.0 r.Nxe.total_time;
  (* One benign Fault_isolation incident, none fatal. *)
  Alcotest.(check int) "one incident" 1 (List.length r.Nxe.fault_incidents);
  Alcotest.(check bool) "no abort incident" true (r.Nxe.incident = None);
  (* asan+ubsan (v0) ∪ msan+lowfat (v2) still covers v1's asan+msan. *)
  Alcotest.(check (list string)) "no coverage lost" [] r.Nxe.coverage_loss;
  (* The watchdog histogram saw real sweeps. *)
  let hb_samples =
    match List.assoc_opt "heartbeat_wait_us" r.Nxe.histograms with
    | Some buckets -> List.fold_left (fun a (_, c) -> a + c) 0 buckets
    | None -> 0
  in
  Alcotest.(check bool) "heartbeat histogram populated" true (hb_samples > 0)

let test_quarantine_incident_forensics () =
  let r = run ~config:(config Nxe.Quarantine) ~faults:stall_v1 () in
  match r.Nxe.fault_incidents with
  | [ inc ] ->
      Alcotest.(check bool) "classified as fault isolation" true
        (inc.F.inc_mismatch = F.Fault_isolation);
      Alcotest.(check bool) "victim blamed" true (inc.F.inc_blamed = 1);
      Alcotest.(check bool) "text mentions fault isolation" true
        (let t = String.lowercase_ascii (F.to_text inc) in
         let needle = "fault isolation" in
         let n = String.length needle in
         let rec has i = i + n <= String.length t && (String.sub t i n = needle || has (i + 1)) in
         has 0);
      Alcotest.(check bool) "incident roundtrips json" true
        (F.of_json (F.to_json inc) = Ok inc)
  | l -> Alcotest.failf "expected exactly one incident, got %d" (List.length l)

(* A follower that dies before the leader's first publish leaves no live
   follower at any publish: each one observes gap -1, and the report's
   max gap stays at its floor of 0. *)
let test_gap_without_live_follower () =
  let trace ~lead =
    List.concat
      (List.init chaos_units (fun i -> [ work (if lead && i = 0 then 50.0 else 5.0); rd i ]))
  in
  let faults = Faults.make [ { Faults.i_variant = 1; i_at = 0; i_kind = Faults.Die } ] in
  let r =
    Nxe.run_traces ~config:(config Nxe.Quarantine) ~faults ~names:(names 2)
      [ trace ~lead:true; trace ~lead:false ]
  in
  Alcotest.(check bool) "leader finished" true (finished r.Nxe.outcome);
  Alcotest.(check (list int)) "v1 quarantined" [ 1 ] (Nxe.quarantined_variants r);
  check_time "mean gap" (-1.0) r.Nxe.avg_syscall_gap;
  Alcotest.(check int) "max gap floored" 0 r.Nxe.max_syscall_gap

let test_die_quarantine_loses_coverage () =
  let r = run ~config:(config Nxe.Quarantine) ~faults:die_v2 () in
  Alcotest.(check bool) "group finished without v2" true (finished r.Nxe.outcome);
  Alcotest.(check (list int)) "v2 quarantined" [ 2 ] (Nxe.quarantined_variants r);
  (match List.nth r.Nxe.variant_status 2 with
  | Nxe.Quarantined { q_cause = Nxe.Benign_death; _ } -> ()
  | _ -> Alcotest.fail "expected Quarantined/Benign_death");
  (* v2 was the only lowfat carrier: its retirement is a measurable hole. *)
  Alcotest.(check (list string)) "lowfat lost" [ "lowfat" ] r.Nxe.coverage_loss;
  Alcotest.(check int) "leader unaffected" chaos_units r.Nxe.executed_syscalls

(* ------------------------------------------------------------------ *)
(* Abort_on_fault: fail-stop on the same seed *)

let test_stall_abort_on_fault () =
  let r = run ~config:(config Nxe.Abort_on_fault) ~faults:stall_v1 () in
  (match r.Nxe.outcome with
  | `Aborted a -> Alcotest.(check int) "hung variant named" 1 a.Nxe.al_variant
  | `All_finished -> Alcotest.fail "fail-stop policy must abort");
  (* The abort cuts the leader short: only the pre-fault window ran. *)
  Alcotest.(check bool) "leader stopped early" true (r.Nxe.executed_syscalls < chaos_units);
  check_time "torn down at detection" 150.0 r.Nxe.total_time;
  (* Fatal faults go in report.incident, not the benign list. *)
  Alcotest.(check bool) "abort incident present" true
    (match r.Nxe.incident with
    | Some inc -> inc.F.inc_mismatch = F.Fault_isolation && inc.F.inc_blamed = 1
    | None -> false);
  Alcotest.(check int) "no benign incidents" 0 (List.length r.Nxe.fault_incidents)

let test_leader_fault_always_aborts () =
  (* No follower promotion: a leader fault is fatal under ANY policy. *)
  let faults = Faults.make [ { Faults.i_variant = 0; i_at = 3; i_kind = Faults.Stall } ] in
  let r = run ~config:(config Nxe.Quarantine) ~faults () in
  (match r.Nxe.outcome with
  | `Aborted a -> Alcotest.(check int) "leader named" 0 a.Nxe.al_variant
  | `All_finished -> Alcotest.fail "leader fault must abort");
  Alcotest.(check (list int)) "nobody quarantined" [] (Nxe.quarantined_variants r)

let test_corrupt_aborts_under_any_policy () =
  (* Argument corruption is a divergence — a security signal, never a
     benign fault to be absorbed. *)
  let faults =
    Faults.make
      [ { Faults.i_variant = 1; i_at = 5; i_kind = Faults.Corrupt { c_arg = 1; c_delta = 7L } } ]
  in
  List.iter
    (fun p ->
      let r = run ~config:(config p) ~faults () in
      match r.Nxe.outcome with
      | `Aborted a ->
          Alcotest.(check int) "corrupted variant blamed" 1 a.Nxe.al_variant;
          Alcotest.(check bool) "divergence forensics attached" true (r.Nxe.incident <> None)
      | `All_finished -> Alcotest.fail "corruption must abort")
    [ Nxe.Abort_on_fault; Nxe.Quarantine; Nxe.Restart_once ]

let test_delay_survives () =
  (* Slow is not dead: delays below the heartbeat threshold are absorbed
     by lockstep with zero quarantines under every policy. *)
  let faults =
    Faults.make
      [ { Faults.i_variant = 1; i_at = 2; i_kind = Faults.Delay { d_each = 30.0; d_count = 3 } } ]
  in
  List.iter
    (fun p ->
      let r = run ~config:(config p) ~faults () in
      Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
      Alcotest.(check (list int)) "no quarantine" [] (Nxe.quarantined_variants r);
      Alcotest.(check bool) "all healthy" true
        (List.for_all (fun s -> s = Nxe.Healthy) r.Nxe.variant_status))
    [ Nxe.Abort_on_fault; Nxe.Quarantine; Nxe.Restart_once ]

(* ------------------------------------------------------------------ *)
(* Restart_once *)

let test_restart_once_recovers () =
  let r = run ~config:(config Nxe.Restart_once) ~faults:stall_v1 () in
  Alcotest.(check bool) "group finished" true (finished r.Nxe.outcome);
  Alcotest.(check (list int)) "not quarantined at the end" [] (Nxe.quarantined_variants r);
  (match List.nth r.Nxe.variant_status 1 with
  | Nxe.Recovered { q_time; r_time; _ } ->
      check_time "quarantined at detection" 150.0 q_time;
      Alcotest.(check bool) "recovered later" true (r_time > q_time)
  | _ -> Alcotest.fail "expected Recovered");
  (* The quarantine that preceded the restart is still on the record. *)
  Alcotest.(check int) "incident preserved" 1 (List.length r.Nxe.fault_incidents);
  Alcotest.(check (list string)) "coverage restored" [] r.Nxe.coverage_loss

(* ------------------------------------------------------------------ *)
(* Watchdog off / defaults *)

let test_watchdog_off_stall_just_slows () =
  (* heartbeat_timeout = infinity (the default): a stalled follower is
     never declared hung; the run waits out the stall and completes. *)
  let r = run ~config:(config ~hb:infinity Nxe.Quarantine) ~faults:stall_v1 () in
  Alcotest.(check bool) "finished eventually" true (finished r.Nxe.outcome);
  Alcotest.(check (list int)) "no quarantine" [] (Nxe.quarantined_variants r);
  Alcotest.(check bool) "paid the stall" true (r.Nxe.total_time >= 1e9)

let test_no_faults_reports_are_clean () =
  let r = run ~config:(config Nxe.Quarantine) ~faults:Faults.none () in
  Alcotest.(check bool) "finished" true (finished r.Nxe.outcome);
  Alcotest.(check bool) "all healthy" true
    (List.for_all (fun s -> s = Nxe.Healthy) r.Nxe.variant_status);
  Alcotest.(check int) "no incidents" 0 (List.length r.Nxe.fault_incidents);
  Alcotest.(check (list string)) "no loss" [] r.Nxe.coverage_loss

(* ------------------------------------------------------------------ *)
(* Attack detection with a quarantined peer *)

let test_divergence_still_detected_with_quarantined_peer () =
  (* v1 hangs and is quarantined; v2 then diverges on syscall arguments.
     The degraded 2-variant group must still catch it and blame v2. *)
  let diverging =
    List.concat
      (List.init chaos_units (fun i ->
           [ work 5.0; rd (if i >= 9 then 6660 else i) ]))
  in
  let r =
    Nxe.run_traces
      ~config:(config Nxe.Quarantine)
      ~faults:stall_v1 ~coverage:coverage3 ~names:(names 3)
      [ chaos_trace (); chaos_trace (); diverging ]
  in
  (match r.Nxe.outcome with
  | `Aborted a -> Alcotest.(check int) "divergent variant blamed" 2 a.Nxe.al_variant
  | `All_finished -> Alcotest.fail "N−1 group must still detect divergence");
  Alcotest.(check (list int)) "v1 quarantined first" [ 1 ] (Nxe.quarantined_variants r);
  Alcotest.(check bool) "divergence forensics attached" true (r.Nxe.incident <> None)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_chaos_runs_are_deterministic () =
  let strip r =
    (* machine_stats carries no per-run noise either, but comparing the
       whole record keeps the check honest. *)
    ( r.Nxe.outcome,
      r.Nxe.total_time,
      r.Nxe.variant_status,
      r.Nxe.coverage_loss,
      r.Nxe.executed_syscalls,
      r.Nxe.fault_incidents,
      r.Nxe.histograms )
  in
  List.iter
    (fun (label, cfg, faults) ->
      let a = run ~config:cfg ~faults () in
      let b = run ~config:cfg ~faults () in
      Alcotest.(check bool) (label ^ " deterministic") true (strip a = strip b))
    [
      ("stall/quarantine", config Nxe.Quarantine, stall_v1);
      ("stall/abort", config Nxe.Abort_on_fault, stall_v1);
      ("stall/restart", config Nxe.Restart_once, stall_v1);
      ("die/quarantine", config Nxe.Quarantine, die_v2);
      ("seeded plan", config Nxe.Quarantine, Faults.plan ~seed:11 ~variants:3 ~count:2 ());
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bunshin_faults"
    [
      ( "plans",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "run validation" `Quick test_run_validation;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "stall detected, N-1 finish" `Quick test_stall_quarantine;
          Alcotest.test_case "incident forensics" `Quick test_quarantine_incident_forensics;
          Alcotest.test_case "death loses coverage" `Quick test_die_quarantine_loses_coverage;
          Alcotest.test_case "gap with no live follower" `Quick test_gap_without_live_follower;
        ] );
      ( "policies",
        [
          Alcotest.test_case "abort on fault" `Quick test_stall_abort_on_fault;
          Alcotest.test_case "leader fault fatal" `Quick test_leader_fault_always_aborts;
          Alcotest.test_case "corruption always aborts" `Quick test_corrupt_aborts_under_any_policy;
          Alcotest.test_case "delay survives" `Quick test_delay_survives;
          Alcotest.test_case "restart once recovers" `Quick test_restart_once_recovers;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "off by default" `Quick test_watchdog_off_stall_just_slows;
          Alcotest.test_case "clean report without faults" `Quick test_no_faults_reports_are_clean;
        ] );
      ( "security",
        [
          Alcotest.test_case "detects with quarantined peer" `Quick
            test_divergence_still_detected_with_quarantined_peer;
        ] );
      ( "determinism",
        [ Alcotest.test_case "identical reports" `Quick test_chaos_runs_are_deterministic ] );
    ]
