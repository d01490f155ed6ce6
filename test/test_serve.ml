(* Tests for Bunshin_serve: the NXE group pool (conservation, neutrality,
   admission control) plus the workload-layer bugfixes it surfaced
   (Server.make request accounting and argument validation). *)

module Rng = Bunshin_util.Rng
module M = Bunshin_machine.Machine
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module Server = Bunshin_workloads.Server
module Bench = Bunshin_workloads.Bench
module Faults = Bunshin_faults.Faults
module Nxe = Bunshin_nxe.Nxe
module Serve = Bunshin_serve.Serve

(* ------------------------------------------------------------------ *)
(* Server.make request accounting (the truncating-division bug) *)

(* Each small-file request is exactly 3 syscalls (accept, read, one
   sendfile write), so the generated trace pins the request count. *)
let syscalls_per_request = 3

let server_trace kind requests =
  let b = Server.make kind ~file_kb:1 ~connections:16 ~requests in
  b.Bench.prog.Program.gen_trace (Rng.create 1)

let test_make_nondivisible_requests () =
  (* nginx has 4 workers; 10 requests used to become 4 * (10/4) = 8 —
     the remainder was silently dropped.  The trace (including Spawn
     sub-traces) must carry every request. *)
  let t = server_trace Server.Nginx 10 in
  Alcotest.(check int) "nginx 10 requests -> 30 syscalls" (10 * syscalls_per_request)
    (Trace_sum.syscall_count t);
  let t = server_trace Server.Nginx 3 in
  Alcotest.(check int) "fewer requests than workers" (3 * syscalls_per_request)
    (Trace_sum.syscall_count t);
  let t = server_trace Server.Lighttpd 7 in
  Alcotest.(check int) "single worker unchanged" (7 * syscalls_per_request)
    (Trace_sum.syscall_count t)

let test_make_executed_syscalls () =
  (* The same count must survive execution: two identical variants of the
     non-divisible nginx trace synchronize every generated syscall. *)
  let t = server_trace Server.Nginx 10 in
  let r = Nxe.run_traces ~names:[ "v0"; "v1" ] [ t; t ] in
  Alcotest.(check bool) "finished" true (r.Nxe.outcome = `All_finished);
  Alcotest.(check int) "executed = generated" (10 * syscalls_per_request)
    r.Nxe.synced_syscalls

let test_make_validates_arguments () =
  Alcotest.check_raises "connections = 0"
    (Invalid_argument "Server.make: connections must be >= 1") (fun () ->
      ignore (Server.make Server.Lighttpd ~file_kb:1 ~connections:0 ~requests:10));
  Alcotest.check_raises "requests = 0"
    (Invalid_argument "Server.make: requests must be >= 1") (fun () ->
      ignore (Server.make Server.Nginx ~file_kb:1 ~connections:16 ~requests:0))

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let src ?(n = 2) ?(seed = 7) () =
  Serve.jittered ~seed (Serve.server_source ~n Server.Lighttpd ~file_kb:1 ~connections:16)

let tally r =
  Array.fold_left
    (fun (c, rj, f) -> function
      | Serve.Completed _ -> (c + 1, rj, f)
      | Serve.Rejected _ -> (c, rj + 1, f)
      | Serve.Faulted _ -> (c, rj, f + 1))
    (0, 0, 0) r.Serve.sv_outcomes

let test_run_all_completed_under_light_load () =
  let r = Serve.run (src ()) ~offered_rps:50_000.0 ~requests:30 in
  Alcotest.(check int) "requests" 30 r.Serve.sv_requests;
  Alcotest.(check int) "all completed" 30 r.Serve.sv_completed;
  Alcotest.(check int) "none rejected" 0 r.Serve.sv_rejected;
  let c, rj, f = tally r in
  Alcotest.(check (list int)) "outcomes agree with counts"
    [ r.Serve.sv_completed; r.Serve.sv_rejected; r.Serve.sv_faulted ]
    [ c; rj; f ];
  Alcotest.(check bool) "quantiles ordered" true
    (r.Serve.sv_p50 <= r.Serve.sv_p95
    && r.Serve.sv_p95 <= r.Serve.sv_p99
    && r.Serve.sv_p99 <= r.Serve.sv_p999)

let test_run_deterministic () =
  let go () = Serve.run (src ()) ~offered_rps:300_000.0 ~requests:40 in
  let a = go () and b = go () in
  Alcotest.(check (float 0.0)) "p999 bit-identical" a.Serve.sv_p999 b.Serve.sv_p999;
  Alcotest.(check (float 0.0)) "makespan bit-identical" a.Serve.sv_makespan
    b.Serve.sv_makespan;
  Alcotest.(check int) "rejections identical" a.Serve.sv_rejected b.Serve.sv_rejected

let test_run_validates_arguments () =
  let s = src () in
  let bad f = Alcotest.(check bool) "rejected" true (try ignore (f ()); false
    with Invalid_argument _ -> true) in
  bad (fun () -> Serve.run s ~offered_rps:0.0 ~requests:10);
  bad (fun () -> Serve.run s ~offered_rps:1e5 ~requests:0);
  bad (fun () ->
      Serve.run ~config:{ Serve.default_config with queue_capacity = 0 } s
        ~offered_rps:1e5 ~requests:10);
  bad (fun () ->
      Serve.run ~config:{ Serve.default_config with pool_capacity = 0 } s
        ~offered_rps:1e5 ~requests:10)

let test_saturation_rejects_not_collapses () =
  (* Offered load far past the pool's capacity: the bounded queue must
     convert overload into rejections while the admitted requests keep a
     bounded tail — queue_capacity groups ahead at most, give or take
     batching, not an open-ended backlog. *)
  let config = { Serve.default_config with queue_capacity = 8 } in
  let solo = (Serve.solo_report ~config (src ()) ~req_id:0).Nxe.total_time in
  let r = Serve.run ~config (src ()) ~offered_rps:5e6 ~requests:120 in
  Alcotest.(check bool) "rejections happened" true (r.Serve.sv_rejected > 0);
  Alcotest.(check bool) "still completing" true (r.Serve.sv_completed > 0);
  let bound = 30.0 *. solo in
  Alcotest.(check bool)
    (Printf.sprintf "admitted p99 %.1f bounded by %.1f" r.Serve.sv_p99 bound)
    true
    (r.Serve.sv_p99 <= bound)

let test_groups_spawn_and_retire () =
  let config = { Serve.default_config with retire_idle_us = 50.0 } in
  let r = Serve.run ~config (src ()) ~offered_rps:400_000.0 ~requests:60 in
  Alcotest.(check bool) "pool grew" true (r.Serve.sv_peak_groups > 1);
  Alcotest.(check bool) "peak within capacity" true
    (r.Serve.sv_peak_groups <= Serve.default_config.Serve.pool_capacity);
  Alcotest.(check int) "spawns account retirements + peak survivors" r.Serve.sv_groups_spawned
    (r.Serve.sv_groups_retired + (r.Serve.sv_groups_spawned - r.Serve.sv_groups_retired))

let test_poll_batching_amortizes () =
  let r = Serve.run (src ()) ~offered_rps:1_000_000.0 ~requests:80 in
  Alcotest.(check bool) "events outnumber wakeups" true
    (r.Serve.sv_poll_events > r.Serve.sv_poll_wakeups);
  Alcotest.(check bool) "every request produced events" true
    (r.Serve.sv_poll_events >= r.Serve.sv_requests)

(* ------------------------------------------------------------------ *)
(* Neutrality: pooled reports bit-identical to solo replays *)

let test_neutrality_bit_identical () =
  let config = { Serve.default_config with keep_reports = true } in
  let s = src () in
  let r = Serve.run ~config s ~offered_rps:600_000.0 ~requests:25 in
  Alcotest.(check bool) "kept reports" true (r.Serve.sv_reports <> []);
  List.iter
    (fun (rid, rep) ->
      let solo = Serve.solo_report ~config s ~req_id:rid in
      Alcotest.(check string)
        (Printf.sprintf "request %d pooled = solo" rid)
        (Nxe.report_signature solo) (Nxe.report_signature rep))
    r.Serve.sv_reports

let test_neutrality_under_faults () =
  (* A per-request fault plan is injected identically into the pooled run
     and the solo replay: signatures still match, and faulted requests
     are accounted as Faulted, not Completed. *)
  let watchdog =
    { Nxe.selective with
      fault_policy = { Nxe.default_policy with heartbeat_timeout = 300.0 } }
  in
  let fault_plan rid =
    if rid mod 4 = 2 then Some (Faults.plan ~seed:(100 + rid) ~variants:2 ()) else None
  in
  let config =
    { Serve.default_config with
      keep_reports = true;
      nxe = watchdog;
      fault_plan = Some fault_plan }
  in
  let s = src () in
  let r = Serve.run ~config s ~offered_rps:200_000.0 ~requests:16 in
  let c, rj, f = tally r in
  Alcotest.(check int) "conserved" 16 (c + rj + f);
  List.iter
    (fun (rid, rep) ->
      let solo = Serve.solo_report ~config s ~req_id:rid in
      Alcotest.(check string)
        (Printf.sprintf "request %d pooled = solo under faults" rid)
        (Nxe.report_signature solo) (Nxe.report_signature rep))
    r.Serve.sv_reports

(* ------------------------------------------------------------------ *)
(* Compile-once: precompiled variants shared across the pool *)

let test_ir_source_compiles_once () =
  let s, compiles = Bunshin.Experiments.serve_ir_source ~n:3 () in
  Alcotest.(check int) "n compiles at construction" 3 !compiles;
  let config = { Serve.default_config with keep_reports = true } in
  let r = Serve.run ~config s ~offered_rps:400_000.0 ~requests:30 in
  Alcotest.(check int) "all served" 30 r.Serve.sv_completed;
  Alcotest.(check bool) "several groups shared them" true (r.Serve.sv_peak_groups > 1);
  Alcotest.(check int) "no recompilation during the run" 3 !compiles

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_pool_scenario =
  QCheck.Gen.(
    let* rps = float_range 30_000.0 3_000_000.0 in
    let* pool = 1 -- 6 in
    let* queue = 1 -- 10 in
    let* batch = 1 -- 6 in
    let* requests = 3 -- 40 in
    let* seed = 0 -- 1000 in
    let* faults = bool in
    return (rps, pool, queue, batch, requests, seed, faults))

let scenario_config (_, pool, queue, batch, _, seed, faults) =
  let fault_plan rid =
    if faults && rid mod 5 = 1 then Some (Faults.plan ~seed:(seed + rid) ~variants:2 ())
    else None
  in
  { Serve.default_config with
    pool_capacity = pool;
    queue_capacity = queue;
    batch;
    seed;
    nxe =
      { Nxe.selective with
        fault_policy = { Nxe.default_policy with heartbeat_timeout = 300.0 } };
    fault_plan = Some fault_plan }

let prop_conservation =
  QCheck.Test.make ~name:"serve: every request resolved exactly once" ~count:40
    (QCheck.make gen_pool_scenario)
    (fun ((rps, _, _, _, requests, seed, _) as sc) ->
      let config = scenario_config sc in
      let r = Serve.run ~config (src ~seed ()) ~offered_rps:rps ~requests in
      let c, rj, f = tally r in
      (* [run] itself faults on a double or missing resolution; here we
         re-check the totals from the outcomes array. *)
      Array.length r.Serve.sv_outcomes = requests
      && c + rj + f = requests
      && c = r.Serve.sv_completed
      && rj = r.Serve.sv_rejected
      && f = r.Serve.sv_faulted)

let prop_neutrality =
  QCheck.Test.make ~name:"serve: pooled reports bit-identical to solo" ~count:15
    (QCheck.make gen_pool_scenario)
    (fun ((rps, _, _, _, requests, seed, _) as sc) ->
      let requests = min requests 12 in
      let config = { (scenario_config sc) with Serve.keep_reports = true } in
      let s = src ~seed () in
      let r = Serve.run ~config s ~offered_rps:rps ~requests in
      List.for_all
        (fun (rid, rep) ->
          Nxe.report_signature rep
          = Nxe.report_signature (Serve.solo_report ~config s ~req_id:rid))
        r.Serve.sv_reports)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run ~and_exit:false "bunshin_serve"
    [
      ( "server_make",
        [
          Alcotest.test_case "non-divisible requests" `Quick test_make_nondivisible_requests;
          Alcotest.test_case "executed syscalls" `Quick test_make_executed_syscalls;
          Alcotest.test_case "argument validation" `Quick test_make_validates_arguments;
        ] );
      ( "pool",
        [
          Alcotest.test_case "light load completes" `Quick test_run_all_completed_under_light_load;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "argument validation" `Quick test_run_validates_arguments;
          Alcotest.test_case "saturation rejects" `Quick test_saturation_rejects_not_collapses;
          Alcotest.test_case "spawn and retire" `Quick test_groups_spawn_and_retire;
          Alcotest.test_case "poll batching" `Quick test_poll_batching_amortizes;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "bit-identical" `Quick test_neutrality_bit_identical;
          Alcotest.test_case "under faults" `Quick test_neutrality_under_faults;
          Alcotest.test_case "compile once" `Quick test_ir_source_compiles_once;
        ] );
      ("properties", qcheck [ prop_conservation; prop_neutrality ]);
    ]
