(* Overhead-attribution profiler: the accounting identity (phases sum to
   each variant's accounted thread time), straggler analysis, neutrality
   (attaching a collector never changes the NXE report), the serialization
   round-trip, the exporters, and the perf-regression gate. *)

open Bunshin
module E = Experiments
module Collector = Profile.Collector
module Json = Bunshin_util.Json

let bzip2 () = Spec.find "bzip2"
let small_server () = Server.make Server.Lighttpd ~file_kb:1 ~connections:16 ~requests:40

(* ------------------------------------------------------------------ *)
(* The accounting identity: for every variant, the per-phase buckets must
   sum to the accounted thread time within 1% — nothing uncounted, nothing
   double-counted.  Checked on a CPU-bound and a server workload model. *)

let check_identity label (attr : Profile.attribution) =
  Alcotest.(check bool) (label ^ ": has variants") true (attr.Profile.at_variants <> []);
  List.iter
    (fun (v : Profile.variant_attr) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s v%d: thread time positive" label v.Profile.va_index)
        true
        (v.Profile.va_thread_time > 0.0);
      let err =
        Float.abs (v.Profile.va_phase_sum -. v.Profile.va_thread_time)
        /. v.Profile.va_thread_time
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s v%d: phase sum within 1%% (err %.5f)" label
           v.Profile.va_index err)
        true (err <= 0.01))
    attr.Profile.at_variants

let test_phases_sum_bzip2 () =
  let oa = E.overhead_attribution ~n:3 (bzip2 ()) in
  check_identity "bzip2" oa.E.oa_attr;
  (* A check-distribution group really does show sanitizer time. *)
  let sanitizer_total =
    List.fold_left
      (fun acc (v : Profile.variant_attr) ->
        acc +. List.assoc Profile.Phase.Sanitizer v.Profile.va_phases)
      0.0 oa.E.oa_attr.Profile.at_variants
  in
  Alcotest.(check bool) "sanitizer phase nonzero" true (sanitizer_total > 0.0)

let test_phases_sum_server () =
  let attr, report = E.attribution_run ~workload:"lighttpd" ~seed:E.ref_seed
      (List.init 3 (fun _ -> Program.baseline (small_server ()).Bench.prog))
  in
  Alcotest.(check bool) "server finished" true (report.Nxe.outcome = `All_finished);
  check_identity "lighttpd" attr;
  (* Servers sleep in the event loop: idle must be visible, and the NXE
     phases (publish/fetch/lockstep) must be nonzero under strict mode. *)
  let phase_total p =
    List.fold_left
      (fun acc (v : Profile.variant_attr) -> acc +. List.assoc p v.Profile.va_phases)
      0.0 attr.Profile.at_variants
  in
  Alcotest.(check bool) "idle nonzero" true (phase_total Profile.Phase.Idle > 0.0);
  Alcotest.(check bool) "publish nonzero" true (phase_total Profile.Phase.Publish > 0.0);
  Alcotest.(check bool) "fetch nonzero" true (phase_total Profile.Phase.Fetch > 0.0);
  Alcotest.(check bool) "syscall service nonzero" true
    (phase_total Profile.Phase.Syscall_service > 0.0)

(* ------------------------------------------------------------------ *)
(* Straggler analysis *)

let test_straggler_accounting () =
  let oa = E.overhead_attribution ~n:3 (bzip2 ()) in
  let attr = oa.E.oa_attr in
  Alcotest.(check bool) "sync points recorded" true (attr.Profile.at_sync_points > 0);
  (* Every rendezvous names exactly one straggler; the per-variant exact
     aggregates must add back up to the total, dropped ring or not. *)
  let count_sum =
    List.fold_left
      (fun acc (v : Profile.variant_attr) -> acc + v.Profile.va_straggler_count)
      0 attr.Profile.at_variants
  in
  Alcotest.(check int) "straggler counts sum to sync points" attr.Profile.at_sync_points
    count_sum;
  List.iter
    (fun (sp : Collector.sync_point) ->
      Alcotest.(check bool) "straggler in range" true
        (sp.Collector.sp_straggler >= 0 && sp.Collector.sp_straggler < attr.Profile.at_n);
      Alcotest.(check bool) "wait non-negative" true (sp.Collector.sp_wait >= 0.0))
    attr.Profile.at_recent;
  (* With per-variant compute skew, somebody other than the leader must be
     late at least once. *)
  let non_leader_straggles =
    List.exists
      (fun (v : Profile.variant_attr) ->
        v.Profile.va_index > 0 && v.Profile.va_straggler_count > 0)
      attr.Profile.at_variants
  in
  Alcotest.(check bool) "a follower straggles somewhere" true non_leader_straggles

let test_max_dominates () =
  (* The paper's compositing argument: group slowdown tracks the slowest
     variant's solo overhead, not the sum of all overheads. *)
  let oa = E.overhead_attribution ~n:3 (bzip2 ()) in
  Alcotest.(check bool) "sum strictly above max" true (oa.E.oa_sum_solo > oa.E.oa_max_solo);
  Alcotest.(check bool)
    (Printf.sprintf "max tracks group (group %.3f max %.3f sum %.3f)"
       oa.E.oa_group_overhead oa.E.oa_max_solo oa.E.oa_sum_solo)
    true oa.E.oa_max_tracks_group

(* ------------------------------------------------------------------ *)
(* Neutrality: attaching a collector is pure observation. *)

let test_report_bit_identical () =
  let builds = List.init 3 (fun _ -> Program.baseline (bzip2 ()).Bench.prog) in
  let run profile =
    Nxe.run_builds ~machine_config:E.desktop ?profile ~jitter:0.05 ~seed:E.ref_seed builds
  in
  let plain = run None in
  let collector = Collector.create 3 in
  let profiled = run (Some collector) in
  Alcotest.(check bool) "report bit-identical with profiling on" true (plain = profiled);
  Alcotest.(check bool) "collector saw the run" true (Collector.sync_points collector > 0)

let test_collector_validation () =
  Alcotest.check_raises "n must be >= 1" (Invalid_argument
    "Profile.Collector.create: need at least one variant") (fun () ->
      ignore (Collector.create 0));
  let c = Collector.create 2 in
  let builds = List.init 3 (fun _ -> Program.baseline (bzip2 ()).Bench.prog) in
  Alcotest.check_raises "variant count mismatch" (Invalid_argument
    "Nxe.run_traces: profile collector variant count mismatch") (fun () ->
      ignore (Nxe.run_builds ~profile:c ~seed:E.ref_seed builds))

let test_ring_overflow_counted () =
  let c = Collector.create ~capacity:4 2 in
  for i = 0 to 9 do
    Collector.record c ~chan:0 ~pos:i ~time:(float_of_int i) ~straggler:(i mod 2)
      ~wait:1.0
  done;
  Alcotest.(check int) "all recorded" 10 (Collector.sync_points c);
  Alcotest.(check int) "dropped = recorded - capacity" 6 (Collector.dropped c);
  let recent = (Profile.attribution c).Profile.at_recent in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length recent);
  Alcotest.(check int) "oldest surviving first" 6
    (match recent with sp :: _ -> sp.Collector.sp_pos | [] -> -1)

(* ------------------------------------------------------------------ *)
(* Serialization round-trip (satellite: to_string/of_string) *)

let test_profile_roundtrip () =
  let p =
    {
      Profile.prog_name = "bzip2";
      total_time = 1234.5625;
      by_func = Lazy.from_val [ ("compress", 800.25); ("sort", 300.0); ("io", 0.125) ];
    }
  in
  (match Profile.of_string (Profile.to_string p) with
   | Ok q ->
     Alcotest.(check string) "name" p.Profile.prog_name q.Profile.prog_name;
     Alcotest.(check (float 1e-6)) "total" p.Profile.total_time q.Profile.total_time;
     Alcotest.(check int) "funcs" 3 (List.length (Lazy.force q.Profile.by_func));
     Alcotest.(check (float 1e-6)) "func value" 800.25
       (List.assoc "compress" (Lazy.force q.Profile.by_func))
   | Error e -> Alcotest.fail e);
  (* Malformed inputs surface as Error, never exceptions. *)
  List.iter
    (fun (label, s) ->
      match Profile.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (label ^ ": expected parse error"))
    [
      ("garbage line", "program\tx\ntotal\t1.0\nwhat\tis\tthis\n");
      ("bad float", "program\tx\ntotal\tnot-a-number\n");
      ("missing header", "func\tf\t1.0\n");
      ("truncated func", "program\tx\ntotal\t1.0\nfunc\tonlyname\n");
    ]

(* ------------------------------------------------------------------ *)
(* Exporters *)

let small_attr () =
  let attr, _ = E.attribution_run ~workload:"bzip2" ~seed:E.ref_seed
      (List.init 2 (fun _ -> Program.baseline (bzip2 ()).Bench.prog))
  in
  attr

let test_json_exporter_shape () =
  let attr = small_attr () in
  match Json.parse (Profile.attribution_to_json attr) with
  | Error e -> Alcotest.fail ("attribution JSON does not parse: " ^ e)
  | Ok j ->
    let mem k = Json.member k j in
    Alcotest.(check bool) "workload" true (mem "workload" = Some (Json.Str "bzip2"));
    Alcotest.(check bool) "variants" true (mem "variants" = Some (Json.Num 2.0));
    (match mem "per_variant" with
     | Some (Json.Arr (v0 :: _ as vs)) ->
       Alcotest.(check int) "two variants" 2 (List.length vs);
       List.iter
         (fun k ->
           Alcotest.(check bool) ("per_variant has " ^ k) true
             (Json.member k v0 <> None))
         [ "index"; "name"; "wall_us"; "thread_time_us"; "cpu_us"; "straggler_count";
           "straggler_wait_us"; "phase_sum_us"; "phases" ];
       (match Json.member "phases" v0 with
        | Some (Json.Obj fields) ->
          List.iter
            (fun ph ->
              Alcotest.(check bool) ("phase key " ^ Profile.Phase.name ph) true
                (List.mem_assoc (Profile.Phase.name ph) fields))
            Profile.Phase.all
        | _ -> Alcotest.fail "phases not an object")
     | _ -> Alcotest.fail "per_variant missing");
    (match mem "recent_sync_points" with
     | Some (Json.Arr _) -> ()
     | _ -> Alcotest.fail "recent_sync_points missing")

let test_collapsed_exporter () =
  let attr = small_attr () in
  let lines = String.split_on_char '\n' (String.trim (Profile.attribution_collapsed attr)) in
  Alcotest.(check bool) "has lines" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ stack; weight ] ->
        Alcotest.(check int) "stack depth 3" 3
          (List.length (String.split_on_char ';' stack));
        Alcotest.(check bool) ("integer weight: " ^ weight) true
          (match int_of_string_opt weight with Some w -> w > 0 | None -> false)
      | _ -> Alcotest.fail ("malformed collapsed line: " ^ line))
    lines

let test_text_exporter () =
  let attr = small_attr () in
  let txt = Profile.attribution_to_text attr in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("text mentions " ^ needle) true (Kit.contains txt needle))
    [ "workload: bzip2"; "sync points:"; "straggler at"; "phase sum" ]

(* ------------------------------------------------------------------ *)
(* Perf-regression gate *)

let suites_a = [ ("bzip2", [ ("time_us", 100.0); ("steps", 5000.0) ]) ]

let thresholds =
  [ Gate.threshold ~tolerance:0.10 "time_us"; Gate.threshold ~tolerance:0.0 "steps" ]

let test_gate_clean_pass () =
  let doc = Gate.emit_json ~section:"interp" ~quick:false suites_a in
  match Gate.compare_json ~thresholds ~baseline:doc ~fresh:doc with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "identical run passes" true (Gate.passed r);
    Alcotest.(check int) "both metrics compared" 2 (List.length r.Gate.r_comparisons)

let test_gate_regression_detected () =
  let baseline = Gate.emit_json ~section:"interp" ~quick:false suites_a in
  let fresh =
    Gate.emit_json ~section:"interp" ~quick:false
      [ ("bzip2", [ ("time_us", 125.0); ("steps", 5000.0) ]) ]
  in
  match Gate.compare_json ~thresholds ~baseline ~fresh with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "25% over a 10% gate fails" false (Gate.passed r);
    (match r.Gate.r_regressions with
     | [ c ] ->
       Alcotest.(check string) "metric" "time_us" c.Gate.c_metric;
       Alcotest.(check (float 1e-9)) "ratio" 1.25 c.Gate.c_ratio
     | _ -> Alcotest.fail "expected exactly one regression");
    (* Within tolerance passes. *)
    let ok =
      Gate.emit_json ~section:"interp" ~quick:false
        [ ("bzip2", [ ("time_us", 109.0); ("steps", 5000.0) ]) ]
    in
    (match Gate.compare_json ~thresholds ~baseline ~fresh:ok with
     | Ok r -> Alcotest.(check bool) "9% under a 10% gate passes" true (Gate.passed r)
     | Error e -> Alcotest.fail e)

let test_gate_higher_is_better () =
  let th = [ Gate.threshold ~direction:Gate.Higher_is_better ~tolerance:0.05 "rate" ] in
  let b = Gate.emit_json ~section:"s" ~quick:false [ ("x", [ ("rate", 100.0) ]) ] in
  let worse = Gate.emit_json ~section:"s" ~quick:false [ ("x", [ ("rate", 80.0) ]) ] in
  let better = Gate.emit_json ~section:"s" ~quick:false [ ("x", [ ("rate", 120.0) ]) ] in
  (match Gate.compare_json ~thresholds:th ~baseline:b ~fresh:worse with
   | Ok r -> Alcotest.(check bool) "rate drop regresses" false (Gate.passed r)
   | Error e -> Alcotest.fail e);
  match Gate.compare_json ~thresholds:th ~baseline:b ~fresh:better with
  | Ok r -> Alcotest.(check bool) "rate gain passes" true (Gate.passed r)
  | Error e -> Alcotest.fail e

let test_gate_missing_and_mismatch () =
  let baseline = Gate.emit_json ~section:"interp" ~quick:false suites_a in
  (* A suite or metric vanishing from the fresh run is a failure, not a
     silent pass. *)
  let missing_metric =
    Gate.emit_json ~section:"interp" ~quick:false [ ("bzip2", [ ("steps", 5000.0) ]) ]
  in
  (match Gate.compare_json ~thresholds ~baseline ~fresh:missing_metric with
   | Ok r ->
     Alcotest.(check bool) "missing metric fails" false (Gate.passed r);
     Alcotest.(check bool) "named in missing" true
       (List.mem "bzip2.time_us" r.Gate.r_missing)
   | Error e -> Alcotest.fail e);
  let missing_suite = Gate.emit_json ~section:"interp" ~quick:false [] in
  (match Gate.compare_json ~thresholds ~baseline ~fresh:missing_suite with
   | Ok r -> Alcotest.(check bool) "missing suite fails" false (Gate.passed r)
   | Error e -> Alcotest.fail e);
  (* Quick-mode numbers are not comparable to full-mode numbers. *)
  let quick = Gate.emit_json ~section:"interp" ~quick:true suites_a in
  (match Gate.compare_json ~thresholds ~baseline ~fresh:quick with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "quick/full mismatch must error");
  (* Malformed inputs error out. *)
  (match Gate.compare_json ~thresholds ~baseline:"{nope" ~fresh:quick with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "malformed baseline must error");
  match Gate.compare_json ~thresholds ~baseline:"{\"suites\":[]}" ~fresh:baseline with
  | Error _ -> () (* missing schema_version *)
  | Ok _ -> Alcotest.fail "missing schema_version must error"

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "phases sum, bzip2" `Quick test_phases_sum_bzip2;
          Alcotest.test_case "phases sum, server" `Quick test_phases_sum_server;
          Alcotest.test_case "straggler accounting" `Quick test_straggler_accounting;
          Alcotest.test_case "max dominates, not sum" `Quick test_max_dominates;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "report bit-identical" `Quick test_report_bit_identical;
          Alcotest.test_case "validation" `Quick test_collector_validation;
          Alcotest.test_case "ring overflow counted" `Quick test_ring_overflow_counted;
        ] );
      ( "serialization",
        [ Alcotest.test_case "round-trip and errors" `Quick test_profile_roundtrip ] );
      ( "exporters",
        [
          Alcotest.test_case "json shape" `Quick test_json_exporter_shape;
          Alcotest.test_case "collapsed stacks" `Quick test_collapsed_exporter;
          Alcotest.test_case "text report" `Quick test_text_exporter;
        ] );
      ( "gate",
        [
          Alcotest.test_case "clean pass" `Quick test_gate_clean_pass;
          Alcotest.test_case "regression detected" `Quick test_gate_regression_detected;
          Alcotest.test_case "higher is better" `Quick test_gate_higher_is_better;
          Alcotest.test_case "missing and mismatch" `Quick test_gate_missing_and_mismatch;
        ] );
    ]
