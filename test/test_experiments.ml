(* Integration tests over the experiment pipelines: assert the evaluation's
   *shapes* hold — who wins, by roughly what factor, where crossovers fall.
   Absolute paper values live in EXPERIMENTS.md; the bands here are wide
   enough to survive recalibration but tight enough to catch regressions. *)

open Bunshin
module E = Experiments

let in_band name lo hi v =
  Alcotest.(check bool) (Printf.sprintf "%s: %.3f in [%.3f, %.3f]" name v lo hi) true
    (v >= lo && v <= hi)

(* ------------------------------------------------------------------ *)
(* §5.2: NXE efficiency *)

let test_fig3_band () =
  (* A representative SPEC subset; the full suite runs in the bench. *)
  let subset = [ "bzip2"; "mcf"; "gcc"; "sjeng" ] in
  let rs = List.map (fun b -> E.nxe_efficiency (Spec.find b)) subset in
  let strict = Stats.mean (List.map (fun r -> r.E.ef_strict) rs) in
  let sel = Stats.mean (List.map (fun r -> r.E.ef_selective) rs) in
  in_band "strict avg" 0.02 0.20 strict;
  Alcotest.(check bool) "selective <= strict" true (sel <= strict +. 0.005)

let test_fig4_band () =
  let rs =
    List.map (fun b -> E.nxe_efficiency b)
      [ Multithreaded.find "barnes"; Multithreaded.find "dedup" ]
  in
  List.iter (fun r -> in_band ("mt " ^ r.E.ef_bench) 0.02 0.30 r.E.ef_strict) rs

let test_single_core_band () =
  (* Paper: 103.1% when two variants share one core. *)
  in_band "single-core" 0.90 1.30 (E.single_core_overhead (Spec.find "bzip2"))

let test_scalability_monotone () =
  let series = E.scalability (Spec.find "gcc") in
  let v n = List.assoc n series in
  Alcotest.(check bool) "2 <= 4" true (v 2 <= v 4 +. 0.01);
  Alcotest.(check bool) "4 <= 6" true (v 4 <= v 6 +. 0.01);
  Alcotest.(check bool) "6 <= 8" true (v 6 <= v 8 +. 0.01);
  in_band "n=8 overhead" 0.05 0.45 (v 8)

(* ------------------------------------------------------------------ *)
(* §5.2: servers (Table 2's contrast) *)

let test_server_small_vs_large_contrast () =
  let small = E.server_latency Server.Lighttpd ~file_kb:1 ~connections:64 in
  let large = E.server_latency Server.Lighttpd ~file_kb:1024 ~connections:64 in
  let oh r = (r.E.sl_strict -. r.E.sl_base) /. r.E.sl_base in
  (* Small files: syscall-dominated, double-digit overhead; large files:
     copy-dominated, small overhead.  The paper's 20.56% vs 1.57%. *)
  Alcotest.(check bool) "small >> large" true (oh small > 3.0 *. oh large);
  in_band "1KB strict oh" 0.08 0.45 (oh small);
  in_band "1MB strict oh" 0.0 0.10 (oh large)

let test_server_base_latencies () =
  let r = E.server_latency Server.Lighttpd ~file_kb:1 ~connections:64 in
  in_band "lighttpd 1KB base" 8.0 13.0 r.E.sl_base;
  let n = E.server_latency Server.Nginx ~file_kb:1 ~connections:64 in
  in_band "nginx 1KB base" 8.0 13.0 n.E.sl_base

(* ------------------------------------------------------------------ *)
(* §5.3: attack window *)

let test_syscall_gap_contrast () =
  let cpu = E.syscall_gap (Spec.find "mcf") in
  let io =
    let bench = Server.make Server.Lighttpd ~file_kb:1 ~connections:64 ~requests:100 in
    let base = Program.baseline bench.Bench.prog in
    (E.nxe_run ~config:Nxe.selective ~seed:E.ref_seed [ base; base ]).Nxe.avg_syscall_gap
  in
  (* Paper: ~5 for CPU-intensive, ~1 for IO-intensive. *)
  in_band "cpu gap" 2.0 15.0 cpu;
  in_band "io gap" 0.0 2.0 io;
  Alcotest.(check bool) "cpu > io" true (cpu > io)

(* ------------------------------------------------------------------ *)
(* §5.4-5.6: distributions *)

let test_check_distribution_reduces_overhead () =
  let r = E.check_distribution ~n:3 (Spec.find "bzip2") in
  Alcotest.(check bool) "bunshin < full" true (r.E.cd_bunshin_overhead < r.E.cd_full_overhead);
  (* Roughly: three-way split should at least reach 65% of the full cost. *)
  Alcotest.(check bool) "meaningful reduction" true
    (r.E.cd_bunshin_overhead < 0.70 *. r.E.cd_full_overhead);
  (* Each variant alone is cheaper than the full build. *)
  List.iter
    (fun v -> Alcotest.(check bool) "variant < full" true (v < r.E.cd_full_overhead))
    r.E.cd_variant_overheads

let test_check_distribution_2v_between () =
  let r3 = E.check_distribution ~n:3 (Spec.find "milc") in
  let r2 = E.check_distribution ~n:2 (Spec.find "milc") in
  Alcotest.(check bool) "3 variants beat 2" true
    (r3.E.cd_bunshin_overhead < r2.E.cd_bunshin_overhead);
  Alcotest.(check bool) "2 variants beat full" true
    (r2.E.cd_bunshin_overhead < r2.E.cd_full_overhead)

let test_outliers_do_not_distribute () =
  (* hmmer/lbm: one function dominates, so distribution cannot help. *)
  List.iter
    (fun name ->
      let r = E.check_distribution ~n:3 (Spec.find name) in
      Alcotest.(check bool)
        (name ^ " bunshin ~>= full")
        true
        (r.E.cd_bunshin_overhead > 0.85 *. r.E.cd_full_overhead))
    [ "hmmer"; "lbm" ]

let test_ubsan_distribution_band () =
  let r = E.ubsan_distribution ~n:3 (Spec.find "bzip2") in
  in_band "full ubsan" 1.8 3.2 r.E.cd_full_overhead;
  Alcotest.(check bool) "distributed < half of full" true
    (r.E.cd_bunshin_overhead < 0.55 *. r.E.cd_full_overhead)

let test_unify_band () =
  match E.unify_sanitizers (Spec.find "bzip2") with
  | None -> Alcotest.fail "bzip2 should unify"
  | Some u ->
    (* The +4.99% headline: compositing costs little over the slowest. *)
    in_band "extra over max" (-0.02) 0.15 u.E.un_extra_over_max;
    Alcotest.(check bool) "ubsan is the slowest" true
      (u.E.un_ubsan >= u.E.un_asan && u.E.un_ubsan >= u.E.un_msan)

let test_unify_excludes_gcc () =
  Alcotest.(check bool) "gcc excluded" true (E.unify_sanitizers (Spec.find "gcc") = None)

(* ------------------------------------------------------------------ *)
(* §5.7: load *)

let test_load_sensitivity_rises () =
  let series = E.load_sensitivity (Spec.find "gcc") in
  let low = List.assoc 0.02 series and high = List.assoc 0.99 series in
  Alcotest.(check bool) (Printf.sprintf "rises: %.3f <= %.3f" low high) true
    (low <= high +. 0.02);
  in_band "high load overhead" 0.0 0.35 high

let test_experiments_deterministic () =
  (* The whole pipeline is seeded: identical invocations, identical numbers
     (what makes EXPERIMENTS.md reproducible). *)
  let r1 = E.check_distribution ~n:2 (Spec.find "sjeng") in
  let r2 = E.check_distribution ~n:2 (Spec.find "sjeng") in
  Alcotest.(check (float 1e-12)) "bunshin overhead" r1.E.cd_bunshin_overhead
    r2.E.cd_bunshin_overhead;
  Alcotest.(check (float 1e-12)) "full overhead" r1.E.cd_full_overhead r2.E.cd_full_overhead;
  let e1 = E.nxe_efficiency (Spec.find "sjeng") in
  let e2 = E.nxe_efficiency (Spec.find "sjeng") in
  Alcotest.(check (float 1e-12)) "efficiency" e1.E.ef_strict e2.E.ef_strict

let test_robustness_subset () =
  (* The §5.1 sweep: SPEC, the supported SPLASH/PARSEC members and both
     servers. *)
  let results = E.robustness () in
  Alcotest.(check bool) "barnes and dedup swept" true
    (List.mem_assoc "barnes" results && List.mem_assoc "dedup" results);
  List.iter
    (fun (name, clean) -> Alcotest.(check bool) (name ^ " clean") true clean)
    results

let test_unsupported_demo () =
  (* Every runnable-but-racy PARSEC member must fail under the engine. *)
  let results = E.unsupported_demo () in
  Alcotest.(check int) "five racy members" 5 (List.length results);
  List.iter
    (fun (name, problem) -> Alcotest.(check bool) (name ^ " fails as expected") true problem)
    results

let () =
  Alcotest.run "bunshin_experiments" 
    [
      ( "nxe-efficiency",
        [
          Alcotest.test_case "fig3 band" `Slow test_fig3_band;
          Alcotest.test_case "fig4 band" `Slow test_fig4_band;
          Alcotest.test_case "single core" `Quick test_single_core_band;
          Alcotest.test_case "fig5 monotone" `Slow test_scalability_monotone;
        ] );
      ( "servers",
        [
          Alcotest.test_case "small vs large contrast" `Slow test_server_small_vs_large_contrast;
          Alcotest.test_case "base latencies" `Quick test_server_base_latencies;
        ] );
      ("window", [ Alcotest.test_case "gap contrast" `Quick test_syscall_gap_contrast ]);
      ( "distributions",
        [
          Alcotest.test_case "check distribution reduces" `Quick test_check_distribution_reduces_overhead;
          Alcotest.test_case "2 vs 3 variants" `Slow test_check_distribution_2v_between;
          Alcotest.test_case "outliers" `Slow test_outliers_do_not_distribute;
          Alcotest.test_case "ubsan distribution" `Quick test_ubsan_distribution_band;
          Alcotest.test_case "unify band" `Quick test_unify_band;
          Alcotest.test_case "unify excludes gcc" `Quick test_unify_excludes_gcc;
        ] );
      ("load", [ Alcotest.test_case "rises with load" `Slow test_load_sensitivity_rises ]);
      ( "robustness",
        [
          Alcotest.test_case "deterministic" `Quick test_experiments_deterministic;
          Alcotest.test_case "supported subset clean" `Quick test_robustness_subset;
          Alcotest.test_case "racy members fail" `Slow test_unsupported_demo;
        ] );
    ]
