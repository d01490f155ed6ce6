(* Tests for Bunshin_attack: the RIPE model (Table 3) and the CVE case
   studies (Table 4), plus workload-model sanity (suites, servers). *)

module Ripe = Bunshin_attack.Ripe
module Cve = Bunshin_attack.Cve
module Forensics = Bunshin_forensics.Forensics
module Spec = Bunshin_workloads.Spec
module Mt = Bunshin_workloads.Multithreaded
module Server = Bunshin_workloads.Server
module Bench = Bunshin_workloads.Bench
module Program = Bunshin_program.Program
module Trace = Bunshin_program.Trace
module San = Bunshin_sanitizer.Sanitizer
module Rng = Bunshin_util.Rng

(* ------------------------------------------------------------------ *)
(* RIPE (Table 3) *)

let test_ripe_population () =
  Alcotest.(check int) "3840 combos" 3840 (List.length Ripe.combos)

let test_ripe_vanilla_row () =
  let s, p, f, n = Ripe.table Ripe.Vanilla in
  Alcotest.(check (list int)) "vanilla row" [ 114; 16; 720; 2990 ] [ s; p; f; n ]

let test_ripe_asan_row () =
  let s, p, f, n = Ripe.table Ripe.With_asan in
  Alcotest.(check (list int)) "asan row" [ 8; 0; 842; 2990 ] [ s; p; f; n ]

let test_ripe_bunshin_row () =
  let s, p, f, n = Ripe.table (Ripe.With_bunshin 2) in
  Alcotest.(check (list int)) "bunshin row" [ 8; 0; 842; 2990 ] [ s; p; f; n ]

let test_ripe_bunshin_equals_asan_exactly () =
  (* Not just the same count: the same 8 attacks survive. *)
  Alcotest.(check (list int)) "same survivors" (Ripe.surviving_ids Ripe.With_asan)
    (Ripe.surviving_ids (Ripe.With_bunshin 2));
  Alcotest.(check (list int)) "n=3 too" (Ripe.surviving_ids Ripe.With_asan)
    (Ripe.surviving_ids (Ripe.With_bunshin 3))

let test_ripe_survivors_are_intra_object () =
  let surviving = Ripe.surviving_ids Ripe.With_asan in
  List.iter
    (fun id ->
      let c = List.nth Ripe.combos id in
      Alcotest.(check bool) "struct func ptr target" true (c.Ripe.target = Ripe.Struct_func_ptr);
      Alcotest.(check bool) "direct technique" true (c.Ripe.technique = Ripe.Direct))
    surviving

let test_ripe_asan_never_worse () =
  (* ASan never lets through an attack that vanilla stopped. *)
  List.iter
    (fun c ->
      let v = Ripe.classify Ripe.Vanilla c and a = Ripe.classify Ripe.With_asan c in
      if a = Ripe.Succeed then
        Alcotest.(check bool) "asan survivor also succeeded vanilla" true (v = Ripe.Succeed))
    Ripe.combos

let test_ripe_structural_consistency () =
  List.iter
    (fun c ->
      let v = Ripe.classify Ripe.Vanilla c in
      let a = Ripe.classify Ripe.With_asan c in
      Alcotest.(check bool) "not-possible stable across envs" true
        ((v = Ripe.Not_possible) = (a = Ripe.Not_possible)))
    Ripe.combos

(* ------------------------------------------------------------------ *)
(* CVEs (Table 4) *)

let test_cve_all_detected_by_bunshin () =
  List.iter
    (fun case ->
      let v = Cve.evaluate case in
      Alcotest.(check bool) (case.Cve.c_program ^ " full sanitizer detects") true
        v.Cve.v_full_sanitizer;
      Alcotest.(check bool) (case.Cve.c_program ^ " bunshin detects") true
        v.Cve.v_bunshin_detects;
      Alcotest.(check bool) (case.Cve.c_program ^ " benign clean") true v.Cve.v_benign_clean;
      (* Every detection ships its forensics: a blamed variant and, since
         the detecting side's sanitizer fired, an attributed check site. *)
      match v.Cve.v_incident with
      | None -> Alcotest.fail (case.Cve.c_program ^ " detection lacks an incident")
      | Some inc ->
        Alcotest.(check bool) (case.Cve.c_program ^ " check site attributed") true
          (match inc.Forensics.inc_check_site with
           | Some cs -> cs.Forensics.cs_check_id >= 0
           | None -> false))
    Cve.cases

let test_cve_check_lives_in_variant_a () =
  (* The §5.3 investigation: the vulnerable function is protected by the
     variant that keeps its checks. *)
  List.iter
    (fun case ->
      let v = Cve.evaluate case in
      Alcotest.(check bool) (case.Cve.c_program ^ " variant A detects") true v.Cve.v_variant_a)
    Cve.cases

let test_cve_five_rows () =
  Alcotest.(check int) "five cases" 5 (List.length Cve.cases);
  let sanitizers = List.map (fun c -> c.Cve.c_sanitizer) Cve.cases in
  Alcotest.(check int) "four ASan" 4 (List.length (List.filter (( = ) "ASan") sanitizers));
  Alcotest.(check int) "one UBSan" 1 (List.length (List.filter (( = ) "UBSan") sanitizers))

let test_cve_nginx_divergence_story () =
  (* Paper §5.3: when the overflow triggers, variant A issues the report
     write while variant B proceeds — observable stream divergence. *)
  let nginx = List.hd Cve.cases in
  let v = Cve.evaluate nginx in
  Alcotest.(check bool) "A detects" true v.Cve.v_variant_a;
  Alcotest.(check bool) "B alone does not" false v.Cve.v_variant_b;
  Alcotest.(check bool) "streams diverge" true v.Cve.v_diverged

let test_cve_heartbleed_leaks_without_checks () =
  (* Variant B (no checks in the heartbeat parser) leaks the secret to the
     wire — the leak the selective lockstep catches at IO writes. *)
  let ossl = List.find (fun c -> c.Cve.c_cve = "2014-0160") Cve.cases in
  let v = Cve.evaluate ossl in
  Alcotest.(check bool) "diverged at the response write" true v.Cve.v_diverged

(* ------------------------------------------------------------------ *)
(* Workload models *)

let test_spec_has_19 () =
  Alcotest.(check int) "19 benchmarks" 19 (List.length Spec.all)

(* Fraction of the seed-0 workload's work spent in the hottest function. *)
let hot_function_share b =
  let by_func = Trace.work_by_func (b.Bench.prog.Program.gen_trace (Rng.create 0)) in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 by_func in
  List.fold_left (fun acc (_, w) -> Float.max acc (w /. total)) 0.0 by_func

let test_spec_outliers_hot () =
  Alcotest.(check bool) "hmmer hot" true (hot_function_share (Spec.find "hmmer") > 0.9);
  Alcotest.(check bool) "lbm hot" true (hot_function_share (Spec.find "lbm") > 0.9);
  Alcotest.(check bool) "gcc flat" true (hot_function_share (Spec.find "gcc") < 0.5)

let test_spec_gcc_msan_incompatible () =
  Alcotest.(check bool) "gcc no msan" false (Spec.find "gcc").Bench.msan_compatible;
  Alcotest.(check bool) "others ok" true (Spec.find "mcf").Bench.msan_compatible

let test_spec_asan_average_near_107 () =
  (* The §5.4 headline: ASan averages ~107% over SPEC. *)
  let ohs =
    List.map
      (fun b -> Program.overhead_of_build (Program.full [ San.asan ] b.Bench.prog))
      Spec.all
  in
  let avg = Bunshin_util.Stats.mean ohs in
  Alcotest.(check bool) (Printf.sprintf "avg %.3f in [0.9, 1.3]" avg) true
    (avg >= 0.9 && avg <= 1.3)

let test_spec_ubsan_average_near_228 () =
  let ohs =
    List.map
      (fun b -> Program.overhead_of_build (Program.full San.ubsan_subs b.Bench.prog))
      Spec.all
  in
  let avg = Bunshin_util.Stats.mean ohs in
  Alcotest.(check bool) (Printf.sprintf "avg %.3f in [1.9, 2.7]" avg) true
    (avg >= 1.9 && avg <= 2.7)

let test_spec_dealii_ubsan_outlier () =
  let oh b = Program.overhead_of_build (Program.full San.ubsan_subs (Spec.find b).Bench.prog) in
  let dealii = oh "dealII" and mcf = oh "mcf" in
  Alcotest.(check bool) (Printf.sprintf "dealII %.2f > 1.5x mcf %.2f" dealii mcf) true
    (dealii > 1.5 *. mcf)

let test_spec_traces_deterministic () =
  let b = Spec.find "bzip2" in
  let t1 = b.Bench.prog.Program.gen_trace (Rng.create 5) in
  let t2 = b.Bench.prog.Program.gen_trace (Rng.create 5) in
  Alcotest.(check bool) "same trace" true (t1 = t2)

let test_multithreaded_population () =
  Alcotest.(check int) "11 splash" 11 (List.length Mt.splash);
  Alcotest.(check int) "13 parsec" 13 (List.length Mt.parsec);
  let unsupported = List.filter (fun b -> not b.Bench.nxe_supported) Mt.parsec in
  Alcotest.(check int) "7 unsupported parsec" 7 (List.length unsupported);
  List.iter
    (fun b ->
      Alcotest.(check bool) (b.Bench.name ^ " has reason") true
        (b.Bench.unsupported_reason <> None))
    unsupported

let test_multithreaded_traces_have_threads () =
  let b = Mt.find "barnes" in
  let t = b.Bench.prog.Program.gen_trace (Rng.create 1) in
  let spawns = List.length (List.filter (function Trace.Spawn _ -> true | _ -> false) t) in
  Alcotest.(check int) "3 workers spawned" 3 spawns

(* Table 2's metric, as [bench table2] computes it: the serving
   variant's CPU per request. *)
let table2_base ~file_kb ~connections =
  let r = Bunshin.Experiments.server_latency Server.Lighttpd ~file_kb ~connections in
  r.Bunshin.Experiments.sl_base

let test_server_baseline_latency_1kb () =
  (* Table 2: lighttpd, 1 KB files, 64 connections: ~10.3 us/request. *)
  let us = table2_base ~file_kb:1 ~connections:64 in
  Alcotest.(check bool) (Printf.sprintf "%.2f in [8, 13]" us) true (us >= 8.0 && us <= 13.0)

let test_server_baseline_latency_1mb () =
  let us = table2_base ~file_kb:1024 ~connections:64 in
  Alcotest.(check bool) (Printf.sprintf "%.1f in [900, 1100]" us) true
    (us >= 900.0 && us <= 1100.0)

let test_server_concurrency_amortizes () =
  let l64 = table2_base ~file_kb:1 ~connections:64 in
  let l1024 = table2_base ~file_kb:1 ~connections:1024 in
  Alcotest.(check bool) (Printf.sprintf "%.2f > %.2f" l64 l1024) true (l64 > l1024)

let test_server_nginx_multithreaded () =
  let bench = Server.make Server.Nginx ~file_kb:1 ~connections:64 ~requests:80 in
  Alcotest.(check int) "4 workers" 4 bench.Bench.threads;
  let t = bench.Bench.prog.Program.gen_trace (Rng.create 1) in
  let spawns = List.length (List.filter (function Trace.Spawn _ -> true | _ -> false) t) in
  Alcotest.(check int) "3 spawned workers" 3 spawns;
  Alcotest.(check bool) "uses accept mutex" true
    (List.exists (function Trace.Lock _ -> true | _ -> false) t)

let () =
  Alcotest.run ~and_exit:false "bunshin_attack_workloads"
    [
      ( "ripe",
        [
          Alcotest.test_case "population" `Quick test_ripe_population;
          Alcotest.test_case "vanilla row" `Quick test_ripe_vanilla_row;
          Alcotest.test_case "asan row" `Quick test_ripe_asan_row;
          Alcotest.test_case "bunshin row" `Quick test_ripe_bunshin_row;
          Alcotest.test_case "bunshin = asan exactly" `Quick test_ripe_bunshin_equals_asan_exactly;
          Alcotest.test_case "survivors intra-object" `Quick test_ripe_survivors_are_intra_object;
          Alcotest.test_case "asan never worse" `Quick test_ripe_asan_never_worse;
          Alcotest.test_case "structural consistency" `Quick test_ripe_structural_consistency;
        ] );
      ( "cve",
        [
          Alcotest.test_case "all detected" `Quick test_cve_all_detected_by_bunshin;
          Alcotest.test_case "variant A holds check" `Quick test_cve_check_lives_in_variant_a;
          Alcotest.test_case "five rows" `Quick test_cve_five_rows;
          Alcotest.test_case "nginx divergence story" `Quick test_cve_nginx_divergence_story;
          Alcotest.test_case "heartbleed leak" `Quick test_cve_heartbleed_leaks_without_checks;
        ] );
      ( "spec",
        [
          Alcotest.test_case "19 benchmarks" `Quick test_spec_has_19;
          Alcotest.test_case "outliers hot" `Quick test_spec_outliers_hot;
          Alcotest.test_case "gcc msan incompatible" `Quick test_spec_gcc_msan_incompatible;
          Alcotest.test_case "asan avg ~107%" `Quick test_spec_asan_average_near_107;
          Alcotest.test_case "ubsan avg ~228%" `Quick test_spec_ubsan_average_near_228;
          Alcotest.test_case "dealII ubsan outlier" `Quick test_spec_dealii_ubsan_outlier;
          Alcotest.test_case "traces deterministic" `Quick test_spec_traces_deterministic;
        ] );
      ( "multithreaded",
        [
          Alcotest.test_case "population" `Quick test_multithreaded_population;
          Alcotest.test_case "threads spawned" `Quick test_multithreaded_traces_have_threads;
        ] );
      ( "server",
        [
          Alcotest.test_case "1kb latency" `Quick test_server_baseline_latency_1kb;
          Alcotest.test_case "1mb latency" `Quick test_server_baseline_latency_1mb;
          Alcotest.test_case "concurrency amortizes" `Quick test_server_concurrency_amortizes;
          Alcotest.test_case "nginx multithreaded" `Quick test_server_nginx_multithreaded;
        ] );
    ]

(* Appended: micro-RIPE — executable attack programs behind Table 3. *)
module Rir = Bunshin_attack.Ripe_ir

let intra c = c.Rir.target = Rir.Struct_func_ptr

let micro_outcomes = lazy (List.map (fun c -> (c, Rir.evaluate c)) Rir.combos)

let test_micro_ripe_vanilla_all_succeed () =
  List.iter
    (fun (c, o) ->
      Alcotest.(check bool)
        (Format.asprintf "%a vanilla" Rir.pp_combo c)
        true o.Rir.ro_vanilla_succeeds)
    (Lazy.force micro_outcomes)

let test_micro_ripe_asan_catches_cross_object () =
  List.iter
    (fun (c, o) ->
      if not (intra c) then
        Alcotest.(check bool) (Format.asprintf "%a asan" Rir.pp_combo c) true o.Rir.ro_asan_detects)
    (Lazy.force micro_outcomes)

let test_micro_ripe_intra_object_survives () =
  (* RIPE's 8: intra-object overflows are out of ASan's scope and produce
     no divergence (both variants behave identically). *)
  List.iter
    (fun (c, o) ->
      if intra c then begin
        Alcotest.(check bool) (Format.asprintf "%a asan misses" Rir.pp_combo c) false
          o.Rir.ro_asan_detects;
        Alcotest.(check bool) (Format.asprintf "%a bunshin misses" Rir.pp_combo c) false
          o.Rir.ro_bunshin_detects
      end)
    (Lazy.force micro_outcomes)

let test_micro_ripe_bunshin_equals_asan () =
  List.iter
    (fun (c, o) ->
      Alcotest.(check bool)
        (Format.asprintf "%a bunshin = asan" Rir.pp_combo c)
        o.Rir.ro_asan_detects o.Rir.ro_bunshin_detects)
    (Lazy.force micro_outcomes)

let test_micro_ripe_detections_carry_incidents () =
  List.iter
    (fun (c, o) ->
      Alcotest.(check bool)
        (Format.asprintf "%a incident iff detected" Rir.pp_combo c)
        o.Rir.ro_bunshin_detects
        (o.Rir.ro_incident <> None))
    (Lazy.force micro_outcomes)

let test_micro_ripe_benign_clean () =
  List.iter
    (fun (c, o) ->
      Alcotest.(check bool) (Format.asprintf "%a benign" Rir.pp_combo c) true o.Rir.ro_benign_clean)
    (Lazy.force micro_outcomes)

let test_micro_ripe_weaker_defenses () =
  (* Frame-internal fp targets evade stack cookies (they only guard the
     return path); whole-function reuse evades coarse CFI. *)
  List.iter
    (fun (c, o) ->
      Alcotest.(check bool) (Format.asprintf "%a cookie" Rir.pp_combo c) false
        o.Rir.ro_cookie_detects;
      Alcotest.(check bool) (Format.asprintf "%a cfi" Rir.pp_combo c) false o.Rir.ro_cfi_detects)
    (Lazy.force micro_outcomes)

(* ------------------------------------------------------------------ *)
(* One monitor: every attack verdict and incident comes from the NXE *)

module Bridge = Bunshin_attack.Bridge
module Nvariant = Bunshin_attack.Nvariant
module Cluster = Bunshin_cluster.Cluster
module Nxe = Bunshin_nxe.Nxe
module Interp = Bunshin_ir.Interp
module Ast = Bunshin_ir.Ast
module Inst = Bunshin_sanitizer.Instrument
module Slicer = Bunshin_slicer.Slicer

(* Each case's verdict flags and [Cluster.incident_signature] as the
   suites reported them before they ran the NXE, when an engine-free
   replica of the monitor decided.  CVE flags: full sanitizer, variant A,
   variant B, diverged, Bunshin detects, benign clean. *)
let cve_pins =
  [
    ( "nginx-1.4.0",
      (true, true, false, true, true, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 0)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,0) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,0)] \
         site=asan/ngx_http_parse_chunked/san.fail.6" );
    ( "cpython-2.7.10",
      (true, true, false, false, true, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=premature-exit \
         expected=\"<exit>\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=exited \
         tape0=[0:write(2,2989)] tape1=[] \
         site=asan/zipimport_get_data/san.fail.6" );
    ( "php-5.6.6",
      (true, true, false, false, true, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=premature-exit \
         expected=\"<exit>\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=exited \
         tape0=[0:write(2,2989)] tape1=[] \
         site=asan/php_unserialize_object/san.fail.7" );
    ( "openssl-1.0.1a",
      (true, true, false, true, true, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(5, 42)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(5,42) \
         tape0=[0:write(2,2989)] tape1=[0:write(5,42)] \
         site=asan/tls1_process_heartbeat/san.fail.20" );
    ( "httpd-2.4.10",
      (true, true, false, false, true, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=premature-exit \
         expected=\"<exit>\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=exited \
         tape0=[0:write(2,2989)] tape1=[] \
         site=ubsan/cache_select_url/san.fail.4" );
  ]

(* micro-RIPE flags: vanilla succeeds, ASan, Bunshin, cookie, CFI, benign
   clean. *)
let ripe_pins =
  [
    ( "stack/adjacent-func-ptr/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 666)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,666) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,666)] \
         site=asan/smash/san.fail.17" );
    ( "stack/struct-func-ptr/direct",
      (true, false, false, false, false, true),
      None );
    ( "stack/auth-flag/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 777)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,777) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,777)] \
         site=asan/smash/san.fail.17" );
    ( "heap/adjacent-func-ptr/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 666)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,666) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,666)] \
         site=asan/smash/san.fail.17" );
    ( "heap/struct-func-ptr/direct",
      (true, false, false, false, false, true),
      None );
    ( "heap/auth-flag/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 777)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,777) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,777)] \
         site=asan/smash/san.fail.17" );
    ( "bss/adjacent-func-ptr/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 666)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,666) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,666)] \
         site=asan/smash/san.fail.13" );
    ( "bss/struct-func-ptr/direct",
      (true, false, false, false, false, true),
      None );
    ( "bss/auth-flag/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 777)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,777) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,777)] \
         site=asan/smash/san.fail.13" );
    ( "data/adjacent-func-ptr/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 666)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,666) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,666)] \
         site=asan/smash/san.fail.13" );
    ( "data/struct-func-ptr/direct",
      (true, false, false, false, false, true),
      None );
    ( "data/auth-flag/direct",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 777)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,777) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,777)] \
         site=asan/smash/san.fail.13" );
    ( "bss/adjacent-func-ptr/indirect",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 666)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,666) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,666)] \
         site=asan/smash/san.fail.22" );
    ( "data/adjacent-func-ptr/indirect",
      (true, true, true, false, false, true),
      Some
        "chan=0 pos=0 blamed=0 basis=tie-detect class=argument \
         expected=\"write(1, 666)\" got=\"write(2, 2989)\" \
         v0=issued:0:write(2,2989) \
         v1=issued:0:write(1,666) \
         tape0=[0:write(2,2989)] tape1=[0:write(1,666)] \
         site=asan/smash/san.fail.22" );
  ]

let flags = Alcotest.(pair bool (pair bool (pair bool (pair bool (pair bool bool)))))
let flags_of (a, b, c, d, e, f) = (a, (b, (c, (d, (e, f)))))

let pin name pins =
  match List.find_opt (fun (n, _, _) -> n = name) pins with
  | Some (_, pinned, pinned_sig) -> (pinned, pinned_sig)
  | None -> Alcotest.fail (name ^ " has no pin")

let test_monitor_cve_pinned () =
  List.iter
    (fun case ->
      let name = case.Cve.c_program in
      let pinned, pinned_sig = pin name cve_pins in
      let v = Cve.evaluate case in
      Alcotest.check flags (name ^ " verdict") (flags_of pinned)
        (flags_of
           ( v.Cve.v_full_sanitizer, v.Cve.v_variant_a, v.Cve.v_variant_b, v.Cve.v_diverged,
             v.Cve.v_bunshin_detects, v.Cve.v_benign_clean ));
      Alcotest.(check (option string)) (name ^ " incident") pinned_sig
        (Kit.signature v.Cve.v_incident))
    Cve.cases

let test_monitor_ripe_pinned () =
  Alcotest.(check int) "one pin per combination" (List.length Rir.combos) (List.length ripe_pins);
  List.iter
    (fun (c, o) ->
      let name = Format.asprintf "%a" Rir.pp_combo c in
      let pinned, pinned_sig = pin name ripe_pins in
      Alcotest.check flags (name ^ " verdict") (flags_of pinned)
        (flags_of
           ( o.Rir.ro_vanilla_succeeds, o.Rir.ro_asan_detects, o.Rir.ro_bunshin_detects,
             o.Rir.ro_cookie_detects, o.Rir.ro_cfi_detects, o.Rir.ro_benign_clean ));
      Alcotest.(check (option string)) (name ^ " incident") pinned_sig
        (Kit.signature o.Rir.ro_incident))
    (Lazy.force micro_outcomes)

(* The two variants of a case, interpreted on [args]: the CVE split is
   [Cve.variants]; the micro-RIPE split ([smash]'s checks in A, the rest
   in B) is rebuilt here, since [Ripe_ir] does not expose it. *)
let cve_runs case args =
  List.map
    (fun m -> Interp.run m ~entry:case.Cve.c_entry ~args)
    (Cve.variants case)

let ripe_runs c args =
  let m = Rir.program c in
  let asan = Inst.apply_exn [ San.asan ] m in
  let others =
    List.filter_map
      (fun f -> if f.Ast.f_name = "smash" then None else Some f.Ast.f_name)
      m.Ast.m_funcs
  in
  List.map
    (fun in_funcs ->
      Interp.run (Slicer.remove_checks ~in_funcs asan) ~entry:"main" ~args:(args m))
    [ others; [ "smash" ] ]

let detected r = match r.Interp.outcome with Interp.Detected _ -> true | _ -> false
let crashed r = match r.Interp.outcome with Interp.Crashed _ -> true | _ -> false

(* The hand-written predicate the suites used before: a report in either
   variant, or event streams that differ.  The engine also flags a crash
   ("identical copies"); no case here crashes with equal streams. *)
let old_sanitizer_predicate = function
  | [ a; b ] -> detected a || detected b || not (Interp.events_equal a b)
  | _ -> assert false

let test_monitor_matches_old_predicate () =
  List.iter
    (fun case ->
      let v = Cve.evaluate case in
      Alcotest.(check bool) (case.Cve.c_program ^ " engine = predicate")
        (old_sanitizer_predicate (cve_runs case case.Cve.c_exploit_args))
        v.Cve.v_bunshin_detects)
    Cve.cases;
  List.iter
    (fun (c, o) ->
      Alcotest.(check bool)
        (Format.asprintf "%a engine = predicate" Rir.pp_combo c)
        (old_sanitizer_predicate (ripe_runs c (Rir.exploit_args c)))
        o.Rir.ro_bunshin_detects)
    (Lazy.force micro_outcomes)

let test_monitor_benign_silent () =
  (* The variants' group run on benign input ends with every variant
     finished: no false alarm from the monitor, in any case. *)
  let silent label runs =
    let r = Bridge.run_runs runs in
    Alcotest.(check bool) (label ^ " all finished") true (r.Nxe.outcome = `All_finished);
    Alcotest.(check bool) (label ^ " no incident") true (r.Nxe.incident = None);
    Alcotest.(check bool) (label ^ " syncs") true (r.Nxe.synced_syscalls > 0)
  in
  List.iter
    (fun case -> silent case.Cve.c_program (cve_runs case case.Cve.c_benign))
    Cve.cases;
  List.iter
    (fun c ->
      silent (Format.asprintf "%a" Rir.pp_combo c) (ripe_runs c (fun _ -> Rir.benign_args)))
    Rir.combos

(* Two copies of one variant agree on every slot, so only the reaped kill
   can raise the alarm: the group aborts exactly when the copy detected or
   crashed.  This covers variants that all fire a check before any output
   (the CVE A variants' report is their first syscall). *)
let test_monitor_identical_copies () =
  let kills = ref [] in
  let copies label r =
    let g = Bridge.run_runs [ r; r ] in
    let signal =
      match r.Interp.outcome with
      | Interp.Detected _ -> Some "SIGABRT"
      | Interp.Crashed Interp.Div_by_zero -> Some "SIGFPE"
      | Interp.Crashed _ -> Some "SIGSEGV"
      | Interp.Finished _ | Interp.Fuel_exhausted -> None
    in
    let got =
      match g.Nxe.outcome with `Aborted a -> Some a.Nxe.al_got | `All_finished -> None
    in
    Alcotest.(check (option string))
      (label ^ " alarm")
      (Option.map (Printf.sprintf "<killed by %s>") signal)
      got;
    Alcotest.(check bool) (label ^ " incident iff alarm") (got <> None) (g.Nxe.incident <> None);
    Option.iter (fun s -> kills := s :: !kills) signal
  in
  List.iter
    (fun case ->
      List.iteri
        (fun i r -> copies (Printf.sprintf "%s v%d" case.Cve.c_program i) r)
        (cve_runs case case.Cve.c_exploit_args))
    Cve.cases;
  List.iter
    (fun c ->
      List.iteri
        (fun i r -> copies (Format.asprintf "%a v%d" Rir.pp_combo c i) r)
        (ripe_runs c (Rir.exploit_args c)))
    Rir.combos;
  Alcotest.(check bool) "detections covered" true (List.mem "SIGABRT" !kills);
  Alcotest.(check bool) "crashes covered" true (List.mem "SIGSEGV" !kills)

(* Layout-seed grid: the engine's verdict equals the old N-variant
   predicate — a divergence or a crash — on every pair, including the
   diagonal where both variants share one layout and the attack escapes. *)
let test_monitor_nvariant_grid () =
  let m = Nvariant.demo_modul () in
  let config seed = { Interp.default_config with layout_seed = seed } in
  let what = Interp.address_of_func m "evil" in
  let pairs = ref 0 and detections = ref 0 in
  for seed_a = 30 to 45 do
    let where = Interp.address_of_global ~config:(config seed_a) m "dispatch_table" in
    let run seed = Interp.run ~config:(config seed) m ~entry:"main" ~args:[ where; what ] in
    let a = run seed_a in
    for seed_b = 30 to 60 do
      let b = run seed_b in
      let v = Nvariant.evaluate ~seed_a ~seed_b () in
      let want = (not (Interp.events_equal a b)) || crashed a || crashed b in
      Alcotest.(check bool) (Printf.sprintf "seeds %d/%d" seed_a seed_b) want v.Nvariant.nv_detected;
      Alcotest.(check bool)
        (Printf.sprintf "seeds %d/%d benign" seed_a seed_b)
        true v.Nvariant.nv_benign_clean;
      incr pairs;
      if want then incr detections
    done
  done;
  Alcotest.(check (pair int int)) "pairs, detections" (496, 480) (!pairs, !detections);
  Alcotest.(check bool) "shared layout escapes" true (Nvariant.single_layout_escapes ())

let () =
  Alcotest.run ~and_exit:false "bunshin_micro_ripe"
    [
      ( "micro-ripe",
        [
          Alcotest.test_case "vanilla succeeds" `Quick test_micro_ripe_vanilla_all_succeed;
          Alcotest.test_case "asan catches cross-object" `Quick test_micro_ripe_asan_catches_cross_object;
          Alcotest.test_case "intra-object survives" `Quick test_micro_ripe_intra_object_survives;
          Alcotest.test_case "bunshin = asan" `Quick test_micro_ripe_bunshin_equals_asan;
          Alcotest.test_case "detections carry incidents" `Quick
            test_micro_ripe_detections_carry_incidents;
          Alcotest.test_case "benign clean" `Quick test_micro_ripe_benign_clean;
          Alcotest.test_case "weaker defenses" `Quick test_micro_ripe_weaker_defenses;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "cve pinned" `Quick test_monitor_cve_pinned;
          Alcotest.test_case "micro-ripe pinned" `Quick test_monitor_ripe_pinned;
          Alcotest.test_case "engine = old predicate" `Quick test_monitor_matches_old_predicate;
          Alcotest.test_case "benign group runs silent" `Quick test_monitor_benign_silent;
          Alcotest.test_case "identical copies" `Quick test_monitor_identical_copies;
          Alcotest.test_case "nvariant layout grid" `Quick test_monitor_nvariant_grid;
        ] );
    ]
