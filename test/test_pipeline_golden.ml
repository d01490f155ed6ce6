(* Bit-level goldens for the Figure 1 pipeline on SPEC models.

   For each pinned model the harness renders, with every float in hex (so
   the comparison is bit-exact):
   - [Profile.measure]'s total time and per-function work for the
     baseline, ASan, MSan and all-UBSan builds on the train seed;
   - the ASan check-distribution plan derived from that profile and the
     UBSan sanitizer-distribution plan derived from the sub-sanitizer
     solo runs: each variant's sanitizers, checked units and load;
   - the overheads [Experiments.check_distribution],
     [Experiments.ubsan_distribution] and [Experiments.unify_sanitizers]
     report at the paper's seeds.

   Any change to trace generation, cost factors, the profiler or the NXE
   that perturbs a single simulated microsecond of the pipeline fails here.

   Regenerate with:
     BUNSHIN_REGEN_GOLDEN=test/golden dune exec test/test_pipeline_golden.exe *)

open Bunshin
open Kit
module E = Experiments

let models = [ "bzip2"; "gcc"; "hmmer"; "perlbench" ]

let render_plan b tag (plan : Variant.plan) =
  List.iter
    (fun (s : Variant.spec) ->
      line b "%s v%d load=%s sanitizers=%s checked=%s" tag s.Variant.vs_index
        (fl s.Variant.vs_predicted_load)
        (String.concat "," (List.map Sanitizer.name s.Variant.vs_sanitizers))
        (match s.Variant.vs_checked_funcs with
         | None -> "*"
         | Some us -> String.concat "," us))
    plan.Variant.pl_specs

let render_dist b tag (d : E.distribution) =
  line b "%s full=%s variants=[%s] bunshin=%s" tag (fl d.E.cd_full_overhead)
    (fls d.E.cd_variant_overheads) (fl d.E.cd_bunshin_overhead)

let render name =
  let bench = Spec.find name in
  let prog = bench.Bench.prog in
  let b = Buffer.create 8192 in
  let line fmt = line b fmt in
  let measure build = Profile.measure ~machine_config:E.desktop build ~seed:E.train_seed in
  let profile tag build =
    let p = measure build in
    line "profile %s total=%s" tag (fl p.Profile.total_time);
    List.iter (fun (f, w) -> line "  %s %s" f (fl w)) (Lazy.force p.Profile.by_func);
    p
  in
  let base = profile "baseline" (Program.baseline prog) in
  let asan = profile "asan" (Program.full [ Sanitizer.asan ] prog) in
  ignore (profile "msan" (Program.full [ Sanitizer.msan ] prog));
  ignore (profile "ubsan" (Program.full Sanitizer.ubsan_subs prog));
  let overhead_profile = Profile.overhead_by_func ~baseline:base ~instrumented:asan in
  render_plan b "asan-plan"
    (Variant.check_distribution ~n:3 ~sanitizer:Sanitizer.asan ~overhead_profile prog);
  let units =
    List.map
      (fun sub ->
        let t = (measure (Program.full [ sub ] prog)).Profile.total_time in
        ([ sub ], Stats.overhead ~baseline:base.Profile.total_time ~measured:t))
      Sanitizer.ubsan_subs
  in
  List.iter
    (fun (subs, oh) -> line "ubsan-unit %s %s" (Sanitizer.name (List.hd subs)) (fl oh))
    units;
  (match Variant.sanitizer_distribution ~n:3 ~units prog with
   | Ok plan -> render_plan b "ubsan-plan" plan
   | Error e -> line "ubsan-plan error %s" e);
  render_dist b "check_distribution" (E.check_distribution ~n:3 bench);
  render_dist b "ubsan_distribution" (E.ubsan_distribution ~n:3 bench);
  (match E.unify_sanitizers bench with
   | None -> line "unify -"
   | Some u ->
     line "unify asan=%s msan=%s ubsan=%s bunshin=%s extra=%s" (fl u.E.un_asan)
       (fl u.E.un_msan) (fl u.E.un_ubsan) (fl u.E.un_bunshin) (fl u.E.un_extra_over_max));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Harness *)

let test_model name () =
  match Golden.check ("pipeline_" ^ name) (render name) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: pipeline %s" name e

let () =
  Alcotest.run "bunshin_pipeline_golden"
    [
      ( "pipeline-golden",
        List.map (fun name -> Alcotest.test_case name `Quick (test_model name)) models );
    ]
