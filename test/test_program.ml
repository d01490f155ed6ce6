(* Tests for Bunshin_program (traces, builds), Bunshin_profile, and
   Bunshin_variant (the generator pipeline). *)

module Rng = Bunshin_util.Rng
module Sc = Bunshin_syscall.Syscall
module San = Bunshin_sanitizer.Sanitizer
module Cost = Bunshin_sanitizer.Cost_model
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module Profile = Bunshin_profile.Profile
module Variant = Bunshin_variant.Variant
module M = Bunshin_machine.Machine

(* A small synthetic program: two functions with distinct profiles, some
   syscalls, deterministic workload. *)
let toy_program ?(phases = 10) () =
  let funcs =
    [
      { Program.fn_name = "parse"; fn_profile = Cost.control_bound_profile };
      { Program.fn_name = "crunch"; fn_profile = Cost.memory_bound_profile };
    ]
  in
  let gen_trace _rng =
    List.concat
      (List.init phases (fun i ->
           [
             Trace.Work { func = "parse"; cost = 20.0 };
             Trace.Work { func = "crunch"; cost = 80.0 };
             Trace.Sys (Sc.write ~args:[ 1L; Int64.of_int i ] ());
           ]))
  in
  { Program.name = "toy"; funcs; working_set = 1.0; gen_trace }

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_accounting () =
  let t = (toy_program ()).Program.gen_trace (Rng.create 0) in
  Alcotest.(check int) "ops" 30 (Trace.length t);
  Alcotest.(check (float 1e-9)) "work" 1000.0 (Trace.total_work t);
  Alcotest.(check int) "syscalls" 10 (Trace.syscall_count t);
  Alcotest.(check (list (pair string (float 1e-9))))
    "by func"
    [ ("crunch", 800.0); ("parse", 200.0) ]
    (Trace.work_by_func t)

let test_trace_nested_accounting () =
  let t =
    [
      Trace.Work { func = "a"; cost = 1.0 };
      Trace.Spawn [ Trace.Work { func = "b"; cost = 2.0 }; Trace.Sys (Sc.read ()) ];
      Trace.Fork [ Trace.Work { func = "c"; cost = 3.0 } ];
    ]
  in
  Alcotest.(check (float 1e-9)) "nested work" 6.0 (Trace.total_work t);
  Alcotest.(check int) "nested syscalls" 1 (Trace.syscall_count t);
  Alcotest.(check (list string)) "functions" [ "a"; "b"; "c" ] (Trace.functions t)

let test_trace_map_cost_recurses () =
  let t = [ Trace.Spawn [ Trace.Work { func = "b"; cost = 2.0 } ] ] in
  let t' = Trace.scale 3.0 t in
  Alcotest.(check (float 1e-9)) "scaled" 6.0 (Trace.total_work t')

(* ------------------------------------------------------------------ *)
(* Builds *)

let test_baseline_build_is_clean () =
  let prog = toy_program () in
  let t = Program.build_trace (Program.baseline prog) ~seed:1 in
  Alcotest.(check (float 1e-9)) "no inflation" 1000.0 (Trace.total_work t);
  (* Only the program's own syscalls plus markers. *)
  Alcotest.(check int) "no extra syscalls" 10 (Trace.syscall_count t)

let test_full_asan_build_inflates () =
  let prog = toy_program () in
  let t = Program.build_trace (Program.full [ San.asan ] prog) ~seed:1 in
  Alcotest.(check bool) "inflated" true (Trace.total_work t > 1500.0);
  (* Sanitizer runtime syscalls woven in. *)
  Alcotest.(check bool) "extra syscalls" true (Trace.syscall_count t > 10)

let test_full_conflicting_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Program.full [ San.asan; San.msan ] (toy_program ()));
       false
     with Invalid_argument _ -> true)

let test_variant_checks_subset_cheaper () =
  let prog = toy_program () in
  let full = Program.build_trace (Program.full [ San.asan ] prog) ~seed:1 in
  let partial =
    Program.build_trace (Program.variant [ San.asan ] ~checked:[ "parse" ] prog) ~seed:1
  in
  let base = Program.build_trace (Program.baseline prog) ~seed:1 in
  Alcotest.(check bool) "partial between baseline and full" true
    (Trace.total_work partial > Trace.total_work base
    && Trace.total_work partial < Trace.total_work full)

let test_variant_residual_still_paid () =
  (* Even a variant with zero checked functions pays the residual. *)
  let prog = toy_program () in
  let none = Program.build_trace (Program.variant [ San.asan ] ~checked:[] prog) ~seed:1 in
  Alcotest.(check bool) "residual inflation" true (Trace.total_work none > 1000.0)

let test_build_working_set_inflation () =
  let prog = toy_program () in
  Alcotest.(check (float 1e-9)) "baseline ws" 1.0 (Program.build_working_set (Program.baseline prog));
  Alcotest.(check (float 1e-9)) "asan shadows" 1.3
    (Program.build_working_set (Program.full [ San.asan ] prog));
  (* Check distribution does NOT shrink the shadow (§5.7). *)
  Alcotest.(check (float 1e-9)) "variant still shadows" 1.3
    (Program.build_working_set (Program.variant [ San.asan ] ~checked:[ "parse" ] prog))

let test_markers_present () =
  let t = Program.build_trace (Program.full [ San.asan ] (toy_program ())) ~seed:1 in
  let has m = List.exists (fun op -> op = Trace.Marker m) t in
  Alcotest.(check bool) "main marker" true (has Trace.Main_entered);
  Alcotest.(check bool) "exit marker" true (has Trace.About_to_exit);
  (* Pre-main syscalls appear before the main marker. *)
  let rec before_main = function
    | Trace.Marker Trace.Main_entered :: _ -> []
    | op :: rest -> op :: before_main rest
    | [] -> []
  in
  Alcotest.(check bool) "pre-main data collection" true
    (List.exists (function Trace.Sys s -> s.Sc.name = "openat" | _ -> false) (before_main t))

let test_overhead_of_build_model () =
  let prog = toy_program () in
  let oh = Program.overhead_of_build (Program.full [ San.asan ] prog) in
  (* crunch is memory-bound and dominates: overhead should exceed 100%. *)
  Alcotest.(check bool) (Printf.sprintf "oh=%.3f in [0.8, 1.8]" oh) true (oh >= 0.8 && oh <= 1.8)

(* Every Work op of a build's trace is the workload's op scaled by the
   build's cost factor, bit for bit: instrumentation only inflates costs,
   and weaving only inserts Sys ops.  SPEC models give ~1,000 Work ops over
   up to 120 functions per trace. *)
let test_build_trace_scales_work_exactly () =
  let rec work_ops acc = function
    | [] -> acc
    | Trace.Work w :: rest -> work_ops ((w.func, w.cost) :: acc) rest
    | (Trace.Spawn sub | Trace.Fork sub) :: rest -> work_ops (work_ops acc sub) rest
    | _ :: rest -> work_ops acc rest
  in
  let work_ops t = List.rev (work_ops [] t) in
  let spec name = (Bunshin_workloads.Spec.find name).Bunshin_workloads.Bench.prog in
  let hmmer = spec "hmmer" in
  (* Function k keeps k mod 5 of its 4 block groups: fractions 0 to 1. *)
  let units =
    List.concat
      (List.mapi
         (fun k (f : Program.func) ->
           List.init (min 4 (k mod 5)) (Program.block_unit f.Program.fn_name))
         hmmer.Program.funcs)
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (tag, b) ->
      let seed = 2 in
      let expected = work_ops (b.Program.prog.Program.gen_trace (Rng.create seed)) in
      let got = work_ops (Program.build_trace b ~seed) in
      Alcotest.(check int) (tag ^ ": work op count") (List.length expected) (List.length got);
      List.iteri
        (fun i ((f, c), (f', c')) ->
          let want = c *. Program.cost_factor b f in
          if f <> f' || bits want <> bits c' then
            Alcotest.failf "%s: work op %d is %s %h, want %s %h" tag i f' c' f want)
        (List.combine expected got))
    [
      ("asan", Program.full [ San.asan ] (spec "gcc"));
      ("ubsan-19", Program.full San.ubsan_subs (spec "gcc"));
      ("msan", Program.full [ San.msan ] (spec "bzip2"));
      ("asan block_split=4", Program.variant [ San.asan ] ~block_split:4 ~checked:units hmmer);
    ]

(* ------------------------------------------------------------------ *)
(* Profiler *)

let test_profile_baseline () =
  let prog = toy_program () in
  let p = Profile.measure (Program.baseline prog) ~seed:7 in
  Alcotest.(check bool) "total >= work" true (p.Profile.total_time >= 1000.0);
  Alcotest.(check (float 1e-6)) "crunch time" 800.0
    (List.assoc "crunch" (Lazy.force p.Profile.by_func))

let test_profile_overhead_profile () =
  let prog = toy_program () in
  let base = Profile.measure (Program.baseline prog) ~seed:7 in
  let inst = Profile.measure (Program.full [ San.asan ] prog) ~seed:7 in
  let oh = Profile.overhead_by_func ~baseline:base ~instrumented:inst in
  let crunch = List.assoc "crunch" oh and parse = List.assoc "parse" oh in
  Alcotest.(check bool) "both positive" true (crunch > 0.0 && parse > 0.0);
  (* Memory-bound crunch suffers much more under ASan. *)
  Alcotest.(check bool) "crunch >> parse" true (crunch > 2.0 *. parse);
  let total = Profile.total_overhead ~baseline:base ~instrumented:inst in
  Alcotest.(check bool) (Printf.sprintf "total %.3f > 0.5" total) true (total > 0.5)

(* The toy program with a workload generator that counts its calls. *)
let counting_program ~working_set =
  let prog = toy_program () in
  let calls = ref 0 in
  let gen_trace rng =
    incr calls;
    prog.Program.gen_trace rng
  in
  ({ prog with Program.working_set; gen_trace }, calls)

(* ASan inflates a working set 1.3x and the desktop LLC holds 10.0, so a
   program of working set 1.0 fits it and one of 20.0 over-subscribes it.
   Only then is the cache sensitivity needed, and computing it
   ([Program.overhead_of_build]) generates the seed-0 trace once more. *)
let test_profile_computes_lazily () =
  let measure ws =
    let prog, calls = counting_program ~working_set:ws in
    let b = Program.full [ San.asan ] prog in
    (b, Profile.measure ~machine_config:Bunshin.Experiments.desktop b ~seed:7, calls)
  in
  let _, _, calls = measure 1.0 in
  Alcotest.(check int) "fits: one trace" 1 !calls;
  let b, p, calls = measure 20.0 in
  Alcotest.(check int) "over-subscribed: one more for the sensitivity" 2 !calls;
  Alcotest.(check bool) "by_func not built by measure" false (Lazy.is_val p.Profile.by_func);
  let by_func = Lazy.force p.Profile.by_func in
  Alcotest.(check int) "by_func generates no trace" 2 !calls;
  Alcotest.(check (list (pair string (float 0.0))))
    "by_func is the run's trace"
    (Trace.work_by_func (Program.build_trace b ~seed:7))
    by_func

let test_nxe_sensitivity_computed_lazily () =
  let traces ws =
    let prog, calls = counting_program ~working_set:ws in
    let b = Program.full [ San.asan ] prog in
    ignore
      (Bunshin_nxe.Nxe.run_builds ~machine_config:Bunshin.Experiments.desktop ~seed:7
         [ b; b; b ]);
    !calls
  in
  Alcotest.(check int) "fits: one trace per variant" 3 (traces 1.0);
  Alcotest.(check int) "over-subscribed: one more per variant" 6 (traces 20.0)

let test_profile_multithreaded_trace () =
  (* Two worker threads guarded by a lock: executor must not deadlock and
     must account both threads' work. *)
  let prog =
    {
      Program.name = "mt";
      funcs = [ { Program.fn_name = "worker"; fn_profile = Cost.typical_profile } ];
      working_set = 1.0;
      gen_trace =
        (fun _ ->
          let worker =
            [
              Trace.Lock 0;
              Trace.Work { func = "worker"; cost = 10.0 };
              Trace.Unlock 0;
              Trace.Barrier (0, 3);
            ]
          in
          [ Trace.Spawn worker; Trace.Spawn worker ] @ worker);
    }
  in
  let p = Profile.measure (Program.baseline prog) ~seed:1 in
  Alcotest.(check (float 1e-6)) "all three counted" 30.0
    (List.assoc "worker" (Lazy.force p.Profile.by_func));
  Alcotest.(check bool) "finished" true (p.Profile.total_time > 0.0)

(* ------------------------------------------------------------------ *)
(* Variant generator *)

let test_check_distribution_covers () =
  let prog = toy_program () in
  let plan =
    Variant.check_distribution ~n:2 ~sanitizer:San.asan
      ~overhead_profile:[ ("parse", 10.0); ("crunch", 90.0) ]
      prog
  in
  Alcotest.(check int) "two variants" 2 (List.length plan.Variant.pl_specs);
  Alcotest.(check bool) "coverage complete" true (Variant.coverage_complete plan);
  (* Disjointness: no function checked twice. *)
  let all_checked =
    List.concat_map
      (fun s -> Option.value ~default:[] s.Variant.vs_checked_funcs)
      plan.Variant.pl_specs
  in
  Alcotest.(check int) "disjoint" (List.length (List.sort_uniq compare all_checked))
    (List.length all_checked)

let test_check_distribution_balances () =
  let prog =
    {
      (toy_program ()) with
      Program.funcs =
        List.init 10 (fun i ->
            { Program.fn_name = Printf.sprintf "f%d" i; fn_profile = Cost.typical_profile });
    }
  in
  let profile = List.init 10 (fun i -> (Printf.sprintf "f%d" i, 10.0 +. float_of_int i)) in
  let plan = Variant.check_distribution ~n:3 ~sanitizer:San.asan ~overhead_profile:profile prog in
  let loads = List.map (fun s -> s.Variant.vs_predicted_load) plan.Variant.pl_specs in
  let spread = Bunshin_util.Stats.maximum loads -. Bunshin_util.Stats.minimum loads in
  Alcotest.(check bool) (Printf.sprintf "spread %.1f small" spread) true (spread <= 12.0)

let test_sanitizer_distribution_conflict_repair () =
  (* ASan and MSan conflict: with n=2 they must land in different variants. *)
  let prog = toy_program () in
  match Variant.unify ~n:2 [ [ San.asan ]; [ San.msan ] ] prog with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    List.iter
      (fun s ->
        Alcotest.(check bool) "each variant conflict-free" true
          (San.collectively_enforceable s.Variant.vs_sanitizers))
      plan.Variant.pl_specs;
    let names =
      List.concat_map (fun s -> List.map San.name s.Variant.vs_sanitizers) plan.Variant.pl_specs
    in
    Alcotest.(check bool) "both present" true
      (List.mem "ASan" names && List.mem "MSan" names)

let test_sanitizer_distribution_impossible () =
  (* Two conflicting sanitizers cannot share a single variant. *)
  let prog = toy_program () in
  match Variant.unify ~n:1 [ [ San.asan ]; [ San.msan ] ] prog with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected conflict-placement failure"

let test_ubsan_19_subs_distribution () =
  let prog = toy_program () in
  let units = List.map (fun s -> ([ s ], San.group_cost [ s ] Cost.typical_profile)) San.ubsan_subs in
  match Variant.sanitizer_distribution ~n:3 ~units prog with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    let total_subs =
      List.fold_left (fun acc s -> acc + List.length s.Variant.vs_sanitizers) 0 plan.Variant.pl_specs
    in
    Alcotest.(check int) "all subs placed" 19 total_subs;
    (* Loads are within a reasonable band of ideal. *)
    let loads = List.map (fun s -> s.Variant.vs_predicted_load) plan.Variant.pl_specs in
    let total = Bunshin_util.Stats.sum loads in
    let ideal = total /. 3.0 in
    Alcotest.(check bool) "max within 1.4x ideal" true
      (Bunshin_util.Stats.maximum loads <= (ideal *. 1.4) +. 1e-9)

let test_unify_fig8_shape () =
  let prog = toy_program () in
  match Variant.unify ~n:3 [ [ San.asan ]; [ San.msan ]; San.ubsan_subs ] prog with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check int) "three variants" 3 (List.length plan.Variant.pl_specs);
    let builds = Variant.builds plan in
    Alcotest.(check int) "three builds" 3 (List.length builds);
    (* Every build is enforceable and non-empty (3 units into 3 bins). *)
    List.iter
      (fun b ->
        Alcotest.(check bool) "enforceable" true
          (San.collectively_enforceable b.Program.sanitizers))
      builds

let test_end_to_end_generator_pipeline () =
  (* Figure 1 workflow: baseline profile -> instrumented profile -> overhead
     profile -> distribution -> N builds whose max load < full overhead. *)
  let prog = toy_program () in
  let base = Profile.measure (Program.baseline prog) ~seed:3 in
  let inst = Profile.measure (Program.full [ San.asan ] prog) ~seed:3 in
  let oh = Profile.overhead_by_func ~baseline:base ~instrumented:inst in
  let plan = Variant.check_distribution ~n:2 ~sanitizer:San.asan ~overhead_profile:oh prog in
  let builds = Variant.builds plan in
  let times =
    List.map (fun b -> (Profile.measure b ~seed:3).Profile.total_time) builds
  in
  let slowest_variant = Bunshin_util.Stats.maximum times in
  Alcotest.(check bool) "variants beat full instrumentation" true
    (slowest_variant < inst.Profile.total_time);
  Alcotest.(check bool) "variants cost more than baseline" true
    (Bunshin_util.Stats.minimum times > base.Profile.total_time)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_check_distribution_always_covers =
  QCheck.Test.make ~name:"check distribution covers and is disjoint" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 20))
    (fun (n, nfuncs) ->
      let prog =
        {
          Program.name = "p";
          funcs =
            List.init nfuncs (fun i ->
                { Program.fn_name = Printf.sprintf "f%d" i; fn_profile = Cost.typical_profile });
          working_set = 1.0;
          gen_trace = (fun _ -> []);
        }
      in
      let profile = List.init nfuncs (fun i -> (Printf.sprintf "f%d" i, float_of_int (i mod 7))) in
      let plan = Variant.check_distribution ~n ~sanitizer:San.asan ~overhead_profile:profile prog in
      let all =
        List.concat_map
          (fun s -> Option.value ~default:[] s.Variant.vs_checked_funcs)
          plan.Variant.pl_specs
      in
      Variant.coverage_complete plan
      && List.length (List.sort_uniq compare all) = List.length all
      && List.length all = nfuncs)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "bunshin_program"
    [
      ( "trace",
        [
          Alcotest.test_case "accounting" `Quick test_trace_accounting;
          Alcotest.test_case "nested accounting" `Quick test_trace_nested_accounting;
          Alcotest.test_case "map_cost recurses" `Quick test_trace_map_cost_recurses;
        ] );
      ( "builds",
        [
          Alcotest.test_case "baseline clean" `Quick test_baseline_build_is_clean;
          Alcotest.test_case "asan inflates" `Quick test_full_asan_build_inflates;
          Alcotest.test_case "conflicts rejected" `Quick test_full_conflicting_rejected;
          Alcotest.test_case "partial variant cheaper" `Quick test_variant_checks_subset_cheaper;
          Alcotest.test_case "residual still paid" `Quick test_variant_residual_still_paid;
          Alcotest.test_case "working set inflation" `Quick test_build_working_set_inflation;
          Alcotest.test_case "markers present" `Quick test_markers_present;
          Alcotest.test_case "overhead model" `Quick test_overhead_of_build_model;
          Alcotest.test_case "work scales by cost factor" `Quick
            test_build_trace_scales_work_exactly;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "baseline profile" `Quick test_profile_baseline;
          Alcotest.test_case "overhead profile" `Quick test_profile_overhead_profile;
          Alcotest.test_case "multithreaded trace" `Quick test_profile_multithreaded_trace;
          Alcotest.test_case "computes lazily" `Quick test_profile_computes_lazily;
          Alcotest.test_case "nxe sensitivity lazy" `Quick test_nxe_sensitivity_computed_lazily;
        ] );
      ( "variant-generator",
        [
          Alcotest.test_case "check distribution covers" `Quick test_check_distribution_covers;
          Alcotest.test_case "check distribution balances" `Quick test_check_distribution_balances;
          Alcotest.test_case "conflict repair" `Quick test_sanitizer_distribution_conflict_repair;
          Alcotest.test_case "impossible placement" `Quick test_sanitizer_distribution_impossible;
          Alcotest.test_case "ubsan 19 subs" `Quick test_ubsan_19_subs_distribution;
          Alcotest.test_case "unify fig8 shape" `Quick test_unify_fig8_shape;
          Alcotest.test_case "end-to-end pipeline" `Quick test_end_to_end_generator_pipeline;
        ] );
      ("properties", qcheck [ prop_check_distribution_always_covers ]);
    ]
