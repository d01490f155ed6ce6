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

(* lbm/hmmer-like: dominated by array accesses. *)
let memory_bound_profile =
  {
    Cost.mem_op_density = 0.55;
    arith_density = 0.25;
    ptr_density = 0.10;
    branch_density = 0.05;
    alloc_intensity = 0.2;
  }

(* gcc/perlbench-like: branches and calls dominate. *)
let control_bound_profile =
  {
    Cost.mem_op_density = 0.25;
    arith_density = 0.20;
    ptr_density = 0.20;
    branch_density = 0.25;
    alloc_intensity = 6.0;
  }

(* A small synthetic program: two functions with distinct profiles, some
   syscalls, deterministic workload. *)
let toy_program ?(phases = 10) () =
  let funcs =
    [
      { Program.fn_name = "parse"; fn_profile = control_bound_profile };
      { Program.fn_name = "crunch"; fn_profile = memory_bound_profile };
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
  Alcotest.(check (float 1e-9)) "work" 1000.0 (Trace_sum.total_work t);
  Alcotest.(check int) "syscalls" 10 (Trace_sum.syscall_count t);
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
  Alcotest.(check int) "nested ops" 6 (Trace.length t);
  Alcotest.(check (list (pair string (float 1e-9))))
    "nested work" [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ] (Trace.work_by_func t);
  Alcotest.(check (list string)) "functions" [ "a"; "b"; "c" ] (Trace.functions t)

let test_trace_map_cost_recurses () =
  let t = [ Trace.Spawn [ Trace.Work { func = "b"; cost = 2.0 } ] ] in
  let t' = Trace.scale 3.0 t in
  Alcotest.(check (float 1e-9)) "scaled" 6.0 (Trace_sum.total_work t')

(* ------------------------------------------------------------------ *)
(* Builds *)

let test_baseline_build_is_clean () =
  let prog = toy_program () in
  let t = Program.build_trace (Program.baseline prog) ~seed:1 in
  Alcotest.(check (float 1e-9)) "no inflation" 1000.0 (Trace_sum.total_work t);
  (* Only the program's own syscalls plus markers. *)
  Alcotest.(check int) "no extra syscalls" 10 (Trace_sum.syscall_count t)

let test_full_asan_build_inflates () =
  let prog = toy_program () in
  let t = Program.build_trace (Program.full [ San.asan ] prog) ~seed:1 in
  Alcotest.(check bool) "inflated" true (Trace_sum.total_work t > 1500.0);
  (* Sanitizer runtime syscalls woven in. *)
  Alcotest.(check bool) "extra syscalls" true (Trace_sum.syscall_count t > 10)

let test_full_conflicting_rejected () =
  Alcotest.(check bool) "raises" true
    (Kit.invalid (fun () -> Program.full [ San.asan; San.msan ] (toy_program ())))

let test_variant_checks_subset_cheaper () =
  let prog = toy_program () in
  let full = Program.build_trace (Program.full [ San.asan ] prog) ~seed:1 in
  let partial =
    Program.build_trace (Program.variant [ San.asan ] ~checked:[ "parse" ] prog) ~seed:1
  in
  let base = Program.build_trace (Program.baseline prog) ~seed:1 in
  Alcotest.(check bool) "partial between baseline and full" true
    (Trace_sum.total_work partial > Trace_sum.total_work base
    && Trace_sum.total_work partial < Trace_sum.total_work full)

let test_variant_residual_still_paid () =
  (* Even a variant with zero checked functions pays the residual. *)
  let prog = toy_program () in
  let none = Program.build_trace (Program.variant [ San.asan ] ~checked:[] prog) ~seed:1 in
  Alcotest.(check bool) "residual inflation" true (Trace_sum.total_work none > 1000.0)

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
  Alcotest.(check int) "fits: one body for the three builds" 1 (traces 1.0);
  Alcotest.(check int) "over-subscribed: one more for the three sensitivities" 2
    (traces 20.0)

(* A group over two distinct programs: the builds of each share one
   generated body (and, over-subscribed, one seed-0 generation for their
   sensitivities), and each variant runs exactly [Program.build_trace] of
   its own build.  The second program's Work costs 1.5x the first's, with
   the same syscalls, so the group finishes and running either body in the
   other's place shows in the variants' CPU times. *)
let test_nxe_group_shares_body_per_program () =
  List.iter
    (fun (ws, per_program) ->
      let p1, calls1 = counting_program ~working_set:ws in
      let p2, calls2 =
        let p, calls = counting_program ~working_set:ws in
        let gen_trace r = Trace.scale 1.5 (p.Program.gen_trace r) in
        ({ p with Program.name = "toy2"; gen_trace }, calls)
      in
      let builds =
        [
          Program.full [ San.asan ] p1;
          Program.full [ San.asan ] p2;
          Program.variant [ San.asan ] ~checked:[ "parse" ] p1;
          Program.baseline p2;
        ]
      in
      let desktop = Bunshin.Experiments.desktop in
      let got = Bunshin_nxe.Nxe.run_builds ~machine_config:desktop ~seed:7 builds in
      let label = Printf.sprintf "working set %g" ws in
      Alcotest.(check (pair int int))
        (label ^ ": generations per program")
        (per_program, per_program) (!calls1, !calls2);
      let want =
        Bunshin_nxe.Nxe.run_traces ~machine_config:desktop
          ~working_sets:(List.map Program.build_working_set builds)
          ~sensitivities:
            (List.map (fun b -> lazy (1.0 /. (1.0 +. Program.overhead_of_build b))) builds)
          ~names:
            (List.mapi
               (fun i (b : Program.build) -> Printf.sprintf "v%d-%s" i b.Program.prog.Program.name)
               builds)
          (List.map (fun b -> Program.build_trace b ~seed:7) builds)
      in
      Alcotest.(check bool)
        (label ^ ": finished") true
        (got.Bunshin_nxe.Nxe.outcome = `All_finished);
      Alcotest.(check string)
        (label ^ ": each variant runs its build's trace")
        (Bunshin_nxe.Nxe.report_signature want)
        (Bunshin_nxe.Nxe.report_signature got))
    [ (1.0, 1); (20.0, 2) ]

(* [measure] runs Work ops as plain computes; [exec_build] carves each
   function's sanitizer share out of them.  Both give the same bursts, so
   the same total time, bit for bit. *)
let test_measure_equals_exec_build () =
  let spec name = (Bunshin_workloads.Spec.find name).Bunshin_workloads.Bench.prog in
  let bzip2 = spec "bzip2" and gcc = spec "gcc" in
  let half =
    List.filteri (fun i _ -> i mod 2 = 0)
      (List.map (fun (f : Program.func) -> f.Program.fn_name) bzip2.Program.funcs)
  in
  List.iter
    (fun (label, b) ->
      let config = Bunshin.Experiments.desktop in
      let m = M.create ~config () in
      ignore (Profile.exec_build m b ~seed:2);
      M.run m;
      let want = (M.stats m).M.total_time in
      let got = (Profile.measure ~machine_config:config b ~seed:2).Profile.total_time in
      Alcotest.(check bool) (label ^ ": ran") true (want > 0.0);
      Alcotest.(check int64) label (Int64.bits_of_float want) (Int64.bits_of_float got))
    [
      ("bzip2 ASan", Program.full [ San.asan ] bzip2);
      ("gcc ASan", Program.full [ San.asan ] gcc);
      ("bzip2 UBSan variant", Program.variant San.ubsan_subs ~checked:half bzip2);
    ]

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
  let prog = toy_program () in
  let plan_of = function Ok plan -> plan | Error e -> Alcotest.fail e in
  (* ASan and MSan conflict: with n=2 they must land in different variants. *)
  let plan = plan_of (Variant.unify ~n:2 [ [ San.asan ]; [ San.msan ] ] prog) in
  List.iter
    (fun s ->
      Alcotest.(check bool) "each variant conflict-free" true
        (San.collectively_enforceable s.Variant.vs_sanitizers))
    plan.Variant.pl_specs;
  let sans =
    List.concat_map (fun s -> List.map San.name s.Variant.vs_sanitizers) plan.Variant.pl_specs
  in
  Alcotest.(check bool) "both present" true (List.mem "ASan" sans && List.mem "MSan" sans);
  (* The partition balances SoftBound (11) against ASan (10) + MSan (1),
     which conflict; the repair moves the lighter MSan over to SoftBound. *)
  let units = [ ([ San.asan ], 10.0); ([ San.msan ], 1.0); ([ San.softbound ], 11.0) ] in
  let plan = plan_of (Variant.sanitizer_distribution ~n:2 ~units prog) in
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "the lighter unit moves" [ ([ "ASan" ], 10.0); ([ "MSan"; "SoftBound" ], 12.0) ]
    (List.sort compare
       (List.map
          (fun s ->
            (List.sort compare (List.map San.name s.Variant.vs_sanitizers),
             s.Variant.vs_predicted_load))
          plan.Variant.pl_specs))

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

(* ------------------------------------------------------------------ *)
(* One-pass trace building against the multi-pass reference.  The
   references below are the earlier implementations, kept verbatim in
   behaviour: generators that build one list per unit and concatenate,
   and a build that scales costs with [map_cost], weaves the
   runtime's in-execution syscalls in a second pass, splices the phases
   with [@], and applies a variant's jitter in a last [map_cost]. *)

module Bench = Bunshin_workloads.Bench

let ref_cpu_trace ~funcs ~units ~unit_cost ~syscall_every rng =
  let weighted = Rng.weighted (Array.of_list funcs) in
  let burst_every = max 1 (units / 3) in
  List.concat
    (List.init units (fun i ->
         let fname = Rng.draw rng weighted in
         let jitter = Rng.float_in rng 0.85 1.15 in
         let unit_op = Trace.Work { func = fname; cost = unit_cost *. jitter } in
         let regular =
           if syscall_every > 0 && (i + 1) mod syscall_every = 0 then
             let sc =
               if (i / syscall_every) mod 12 = 11 then Sc.write ~args:[ 1L; Int64.of_int i ] ()
               else Sc.read ~args:[ 3L; Int64.of_int i ] ()
             in
             [ unit_op; Trace.Sys sc ]
           else [ unit_op ]
         in
         if syscall_every > 0 && (i + 1) mod burst_every = 0 then
           (* 24 reads per phase burst, the generator's [phase_burst_reads]. *)
           regular
           @ List.concat
               (List.init 24 (fun k ->
                    [
                      Trace.Work { func = fname; cost = unit_cost *. 0.05 };
                      Trace.Sys (Sc.read ~args:[ 3L; Int64.of_int ((i * 100) + k) ] ());
                    ]))
         else regular))

let ref_worker_trace ~funcs ~units ~unit_cost ~stall ~racy ~lock_every ~barrier_every ~threads
    ~barrier_base rng =
  let weighted = Rng.weighted (Array.of_list funcs) in
  let barrier_counter = ref 0 in
  List.concat
    (List.init units (fun i ->
         let fname = Rng.draw rng weighted in
         let jitter = Rng.float_in rng 0.85 1.15 in
         let unit_op = Trace.Work { func = fname; cost = unit_cost *. jitter } in
         let ops =
           ref (if stall > 0.0 then [ unit_op; Trace.Idle (unit_cost *. stall) ] else [ unit_op ])
         in
         if racy && (i + 1) mod 10 = 0 then
           ops := !ops @ [ Trace.Incr 9; Trace.Sys_shared (Sc.read ~args:[ 3L ] (), 9) ];
         if lock_every > 0 && (i + 1) mod lock_every = 0 then begin
           let lock_id = (i / lock_every) mod 4 in
           ops :=
             [ Trace.Lock lock_id; Trace.Work { func = fname; cost = unit_cost *. 0.1 };
               Trace.Unlock lock_id ]
             @ !ops
         end;
         if barrier_every > 0 && (i + 1) mod barrier_every = 0 then begin
           let b = barrier_base + !barrier_counter in
           incr barrier_counter;
           ops := !ops @ [ Trace.Barrier (b, threads) ]
         end;
         !ops))

let ref_threaded_trace ?(stall = 0.5) ?(racy = false) ~funcs ~threads ~units_per_thread
    ~unit_cost ~lock_every ~barrier_every rng =
  let mk () =
    ref_worker_trace ~funcs ~units:units_per_thread ~unit_cost ~stall ~racy ~lock_every
      ~barrier_every ~threads ~barrier_base:0 rng
  in
  let workers = List.init (threads - 1) (fun _ -> Trace.Spawn (mk ())) in
  workers @ mk ()

let ref_runtime_syscalls sans phase =
  let seen = Hashtbl.create 8 in
  let reps =
    List.filter
      (fun (s : San.t) ->
        if Hashtbl.mem seen s.San.family then false
        else begin
          Hashtbl.replace seen s.San.family ();
          true
        end)
      sans
  in
  List.concat_map (fun s -> San.introduced_syscalls s phase) reps

let rec map_cost f t =
  List.map
    (fun op ->
      match op with
      | Trace.Work w -> Trace.Work { w with cost = f w.func w.cost }
      | Trace.Spawn sub -> Trace.Spawn (map_cost f sub)
      | Trace.Fork sub -> Trace.Fork (map_cost f sub)
      | op -> op)
    t

let ref_build_trace (b : Program.build) ~seed =
  let body = b.Program.prog.Program.gen_trace (Rng.create seed) in
  let body =
    if b.Program.sanitizers = [] then body
    else map_cost (fun f c -> c *. Program.cost_factor b f) body
  in
  let extra = ref_runtime_syscalls b.Program.sanitizers San.In_execution in
  let body =
    if extra = [] then body
    else begin
      let acc = ref 0.0 in
      List.concat_map
        (fun op ->
          match op with
          | Trace.Work w ->
            acc := !acc +. w.cost;
            if !acc >= 500.0 then begin
              acc := !acc -. 500.0;
              op :: List.map (fun s -> Trace.Sys s) extra
            end
            else [ op ]
          | _ -> [ op ])
        body
    end
  in
  let sys phase = List.map (fun s -> Trace.Sys s) (ref_runtime_syscalls b.Program.sanitizers phase) in
  sys San.Pre_main @ (Trace.Marker Trace.Main_entered :: body)
  @ (Trace.Marker Trace.About_to_exit :: sys San.Post_exit)

let ref_jitter jitter trace =
  match jitter with None -> trace | Some j -> map_cost (fun f c -> c *. j f) trace

(* Structural equality with every float compared bit for bit. *)
let rec same_trace a b =
  let bits = Int64.bits_of_float in
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys ->
    (match (x, y) with
     | Trace.Work w, Trace.Work w' -> String.equal w.func w'.func && bits w.cost = bits w'.cost
     | Trace.Idle d, Trace.Idle d' -> bits d = bits d'
     | (Trace.Spawn s, Trace.Spawn s') | (Trace.Fork s, Trace.Fork s') -> same_trace s s'
     | _ -> x = y)
    && same_trace xs ys
  | _ -> false

(* Random generator parameters: 1-6 functions (one function, and
   syscall_every = 0, included). *)
let gen_funcs rng =
  let n = Rng.int_in rng 1 6 in
  List.init n (fun i -> (Printf.sprintf "g%d" i, 0.05 +. Rng.float rng 1.0))

let gen_cpu rng =
  let funcs = gen_funcs rng in
  let units = Rng.int_in rng 0 160 in
  let unit_cost = 1.0 +. Rng.float rng 60.0 in
  let syscall_every = if Rng.chance rng 0.2 then 0 else Rng.int_in rng 1 9 in
  (funcs, units, unit_cost, syscall_every)

let gen_worker rng =
  let funcs = gen_funcs rng in
  ( funcs,
    Rng.int_in rng 0 60,
    1.0 +. Rng.float rng 60.0,
    (if Rng.bool rng then 0.0 else Rng.float rng 1.0),
    Rng.bool rng,
    Rng.int_in rng 0 7,
    Rng.int_in rng 0 7,
    Rng.int_in rng 1 4 )

let program_of ~name funcs gen_trace =
  let profiles = [| Cost.typical_profile; memory_bound_profile; control_bound_profile |] in
  {
    Program.name;
    funcs =
      List.mapi
        (fun i (f, _) -> { Program.fn_name = f; fn_profile = profiles.(i mod 3) })
        funcs;
    working_set = 1.0;
    gen_trace;
  }

let builds_of rng (prog : Program.t) =
  let units =
    List.concat_map
      (fun (f : Program.func) ->
        List.filter (fun _ -> Rng.bool rng) (List.init 4 (Program.block_unit f.Program.fn_name)))
      prog.Program.funcs
  in
  [ ("baseline", Program.baseline prog); ("asan", Program.full [ San.asan ] prog) ]
  @ List.map (fun s -> (San.name s, Program.full [ s ] prog)) San.ubsan_subs
  @ [
      ("ubsan-19", Program.full San.ubsan_subs prog);
      ("msan", Program.full [ San.msan ] prog);
      ("asan block_split=4", Program.variant [ San.asan ] ~block_split:4 ~checked:units prog);
    ]

let jitter_of seed =
  Some
    (fun f ->
      let r = Rng.create (Hashtbl.hash (seed, 1, f)) in
      Rng.float_in r 0.9 1.1)

let prop_generators_match_reference =
  QCheck.Test.make ~count:200 ~name:"generators match the concatenating reference" QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let funcs, units, unit_cost, syscall_every = gen_cpu rng in
      let cpu gen = gen ~funcs ~units ~unit_cost ~syscall_every (Rng.create seed) in
      let funcs, units, unit_cost, stall, racy, lock_every, barrier_every, threads =
        gen_worker rng
      in
      let threaded gen =
        gen ?stall:(Some stall) ?racy:(Some racy) ~funcs ~threads ~units_per_thread:units
          ~unit_cost ~lock_every ~barrier_every (Rng.create seed)
      in
      same_trace (cpu Bench.cpu_trace) (cpu ref_cpu_trace)
      && same_trace (threaded Bench.threaded_trace) (threaded ref_threaded_trace))

let prop_build_matches_reference =
  QCheck.Test.make ~count:40 ~name:"one-pass build matches map_cost, weave, splice, jitter"
    QCheck.(pair int small_nat)
    (fun (pseed, tseed) ->
      let rng = Rng.create pseed in
      let funcs, units, unit_cost, syscall_every = gen_cpu rng in
      let wfuncs, wunits, wcost, stall, racy, lock_every, barrier_every, threads =
        gen_worker rng
      in
      (* A single-threaded CPU workload, and one that spawns worker
         threads, so Spawn bodies are rescaled but not woven. *)
      let cpu =
        program_of ~name:"cpu" funcs (Bench.cpu_trace ~funcs ~units ~unit_cost ~syscall_every)
      in
      let threaded =
        program_of ~name:"threaded" wfuncs (fun r ->
            Bench.cpu_trace ~funcs:wfuncs ~units ~unit_cost ~syscall_every r
            @ Bench.threaded_trace ~stall ~racy ~funcs:wfuncs ~threads ~units_per_thread:wunits
                ~unit_cost:wcost ~lock_every ~barrier_every r)
      in
      List.for_all
        (fun prog ->
          List.for_all
            (fun (tag, b) ->
              List.for_all
                (fun jitter ->
                  let got, factors = Program.build_trace_factored ?jitter b ~seed:tseed in
                  let want = ref_jitter jitter (ref_build_trace b ~seed:tseed) in
                  let factors_ok =
                    List.for_all
                      (fun (f, _) ->
                        Int64.bits_of_float (Program.factor factors f)
                        = Int64.bits_of_float (Program.cost_factor b f))
                      (Trace.work_by_func got)
                  in
                  same_trace got want && factors_ok
                  || QCheck.Test.fail_reportf "%s/%s differs (jitter %b, seed %d)"
                       prog.Program.name tag (Option.is_some jitter) tseed)
                [ None; jitter_of tseed ])
            (builds_of rng prog))
        [ cpu; threaded ])

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
          Alcotest.test_case "nxe body per program" `Quick test_nxe_group_shares_body_per_program;
          Alcotest.test_case "measure equals exec_build" `Quick test_measure_equals_exec_build;
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
      ( "properties",
        Kit.qcheck
          [
            prop_check_distribution_always_covers;
            prop_generators_match_reference;
            prop_build_matches_reference;
          ] );
    ]
