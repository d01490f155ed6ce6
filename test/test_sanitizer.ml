(* Tests for Bunshin_sanitizer: taxonomy, registry, cost models,
   IR instrumentation. *)

open Bunshin_ir
module B = Builder
module San = Bunshin_sanitizer.Sanitizer
module Cost = Bunshin_sanitizer.Cost_model
module Err = Bunshin_sanitizer.Memory_error
module Inst = Bunshin_sanitizer.Instrument

(* ------------------------------------------------------------------ *)
(* Taxonomy (Table 1) *)

let test_taxonomy_coverage () =
  (* Table 1's Defenses column. *)
  let row err = San.coverage_row err in
  let mem name l = List.mem name l in
  Alcotest.(check bool) "oob write: SoftBound+ASan" true
    (mem "SoftBound" (row Err.Out_of_bounds_write) && mem "ASan" (row Err.Out_of_bounds_write));
  Alcotest.(check bool) "uaf: CETS+ASan" true
    (mem "CETS" (row Err.Use_after_free) && mem "ASan" (row Err.Use_after_free));
  Alcotest.(check bool) "uninit: MSan only of the big four" true
    (mem "MSan" (row Err.Uninitialized_read) && not (mem "ASan" (row Err.Uninitialized_read)));
  Alcotest.(check bool) "div-by-zero: a UBSan sub" true
    (List.exists (fun n -> n = "ubsan:integer-divide-by-zero")
       (row (Err.Undefined Err.Div_by_zero)))

let test_hazard_classification () =
  Alcotest.(check string) "oob write" (Err.name Err.Out_of_bounds_write)
    (Err.name (Err.of_hazard (Interp.Oob_write 0L)));
  Alcotest.(check string) "uaf" (Err.name Err.Use_after_free)
    (Err.name (Err.of_hazard (Interp.Uaf_read 0L)))

(* ------------------------------------------------------------------ *)
(* Registry: conflicts and groups *)

let test_asan_msan_conflict () =
  Alcotest.(check bool) "conflict" true (San.conflict San.asan San.msan);
  Alcotest.(check bool) "symmetric" true (San.conflict San.msan San.asan);
  Alcotest.(check bool) "not self" false (San.conflict San.asan San.asan)

let test_softbound_cets_compatible () =
  Alcotest.(check bool) "no conflict" false (San.conflict San.softbound San.cets);
  Alcotest.(check bool) "enforceable together" true
    (San.collectively_enforceable [ San.softbound; San.cets ])

let test_collectively_enforceable () =
  Alcotest.(check bool) "asan+ubsan ok" true
    (San.collectively_enforceable (San.asan :: San.ubsan_subs));
  Alcotest.(check bool) "asan+msan not" false
    (San.collectively_enforceable [ San.asan; San.msan ]);
  Alcotest.(check bool) "empty ok" true (San.collectively_enforceable [])

let test_ubsan_has_19_subs () =
  Alcotest.(check int) "19 subs" 19 (List.length San.ubsan_subs);
  Alcotest.(check int) "names unique" 19
    (List.length (List.sort_uniq compare (List.map San.name San.ubsan_subs)))

let test_find_ubsan_sub () =
  Alcotest.(check bool) "found" true (San.find_ubsan_sub "shift" <> None);
  Alcotest.(check bool) "missing" true (San.find_ubsan_sub "frobnicate" = None)

(* ------------------------------------------------------------------ *)
(* Cost model calibration (paper §5.4, §5.5) *)

let test_asan_cost_near_107 () =
  (* ASan on a SPEC-like mix is about a 2x slowdown (paper: 107% average;
     per-benchmark spread comes from the workload profiles). *)
  let oh = Cost.total San.asan.San.cost Cost.typical_profile in
  Alcotest.(check bool) (Printf.sprintf "0.8 <= %.3f <= 1.3" oh) true (oh >= 0.8 && oh <= 1.3)

let test_asan_memory_bound_is_outlier_heavy () =
  (* lbm, one of the paper's ASan outliers, is dominated by array accesses. *)
  let lbm = Bunshin_workloads.Spec.find "lbm" in
  let membound_profile =
    (List.hd lbm.Bunshin_workloads.Bench.prog.Bunshin_program.Program.funcs)
      .Bunshin_program.Program.fn_profile
  in
  let typical = Cost.total San.asan.San.cost Cost.typical_profile in
  let membound = Cost.total San.asan.San.cost membound_profile in
  Alcotest.(check bool) "memory-bound costs more" true (membound > typical)

let test_ubsan_subs_individually_cheap () =
  List.iter
    (fun s ->
      let oh = Cost.total s.San.cost Cost.typical_profile in
      Alcotest.(check bool)
        (Printf.sprintf "%s <= 40%% (got %.3f)" (San.name s) oh)
        true (oh <= 0.40 +. 1e-9))
    San.ubsan_subs

let test_ubsan_combined_228 () =
  let combined = San.group_cost San.ubsan_subs Cost.typical_profile in
  Alcotest.(check bool) (Printf.sprintf "2.0 <= %.3f <= 2.5" combined) true
    (combined >= 2.0 && combined <= 2.5)

let test_ubsan_synergy_negative () =
  (* Individually enforcing each sub costs more in total than the combined
     build: the shared metadata gain (appendix O_synergy < 0). *)
  let sum =
    Bunshin_util.Stats.sum
      (List.map (fun s -> Cost.total s.San.cost Cost.typical_profile) San.ubsan_subs)
  in
  let combined = San.group_cost San.ubsan_subs Cost.typical_profile in
  Alcotest.(check bool) "sum > combined" true (sum > combined)

let test_softbound_cets_sum () =
  (* Paper §1: combining SoftBound and CETS yields ~110%, near the sum of
     the two. *)
  let p = Cost.typical_profile in
  let combined = San.group_cost [ San.softbound; San.cets ] p in
  Alcotest.(check bool) (Printf.sprintf "0.8 <= %.3f <= 1.4" combined) true
    (combined >= 0.8 && combined <= 1.4)

let test_cpi_much_cheaper_than_softbound () =
  let p = Cost.typical_profile in
  let cpi = Cost.total San.cpi.San.cost p in
  let sb = Cost.total San.softbound.San.cost p in
  Alcotest.(check bool) "cpi < sb / 4" true (cpi < sb /. 4.0)

let test_group_cost_shares_family_residual () =
  let p = Cost.typical_profile in
  let one = San.group_cost [ List.nth San.ubsan_subs 0 ] p in
  let two = San.group_cost [ List.nth San.ubsan_subs 0; List.nth San.ubsan_subs 1 ] p in
  let separately =
    Cost.total (List.nth San.ubsan_subs 0).San.cost p
    +. Cost.total (List.nth San.ubsan_subs 1).San.cost p
  in
  Alcotest.(check bool) "grouping saves" true (two < separately);
  Alcotest.(check bool) "monotone" true (two > one)

let test_introduced_syscall_phases () =
  let pre = San.introduced_syscalls San.asan San.Pre_main in
  let post = San.introduced_syscalls San.asan San.Post_exit in
  Alcotest.(check bool) "pre-main reads /proc" true
    (List.exists (fun s -> s.Bunshin_syscall.Syscall.name = "openat") pre);
  Alcotest.(check bool) "post-exit writes report" true
    (List.exists (fun s -> s.Bunshin_syscall.Syscall.klass = Bunshin_syscall.Syscall.Io_write) post);
  Alcotest.(check bool) "ubsan sub light pre-main" true
    (San.introduced_syscalls (List.hd San.ubsan_subs) San.Pre_main = [])

(* ------------------------------------------------------------------ *)
(* IR instrumentation *)

let test_asan_instrument_valid_ir () =
  let m = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  Verify.check_exn m

let test_asan_benign_behavior_preserved () =
  let base = Kit.heap_prog () in
  let inst = Inst.apply_exn [ San.asan ] base in
  let r0 = Kit.run_main base [ 2L ] in
  let r1 = Kit.run_main inst [ 2L ] in
  Alcotest.(check bool) "same events" true (Interp.events_equal r0 r1);
  Alcotest.(check bool) "finished" true
    (match r1.Interp.outcome with Interp.Finished _ -> true | _ -> false)

let test_asan_detects_oob () =
  let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  let r = Kit.run_main inst [ 4L ] in
  Alcotest.(check bool) "detected oob store" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__asan_report_store"
     | _ -> false)

let test_uninstrumented_misses_oob () =
  let r = Kit.run_main (Kit.heap_prog ()) [ 4L ] in
  Alcotest.(check bool) "silent corruption" true
    (match r.Interp.outcome with Interp.Finished _ -> true | _ -> false)

let test_asan_detects_double_free () =
  let b = B.create "df" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 2 ] in
  B.call_void b "free" [ p ];
  B.call_void b "free" [ p ];
  B.ret b None;
  let inst = Inst.apply_exn [ San.asan ] (B.finish b) in
  let r = Kit.run_main inst [] in
  Alcotest.(check bool) "detected" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__asan_report_free"
     | _ -> false)

let test_msan_detects_uninit () =
  let b = B.create "uninit" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 1 ] in
  let v = B.load b p in
  B.call_void b "print" [ v ];
  B.ret b None;
  let m = B.finish b in
  let inst = Inst.apply_exn [ San.msan ] m in
  let r = Kit.run_main inst [] in
  Alcotest.(check bool) "detected" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__msan_report"
     | _ -> false);
  (* ASan does NOT catch uninitialised reads. *)
  let asan_inst = Inst.apply_exn [ San.asan ] m in
  let r2 = Kit.run_main asan_inst [] in
  Alcotest.(check bool) "asan misses it" true
    (match r2.Interp.outcome with Interp.Finished _ -> true | _ -> false)

let test_ubsan_div_by_zero () =
  let b = B.create "div" in
  B.start_func b ~name:"main" ~params:[ "n" ];
  let v = B.sdiv b (B.cst 100) (Ast.Reg "n") in
  B.call_void b "print" [ v ];
  B.ret b None;
  let m = B.finish b in
  let sub = Option.get (San.find_ubsan_sub "integer-divide-by-zero") in
  let inst = Inst.apply_exn [ sub ] m in
  let ok = Kit.run_main inst [ 4L ] in
  Alcotest.(check bool) "benign" true (ok.Interp.events = [ Interp.Output 25L ]);
  let bad = Kit.run_main inst [ 0L ] in
  Alcotest.(check bool) "detected before SIGFPE" true
    (match bad.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__ubsan_report_divrem"
     | _ -> false)

let test_ubsan_signed_overflow () =
  let b = B.create "ovf" in
  B.start_func b ~name:"main" ~params:[ "x" ];
  let v = B.add b (Ast.Reg "x") (B.cst 1) in
  B.call_void b "print" [ v ];
  B.ret b None;
  let sub = Option.get (San.find_ubsan_sub "signed-integer-overflow") in
  let inst = Inst.apply_exn [ sub ] (B.finish b) in
  let ok = Kit.run_main inst [ 5L ] in
  Alcotest.(check bool) "benign" true (ok.Interp.events = [ Interp.Output 6L ]);
  let bad = Kit.run_main inst [ Int64.max_int ] in
  Alcotest.(check bool) "overflow detected" true
    (match bad.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__ubsan_report_overflow"
     | _ -> false)

let test_conflicting_instrumentation_rejected () =
  match Inst.apply [ San.asan; San.msan ] (Kit.heap_prog ()) with
  | Ok _ -> Alcotest.fail "expected conflict error"
  | Error msg -> Alcotest.(check bool) "mentions conflict" true (String.length msg > 0)

let test_compatible_pair_composes () =
  (* ASan + a UBSan sub in the same binary: both checks fire. *)
  let sub = Option.get (San.find_ubsan_sub "integer-divide-by-zero") in
  let b = B.create "both" in
  B.start_func b ~name:"main" ~params:[ "idx"; "n" ];
  let p = B.call b "malloc" [ B.cst 4 ] in
  let q = B.gep b p (Ast.Reg "idx") in
  B.store b (B.cst 1) q;
  let v = B.sdiv b (B.cst 10) (Ast.Reg "n") in
  B.call_void b "print" [ v ];
  B.ret b None;
  let inst = Inst.apply_exn [ San.asan; sub ] (B.finish b) in
  Verify.check_exn inst;
  let oob = Kit.run_main inst [ 9L; 1L ] in
  Alcotest.(check bool) "asan fires" true
    (match oob.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__asan_report_store"
     | _ -> false);
  let div0 = Kit.run_main inst [ 1L; 0L ] in
  Alcotest.(check bool) "ubsan fires" true
    (match div0.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__ubsan_report_divrem"
     | _ -> false)

let test_only_restricts_functions () =
  let b = B.create "two" in
  B.start_func b ~name:"helper" ~params:[ "p" ];
  let v = B.load b (Ast.Reg "p") in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[ "idx" ];
  let p = B.call b "malloc" [ B.cst 2 ] in
  let q = B.gep b p (Ast.Reg "idx") in
  B.store b (B.cst 3) q;
  let v = B.call b "helper" [ q ] in
  B.ret b (Some v);
  let m = B.finish b in
  let inst = Inst.apply_exn [ San.asan ] ~only:[ "helper" ] m in
  (* OOB store in main is unchecked; the load in helper is checked. *)
  let r = Kit.run_main inst [ 2L ] in
  Alcotest.(check bool) "helper check fires on oob ptr" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_func = "helper"
     | _ -> false)

let test_check_count () =
  let base = Kit.heap_prog () in
  let inst = Inst.apply_exn [ San.asan ] base in
  (* One store + one load = two ASan checks (malloc is not an access). *)
  let checks m = List.length (Bunshin_slicer.Slicer.discover m) in
  Alcotest.(check int) "two checks" 2 (checks inst - checks base)

let test_metadata_globals_added () =
  let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  Alcotest.(check bool) "asan ctr global" true
    (List.exists (fun g -> g.Ast.g_name = "__asan_shadow_ctr") inst.Ast.m_globals)

let test_instrument_phi_labels_fixed () =
  (* A loop whose body gets split by checks must still verify and run:
     phi incoming labels have to be renamed to the final segment. *)
  let m =
    let f_blocks =
      [
        { Ast.b_label = "entry"; b_instrs = []; b_term = Ast.Br "head" };
        {
          Ast.b_label = "head";
          b_instrs =
            [
              Ast.Phi ("i", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "i2") ]);
              Ast.Cmp ("c", Ast.Slt, Ast.Reg "i", Ast.Int 3L);
            ];
          b_term = Ast.CondBr (Ast.Reg "c", "body", "exit");
        };
        {
          Ast.b_label = "body";
          b_instrs =
            [
              Ast.Call (Some "p", "malloc", [ Ast.Int 1L ]);
              Ast.Store (Ast.Reg "i", Ast.Reg "p");
              Ast.Load ("v", Ast.Reg "p");
              Ast.Call (None, "print", [ Ast.Reg "v" ]);
              Ast.Bin ("i2", Ast.Add, Ast.Reg "i", Ast.Int 1L);
            ];
          b_term = Ast.Br "head";
        };
        { Ast.b_label = "exit"; b_instrs = []; b_term = Ast.Ret (Some (Ast.Reg "i")) };
      ]
    in
    {
      Ast.m_name = "loop";
      m_globals = [];
      m_funcs = [ { Ast.f_name = "main"; f_params = []; f_blocks } ];
    }
  in
  Verify.check_exn m;
  let inst = Inst.apply_exn [ San.asan ] m in
  Verify.check_exn inst;
  let r0 = Kit.run_main m [] in
  let r1 = Kit.run_main inst [] in
  Alcotest.(check bool) "loop behaves" true (Interp.events_equal r0 r1);
  Alcotest.(check bool) "3 iterations" true
    (r0.Interp.events = [ Interp.Output 0L; Interp.Output 1L; Interp.Output 2L ])

(* SoftBound is spatial-only, CETS temporal-only; together they cover the
   110%-combo of the paper's §1. *)
let uaf_prog () =
  let b = B.create "uaf" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 2 ] in
  B.store b (B.cst 5) p;
  B.call_void b "free" [ p ];
  let v = B.load b p in
  B.ret b (Some v);
  B.finish b

(* The only use after free is a store. *)
let uaf_store_prog () =
  let b = B.create "uaf_store" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 2 ] in
  B.call_void b "free" [ p ];
  B.store b (B.cst 5) p;
  B.ret b None;
  B.finish b

let oob_prog () =
  let b = B.create "oob" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 2 ] in
  B.store b (B.cst 5) (B.gep b p (B.cst 2));
  B.ret b None;
  B.finish b

let detected_by sans m =
  match (Interp.run (Inst.apply_exn sans m) ~entry:"main" ~args:[]).Interp.outcome with
  | Interp.Detected d -> Some d.Interp.d_handler
  | _ -> None

let test_softbound_spatial_only () =
  Alcotest.(check bool) "softbound catches oob" true
    (detected_by [ San.softbound ] (oob_prog ()) <> None);
  Alcotest.(check bool) "softbound misses uaf" true
    (detected_by [ San.softbound ] (uaf_prog ()) = None)

let test_cets_temporal_only () =
  (* CETS flags the use-after-free (at the free or the stale access)... *)
  Alcotest.(check bool) "cets catches uaf" true
    (detected_by [ San.cets ] (uaf_prog ()) <> None);
  Alcotest.(check (option string)) "cets catches a store after free" (Some "__cets_report")
    (detected_by [ San.cets ] (uaf_store_prog ()));
  (* ...but not a pure spatial overflow into the redzone. *)
  Alcotest.(check bool) "cets misses oob into redzone" true
    (detected_by [ San.cets ] (oob_prog ()) = None)

let test_softbound_cets_combo_covers_both () =
  let sans = [ San.softbound; San.cets ] in
  Alcotest.(check bool) "combo catches oob" true (detected_by sans (oob_prog ()) <> None);
  Alcotest.(check bool) "combo catches uaf" true (detected_by sans (uaf_prog ()) <> None)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_instrument_preserves_benign_behavior =
  QCheck.Test.make ~name:"instrument: benign behaviour preserved (asan)" ~count:100
    QCheck.(int_range 0 3)
    (fun idx ->
      let base = Kit.heap_prog () in
      let inst = Inst.apply_exn [ San.asan ] base in
      let r0 = Kit.run_main base [ Int64.of_int idx ] in
      let r1 = Kit.run_main inst [ Int64.of_int idx ] in
      Interp.events_equal r0 r1)

let prop_instrument_detects_all_oob =
  QCheck.Test.make ~name:"instrument: all oob indexes detected (asan)" ~count:100
    QCheck.(int_range 4 64)
    (fun idx ->
      let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
      match (Kit.run_main inst [ Int64.of_int idx ]).Interp.outcome with
      | Interp.Detected _ -> true
      | _ -> false)

let () =
  Alcotest.run ~and_exit:false "bunshin_sanitizer"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "coverage table" `Quick test_taxonomy_coverage;
          Alcotest.test_case "hazard classification" `Quick test_hazard_classification;
        ] );
      ( "registry",
        [
          Alcotest.test_case "asan/msan conflict" `Quick test_asan_msan_conflict;
          Alcotest.test_case "softbound/cets compatible" `Quick test_softbound_cets_compatible;
          Alcotest.test_case "collectively enforceable" `Quick test_collectively_enforceable;
          Alcotest.test_case "19 ubsan subs" `Quick test_ubsan_has_19_subs;
          Alcotest.test_case "find ubsan sub" `Quick test_find_ubsan_sub;
          Alcotest.test_case "introduced syscall phases" `Quick test_introduced_syscall_phases;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "asan near 107%" `Quick test_asan_cost_near_107;
          Alcotest.test_case "asan memory-bound outlier" `Quick test_asan_memory_bound_is_outlier_heavy;
          Alcotest.test_case "ubsan subs cheap" `Quick test_ubsan_subs_individually_cheap;
          Alcotest.test_case "ubsan combined ~228%" `Quick test_ubsan_combined_228;
          Alcotest.test_case "ubsan synergy negative" `Quick test_ubsan_synergy_negative;
          Alcotest.test_case "softbound+cets ~110%" `Quick test_softbound_cets_sum;
          Alcotest.test_case "cpi cheap" `Quick test_cpi_much_cheaper_than_softbound;
          Alcotest.test_case "family residual shared" `Quick test_group_cost_shares_family_residual;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "valid ir" `Quick test_asan_instrument_valid_ir;
          Alcotest.test_case "benign preserved" `Quick test_asan_benign_behavior_preserved;
          Alcotest.test_case "detects oob" `Quick test_asan_detects_oob;
          Alcotest.test_case "uninstrumented misses" `Quick test_uninstrumented_misses_oob;
          Alcotest.test_case "detects double free" `Quick test_asan_detects_double_free;
          Alcotest.test_case "msan detects uninit" `Quick test_msan_detects_uninit;
          Alcotest.test_case "ubsan div-by-zero" `Quick test_ubsan_div_by_zero;
          Alcotest.test_case "ubsan signed overflow" `Quick test_ubsan_signed_overflow;
          Alcotest.test_case "conflict rejected" `Quick test_conflicting_instrumentation_rejected;
          Alcotest.test_case "compatible pair composes" `Quick test_compatible_pair_composes;
          Alcotest.test_case "only= restricts" `Quick test_only_restricts_functions;
          Alcotest.test_case "check count" `Quick test_check_count;
          Alcotest.test_case "metadata globals" `Quick test_metadata_globals_added;
          Alcotest.test_case "phi labels fixed" `Quick test_instrument_phi_labels_fixed;
          Alcotest.test_case "softbound spatial only" `Quick test_softbound_spatial_only;
          Alcotest.test_case "cets temporal only" `Quick test_cets_temporal_only;
          Alcotest.test_case "softbound+cets combo" `Quick test_softbound_cets_combo_covers_both;
        ] );
      ( "properties",
        Kit.qcheck [ prop_instrument_preserves_benign_behavior; prop_instrument_detects_all_oob ] );
    ]

(* Appended: stack-cookie and CFI pass tests (extension batch 2). *)
let stack_smash_prog () =
  (* main(n): local buf[4]; buf[n] = 7; return (contiguous stack smash when
     n reaches past the redzone into the canary). *)
  let b = B.create "smash" in
  B.start_func b ~name:"main" ~params:[ "n" ];
  let buf = B.alloca b 4 in
  B.store b (B.cst 7) (B.gep b buf (Ast.Reg "n"));
  B.ret b (Some (B.cst 0));
  B.finish b

let test_stack_cookie_detects_smash () =
  let inst = Inst.apply_exn [ San.stack_cookie ] (stack_smash_prog ()) in
  Verify.check_exn inst;
  (* In-bounds write: clean. *)
  (match (Kit.run_main inst [ 2L ]).Interp.outcome with
   | Interp.Finished _ -> ()
   | _ -> Alcotest.fail "benign should finish");
  (* n=5 lands on the canary slot (4 slots + 1 redzone): detected at ret. *)
  let r = Kit.run_main inst [ 5L ] in
  Alcotest.(check bool) "smash detected" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__stackcookie_report"
     | _ -> false)

let test_stack_cookie_misses_redzone_poke () =
  (* n=4 corrupts only the redzone, not the canary: cookies miss it
     (ASan's redzones are strictly stronger on this shape). *)
  let inst = Inst.apply_exn [ San.stack_cookie ] (stack_smash_prog ()) in
  let r = Kit.run_main inst [ 4L ] in
  Alcotest.(check bool) "cookie misses" true
    (match r.Interp.outcome with Interp.Finished _ -> true | _ -> false);
  let asan = Inst.apply_exn [ San.asan ] (stack_smash_prog ()) in
  Alcotest.(check bool) "asan catches" true
    (match (Kit.run_main asan [ 4L ]).Interp.outcome with
     | Interp.Detected _ -> true
     | _ -> false)

let test_stack_cookie_removable () =
  let base = stack_smash_prog () in
  let inst = Inst.apply_exn [ San.stack_cookie ] base in
  let removed = Bunshin_slicer.Slicer.remove_checks inst in
  Verify.check_exn removed;
  let r0 = Kit.run_main base [ 2L ] and r1 = Kit.run_main removed [ 2L ] in
  Alcotest.(check bool) "behaviour restored" true (Interp.events_equal r0 r1);
  Alcotest.(check int) "no sinks left" 0
    (List.length (Bunshin_slicer.Slicer.discover removed))

let hijack_prog () =
  (* main(evil): fp slot next to a 2-slot buffer; overflow replaces the
     function pointer with either a code address (whole-function reuse) or
     plain data. *)
  let b = B.create "hijack" in
  B.start_func b ~name:"benign" ~params:[];
  B.call_void b "print" [ B.cst 1 ];
  B.ret b None;
  B.start_func b ~name:"gadget" ~params:[];
  B.call_void b "print" [ B.cst 666 ];
  B.ret b None;
  B.start_func b ~name:"main" ~params:[ "v" ];
  let buf = B.alloca b 2 in
  let fpslot = B.alloca b 1 in
  B.store b (Ast.Global "benign") fpslot;
  (* buf[3] = fpslot[0] with the 1-slot redzone. *)
  B.store b (Ast.Reg "v") (B.gep b buf (B.cst 3));
  let fp = B.load b fpslot in
  B.call_ind b fp [] |> ignore;
  B.ret b None;
  B.finish b

let test_cfi_blocks_data_target () =
  let m = hijack_prog () in
  let inst = Inst.apply_exn [ San.cfi ] m in
  Verify.check_exn inst;
  (* Corrupt the pointer with non-code data: CFI fires before the call. *)
  let r = Kit.run_main inst [ 0xDEADL ] in
  Alcotest.(check bool) "cfi detected" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__cfi_report"
     | _ -> false);
  (* Without CFI the same input is a hard crash (bad indirect call). *)
  let r0 = Kit.run_main m [ 0xDEADL ] in
  Alcotest.(check bool) "uninstrumented crashes" true
    (match r0.Interp.outcome with
     | Interp.Crashed (Interp.Bad_indirect_call _) -> true
     | _ -> false)

let test_cfi_misses_whole_function_reuse () =
  (* Coarse-grained CFI's known weakness: redirecting to another real
     function entry passes the check. *)
  let m = hijack_prog () in
  let gadget = Interp.address_of_func m "gadget" in
  let inst = Inst.apply_exn [ San.cfi ] m in
  let r = Kit.run_main inst [ gadget ] in
  Alcotest.(check bool) "gadget runs" true (List.mem (Interp.Output 666L) r.Interp.events)

let test_safecode_detects_oob () =
  let inst = Inst.apply_exn [ San.safecode ] (Kit.heap_prog ()) in
  let r = Kit.run_main inst [ 4L ] in
  Alcotest.(check bool) "safecode fires" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__safecode_report"
     | _ -> false)

let () =
  Alcotest.run ~and_exit:false "bunshin_sanitizer_passes"
    [
      ( "function-level passes",
        [
          Alcotest.test_case "stack cookie detects smash" `Quick test_stack_cookie_detects_smash;
          Alcotest.test_case "stack cookie misses redzone" `Quick test_stack_cookie_misses_redzone_poke;
          Alcotest.test_case "stack cookie removable" `Quick test_stack_cookie_removable;
          Alcotest.test_case "cfi blocks data target" `Quick test_cfi_blocks_data_target;
          Alcotest.test_case "cfi misses function reuse" `Quick test_cfi_misses_whole_function_reuse;
          Alcotest.test_case "safecode detects oob" `Quick test_safecode_detects_oob;
        ] );
    ]
