(* Tests for the compiler-pass extensions: Simplify (post-removal CFG
   cleanup) and the ASAP pruning baseline. *)

open Bunshin_ir
module B = Builder
module San = Bunshin_sanitizer.Sanitizer
module Inst = Bunshin_sanitizer.Instrument
module Slicer = Bunshin_slicer.Slicer
module Asap = Bunshin_variant.Asap

(* ------------------------------------------------------------------ *)
(* Simplify *)

let test_simplify_restores_block_structure () =
  (* instrument -> remove -> simplify gives back the baseline's shape. *)
  let base = Kit.heap_prog () in
  let inst = Inst.apply_exn [ San.asan ] base in
  let removed = Slicer.remove_checks inst in
  let clean = Simplify.modul removed in
  Verify.check_exn clean;
  Alcotest.(check bool) "instrumented has more blocks" true
    (Simplify.block_count inst > Simplify.block_count base);
  Alcotest.(check int) "block count restored" (Simplify.block_count base)
    (Simplify.block_count clean)

let test_simplify_preserves_behaviour () =
  let base = Kit.heap_prog () in
  let clean = Simplify.modul (Slicer.remove_checks (Inst.apply_exn [ San.asan ] base)) in
  List.iter
    (fun idx ->
      let r0 = Kit.run_main base [ Int64.of_int idx ] in
      let r1 = Kit.run_main clean [ Int64.of_int idx ] in
      Alcotest.(check bool) (Printf.sprintf "idx %d" idx) true (Interp.events_equal r0 r1))
    [ 0; 1; 2; 3 ]

let test_simplify_drops_unreachable () =
  let b = B.create "dead" in
  B.start_func b ~name:"main" ~params:[];
  B.ret b None;
  B.start_block b "orphan";
  B.ret b None;
  let m = Simplify.modul (B.finish b) in
  Alcotest.(check int) "one block" 1 (Simplify.block_count m)

let test_simplify_keeps_phis_intact () =
  (* A loop's head has two predecessors: nothing to merge, phi survives. *)
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
        b_instrs = [ Ast.Bin ("i2", Ast.Add, Ast.Reg "i", Ast.Int 1L) ];
        b_term = Ast.Br "head";
      };
      { Ast.b_label = "exit"; b_instrs = []; b_term = Ast.Ret (Some (Ast.Reg "i")) };
    ]
  in
  let m =
    { Ast.m_name = "loop"; m_globals = [];
      m_funcs = [ { Ast.f_name = "main"; f_params = []; f_blocks } ] }
  in
  let s = Simplify.modul m in
  Verify.check_exn s;
  let r = Interp.run s ~entry:"main" ~args:[] in
  Alcotest.(check bool) "loop still counts" true (r.Interp.outcome = Interp.Finished (Some 3L))

let test_simplify_merges_entry_chain () =
  (* entry -> a -> b straight line becomes one block named entry. *)
  let b = B.create "chain" in
  B.start_func b ~name:"main" ~params:[];
  B.br b "a";
  B.start_block b "a";
  B.call_void b "print" [ B.cst 1 ];
  B.br b "bb";
  B.start_block b "bb";
  B.ret b (Some (B.cst 9));
  let m = Simplify.modul (B.finish b) in
  let f = List.hd m.Ast.m_funcs in
  Alcotest.(check int) "merged" 1 (List.length f.Ast.f_blocks);
  Alcotest.(check string) "entry label kept" "entry" (List.hd f.Ast.f_blocks).Ast.b_label;
  let r = Interp.run m ~entry:"main" ~args:[] in
  Alcotest.(check bool) "behaviour" true (r.Interp.outcome = Interp.Finished (Some 9L))

let prop_simplify_behaviour_preserved =
  QCheck.Test.make ~name:"simplify: removal+cleanup ~ baseline" ~count:80
    QCheck.(int_range 0 3)
    (fun idx ->
      let base = Kit.heap_prog () in
      let clean =
        Simplify.modul (Slicer.remove_checks (Inst.apply_exn [ San.asan ] base))
      in
      Interp.events_equal
        (Kit.run_main base [ Int64.of_int idx ])
        (Kit.run_main clean [ Int64.of_int idx ]))

(* ------------------------------------------------------------------ *)
(* ASAP *)

let profile = [ ("hot", 80.0); ("warm", 15.0); ("cold", 5.0) ]

let test_asap_keeps_cheapest_first () =
  Alcotest.(check (list string)) "5% keeps cold" [ "cold" ]
    (Asap.keep_set ~budget:0.05 ~overhead_profile:profile);
  Alcotest.(check (list string)) "20% adds warm" [ "cold"; "warm" ]
    (Asap.keep_set ~budget:0.20 ~overhead_profile:profile);
  Alcotest.(check (list string)) "100% keeps all" [ "cold"; "warm"; "hot" ]
    (Asap.keep_set ~budget:1.0 ~overhead_profile:profile)

let test_asap_budget_respected () =
  List.iter
    (fun budget ->
      let kept = Asap.keep_set ~budget ~overhead_profile:profile in
      (* The kept set's share of the full check overhead (weights sum to 100). *)
      let cost =
        List.fold_left (fun acc (f, w) -> if List.mem f kept then acc +. w else acc) 0.0 profile
        /. 100.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "cost %.2f <= budget %.2f" cost budget)
        true (cost <= budget +. 1e-6))
    [ 0.0; 0.1; 0.3; 0.5; 0.9; 1.0 ]

let test_asap_drops_hot_checks () =
  (* The §2.3 argument: at half budget the hot function loses its checks. *)
  let kept = Asap.keep_set ~budget:0.5 ~overhead_profile:profile in
  Alcotest.(check bool) "hot dropped" false (List.mem "hot" kept)

let test_asap_misses_exploit_bunshin_catches () =
  (* End-to-end on the nginx CVE: prune the hot parser's checks and the
     exploit sails through; Bunshin's distribution keeps them somewhere. *)
  let case = List.hd Bunshin_attack.Cve.cases in
  let inst = Inst.apply_exn [ San.asan ] case.Bunshin_attack.Cve.c_modul in
  let prof =
    [ (case.Bunshin_attack.Cve.c_vuln_func, 100.0); ("ngx_http_process_request", 5.0);
      ("main", 1.0) ]
  in
  let kept = Asap.keep_set ~budget:0.5 ~overhead_profile:prof in
  let dropped = List.filter (fun f -> not (List.mem f kept)) (List.map fst prof) in
  let pruned = Slicer.remove_checks ~in_funcs:dropped inst in
  let asap_run =
    Interp.run pruned ~entry:"main" ~args:case.Bunshin_attack.Cve.c_exploit_args
  in
  Alcotest.(check bool) "asap misses" true
    (match asap_run.Interp.outcome with Interp.Finished _ -> true | _ -> false);
  let v = Bunshin_attack.Cve.evaluate case in
  Alcotest.(check bool) "bunshin catches" true v.Bunshin_attack.Cve.v_bunshin_detects

let prop_asap_monotone_in_budget =
  QCheck.Test.make ~name:"asap: larger budget keeps superset" ~count:100
    QCheck.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (b1, b2) ->
      let lo = Float.min b1 b2 and hi = Float.max b1 b2 in
      let k1 = Asap.keep_set ~budget:lo ~overhead_profile:profile in
      let k2 = Asap.keep_set ~budget:hi ~overhead_profile:profile in
      List.for_all (fun f -> List.mem f k2) k1)

let () =
  Alcotest.run "bunshin_passes"
    [
      ( "simplify",
        [
          Alcotest.test_case "restores block structure" `Quick test_simplify_restores_block_structure;
          Alcotest.test_case "preserves behaviour" `Quick test_simplify_preserves_behaviour;
          Alcotest.test_case "drops unreachable" `Quick test_simplify_drops_unreachable;
          Alcotest.test_case "keeps phis" `Quick test_simplify_keeps_phis_intact;
          Alcotest.test_case "merges chains" `Quick test_simplify_merges_entry_chain;
        ] );
      ( "asap",
        [
          Alcotest.test_case "cheapest first" `Quick test_asap_keeps_cheapest_first;
          Alcotest.test_case "budget respected" `Quick test_asap_budget_respected;
          Alcotest.test_case "drops hot checks" `Quick test_asap_drops_hot_checks;
          Alcotest.test_case "misses exploit" `Quick test_asap_misses_exploit_bunshin_catches;
        ] );
      ( "properties",
        Kit.qcheck [ prop_simplify_behaviour_preserved; prop_asap_monotone_in_budget ] );
    ]
