(* Tests for Bunshin_slicer: check discovery and backward-slicing removal
   (§4.1 of the paper). *)

open Bunshin_ir
module B = Builder
module San = Bunshin_sanitizer.Sanitizer
module Inst = Bunshin_sanitizer.Instrument
module Slicer = Bunshin_slicer.Slicer

(* Two functions, each with one checked access. *)
let two_func_prog () =
  let b = B.create "two" in
  B.start_func b ~name:"reader" ~params:[ "p" ];
  let v = B.load b (Ast.Reg "p") in
  B.ret b (Some v);
  B.start_func b ~name:"writer" ~params:[ "p"; "x" ];
  B.store b (Ast.Reg "x") (Ast.Reg "p");
  B.ret b None;
  B.start_func b ~name:"main" ~params:[ "idx" ];
  let p = B.call b "malloc" [ B.cst 4 ] in
  let q = B.gep b p (Ast.Reg "idx") in
  B.call_void b "writer" [ q; B.cst 9 ];
  let v = B.call b "reader" [ q ] in
  B.call_void b "print" [ v ];
  B.ret b None;
  B.finish b

(* ------------------------------------------------------------------ *)
(* Discovery *)

let test_discover_counts () =
  let base = Kit.heap_prog () in
  Alcotest.(check int) "baseline has no sinks" 0 (List.length (Slicer.discover base));
  let inst = Inst.apply_exn [ San.asan ] base in
  Alcotest.(check int) "asan adds two sinks" 2 (List.length (Slicer.discover inst))

let test_discover_identifies_handler () =
  let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  let handlers = List.map (fun s -> s.Slicer.sk_handler) (Slicer.discover inst) in
  Alcotest.(check (list string)) "handlers" [ "__asan_report_store"; "__asan_report_load" ]
    handlers

let test_discover_ignores_metadata () =
  (* MSan metadata (counter update per store) contains stores but no report
     handler: it must not be discovered. *)
  let inst = Inst.apply_exn [ San.msan ] (Kit.heap_prog ()) in
  let sinks = Slicer.discover inst in
  Alcotest.(check bool) "only msan checks" true
    (List.for_all (fun s -> s.Slicer.sk_handler = "__msan_report") sinks)

(* Sinks per function, every function listed (0 included). *)
let per_function_check_count m =
  let sinks = Slicer.discover m in
  List.map
    (fun f ->
      let mine = List.filter (fun s -> s.Slicer.sk_func = f.Ast.f_name) sinks in
      (f.Ast.f_name, List.length mine))
    m.Ast.m_funcs

let test_per_function_counts () =
  let inst = Inst.apply_exn [ San.asan ] (two_func_prog ()) in
  let counts = per_function_check_count inst in
  Alcotest.(check (list (pair string int)))
    "per function" [ ("reader", 1); ("writer", 1); ("main", 0) ] counts

(* ------------------------------------------------------------------ *)
(* Removal *)

(* The ASan build of [heap_prog], with main's return rewritten to branch on
   the first check's condition: a condition that another block's
   terminator also reads, so removal must keep its definition. *)
let asan_condition_read_by_terminator () =
  let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  let main = List.hd inst.Ast.m_funcs in
  let sinks = List.map (fun s -> s.Slicer.sk_block) (Slicer.discover inst) in
  let cond =
    List.find_map
      (fun bl ->
        match bl.Ast.b_term with
        | Ast.CondBr (Ast.Reg c, _, fail) when List.mem fail sinks -> Some c
        | _ -> None)
      main.Ast.f_blocks
    |> Option.get
  in
  let exit =
    List.find (fun bl -> match bl.Ast.b_term with Ast.Ret _ -> true | _ -> false) main.Ast.f_blocks
  in
  let ret label = { Ast.b_label = label; b_instrs = []; b_term = exit.Ast.b_term } in
  exit.Ast.b_term <- Ast.CondBr (Ast.Reg cond, "ret.a", "ret.b");
  main.Ast.f_blocks <- main.Ast.f_blocks @ [ ret "ret.a"; ret "ret.b" ];
  inst

let test_remove_restores_benign_behavior () =
  let base = Kit.heap_prog () in
  List.iter
    (fun (build, inst) ->
      let removed = Slicer.remove_checks inst in
      Verify.check_exn removed;
      List.iter
        (fun idx ->
          Alcotest.(check bool) (Printf.sprintf "%s: benign events equal at %Ld" build idx) true
            (Interp.events_equal (Kit.run_main base [ idx ]) (Kit.run_main removed [ idx ])))
        [ 0L; 2L; 3L ])
    [
      ("asan", Inst.apply_exn [ San.asan ] base);
      ("condition read by a terminator", asan_condition_read_by_terminator ());
    ]

let test_remove_disables_detection () =
  let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  let removed = Slicer.remove_checks inst in
  let r = Kit.run_main removed [ 4L ] in
  (* Like the baseline: silent corruption, no detection. *)
  Alcotest.(check bool) "no longer detected" true
    (match r.Interp.outcome with Interp.Finished _ -> true | _ -> false)

let test_remove_removes_all_sinks () =
  let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  let removed = Slicer.remove_checks inst in
  Alcotest.(check int) "no sinks left" 0 (List.length (Slicer.discover removed))

let test_remove_keeps_metadata () =
  (* The shadow-counter updates of ASan (per allocation) and MSan (per
     store) are metadata maintenance; removal must keep them (the paper:
     removing them breaks sanitizer correctness). *)
  let count p m =
    List.fold_left
      (fun n f ->
        List.fold_left
          (fun n bl -> n + List.length (List.filter p bl.Ast.b_instrs))
          n f.Ast.f_blocks)
      0 m.Ast.m_funcs
  in
  let update glob = function Ast.Store (_, Ast.Global g) -> g = glob | _ -> false in
  let base = Kit.heap_prog () in
  let asan = Inst.apply_exn [ San.asan ] base in
  let asan_updates = count (update "__asan_shadow_ctr") asan in
  Alcotest.(check bool) "asan updates its metadata" true (asan_updates > 0);
  Alcotest.(check int) "asan metadata stores survive" asan_updates
    (count (update "__asan_shadow_ctr") (Slicer.remove_checks asan));
  let msan = Inst.apply_exn [ San.msan ] base in
  let stores = count (function Ast.Store _ -> true | _ -> false) base in
  Alcotest.(check int) "one msan update per store" stores
    (count (update "__msan_shadow_ctr") msan);
  Alcotest.(check int) "msan metadata stores survive" stores
    (count (update "__msan_shadow_ctr") (Slicer.remove_checks msan))

let test_remove_instruction_count () =
  let base = Kit.heap_prog () in
  let inst = Inst.apply_exn [ San.asan ] base in
  let removed = Slicer.remove_checks inst in
  let n = Slicer.removed_instruction_count inst removed in
  (* Each ASan check: 1 condition call + 1 sink-body call = 2 instructions,
     and there are two checks. *)
  Alcotest.(check int) "4 instructions removed" 4 n

let test_remove_only_selected_functions () =
  let inst = Inst.apply_exn [ San.asan ] (two_func_prog ()) in
  let removed = Slicer.remove_checks ~in_funcs:[ "reader" ] inst in
  let counts = per_function_check_count removed in
  Alcotest.(check (list (pair string int)))
    "writer keeps its check" [ ("reader", 0); ("writer", 1); ("main", 0) ] counts;
  (* The surviving check still works: oob write via writer is detected. *)
  let r = Kit.run_main removed [ 5L ] in
  Alcotest.(check bool) "writer check fires" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_func = "writer"
     | _ -> false)

let test_remove_by_handler () =
  (* Instrument with ASan + a UBSan sub, then strip only ASan checks. *)
  let sub = Option.get (San.find_ubsan_sub "integer-divide-by-zero") in
  let b = B.create "mix" in
  B.start_func b ~name:"main" ~params:[ "idx"; "n" ];
  let p = B.call b "malloc" [ B.cst 4 ] in
  let q = B.gep b p (Ast.Reg "idx") in
  B.store b (B.cst 1) q;
  let v = B.sdiv b (B.cst 10) (Ast.Reg "n") in
  B.call_void b "print" [ v ];
  B.ret b None;
  let inst = Inst.apply_exn [ San.asan; sub ] (B.finish b) in
  let stripped =
    Slicer.remove_checks
      ~handler_matches:(fun h -> String.length h >= 6 && String.sub h 0 6 = "__asan")
      inst
  in
  Verify.check_exn stripped;
  (* ASan check gone: oob store into the redzone is silent now. *)
  let oob = Kit.run_main stripped [ 4L; 1L ] in
  Alcotest.(check bool) "asan check gone" true
    (match oob.Interp.outcome with Interp.Finished _ -> true | _ -> false);
  (* UBSan check kept: div-by-zero still detected. *)
  let div0 = Kit.run_main stripped [ 1L; 0L ] in
  Alcotest.(check bool) "ubsan kept" true
    (match div0.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__ubsan_report_divrem"
     | _ -> false)

let test_remove_idempotent () =
  let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
  let once = Slicer.remove_checks inst in
  let twice = Slicer.remove_checks once in
  Alcotest.(check int) "second pass removes nothing" 0
    (Slicer.removed_instruction_count once twice)

let test_check_distribution_union_covers () =
  (* The core check-distribution guarantee: split functions over two
     variants; each alone misses some errors, together they catch
     everything the full instrumentation catches. *)
  let base = two_func_prog () in
  let inst = Inst.apply_exn [ San.asan ] base in
  (* Variant A keeps checks in reader; variant B keeps checks in writer. *)
  let variant_a = Slicer.remove_checks ~in_funcs:[ "writer" ] inst in
  let variant_b = Slicer.remove_checks ~in_funcs:[ "reader" ] inst in
  let detected m idx =
    match (Kit.run_main m [ Int64.of_int idx ]).Interp.outcome with
    | Interp.Detected _ -> true
    | _ -> false
  in
  for idx = 0 to 8 do
    let full = detected inst idx in
    let union = detected variant_a idx || detected variant_b idx in
    Alcotest.(check bool) (Printf.sprintf "idx %d union = full" idx) full union
  done;
  (* And the split is real: variant A alone misses the oob write. *)
  Alcotest.(check bool) "A misses write check" false (detected variant_a 5 && not (detected variant_b 5))

(* ------------------------------------------------------------------ *)
(* Random-program properties: generate small well-formed programs and
   check the pipeline's metamorphic relations on each. *)

type gop =
  | GStore of int * int * int (* buffer, in-bounds index, value *)
  | GLoad of int * int
  | GArith of int
  | GPrint

let gen_gop =
  QCheck.Gen.(
    frequency
      [
        (3, map3 (fun b i v -> GStore (b, i, v)) (int_bound 1) (int_bound 3) (int_bound 100));
        (3, map2 (fun b i -> GLoad (b, i)) (int_bound 1) (int_bound 3));
        (2, map (fun v -> GArith v) (int_bound 50));
        (2, return GPrint);
      ])

let build_program ops =
  let b = B.create "gen" in
  B.start_func b ~name:"main" ~params:[];
  let buf0 = B.call b "malloc" [ B.cst 4 ] in
  let buf1 = B.call b "malloc" [ B.cst 4 ] in
  let buf = function 0 -> buf0 | _ -> buf1 in
  let acc =
    List.fold_left
      (fun acc op ->
        match op with
        | GStore (bi, i, v) ->
          B.store b (B.cst v) (B.gep b (buf bi) (B.cst i));
          acc
        | GLoad (bi, i) ->
          (* Ensure the slot is initialised before the read. *)
          let p = B.gep b (buf bi) (B.cst i) in
          B.store b acc p;
          B.add b acc (B.load b p)
        | GArith v -> B.add b acc (B.cst v)
        | GPrint ->
          B.call_void b "print" [ acc ];
          acc)
      (B.cst 1) ops
  in
  B.call_void b "print" [ acc ];
  B.ret b (Some acc);
  B.finish b

let arb_program =
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops))
    QCheck.Gen.(list_size (1 -- 25) gen_gop)

let sanitizer_sets =
  [ [ San.asan ]; [ San.softbound; San.cets ]; [ San.msan ];
    [ San.asan; Option.get (San.find_ubsan_sub "signed-integer-overflow") ] ]

let prop_generated_pipeline_roundtrip =
  QCheck.Test.make ~name:"slicer: random programs, instrument;remove ~ baseline" ~count:120
    arb_program
    (fun ops ->
      let base = build_program ops in
      Verify.check_exn base;
      let r0 = Kit.run_main base [] in
      List.for_all
        (fun sans ->
          let inst = Inst.apply_exn sans base in
          Verify.check_exn inst;
          let removed = Slicer.remove_checks inst in
          Verify.check_exn removed;
          let r1 = Kit.run_main inst [] in
          let r2 = Kit.run_main removed [] in
          (* Benign by construction: instrumentation must be transparent and
             removal must restore the baseline exactly. *)
          Interp.events_equal r0 r1 && Interp.events_equal r0 r2
          && List.length (Slicer.discover removed) = 0)
        sanitizer_sets)

let prop_generated_sink_counts =
  QCheck.Test.make ~name:"slicer: sink count = guarded accesses (asan)" ~count:120
    arb_program
    (fun ops ->
      let base = build_program ops in
      let inst = Inst.apply_exn [ San.asan ] base in
      (* ASan guards every load and store: each GStore compiles to one
         guarded store; each GLoad to one guarded init-store plus one
         guarded load. *)
      let expected =
        List.fold_left
          (fun acc op ->
            match op with GStore _ -> acc + 1 | GLoad _ -> acc + 2 | GArith _ | GPrint -> acc)
          0 ops
      in
      List.length (Slicer.discover inst) = expected)

(* ------------------------------------------------------------------ *)
(* Regression: the backward slice used to resolve instruction locations
   with an unguarded [Hashtbl.find], so a malformed module could escape
   [remove_checks] as a bare [Not_found].  The contract now is: removal
   either succeeds or raises the descriptive [Slicer.Error] — never a
   stray [Not_found].  Exercise it on hand-built adversarial shapes the
   Builder would never produce. *)

let ablk label instrs term = { Ast.b_label = label; b_instrs = instrs; b_term = term }
let afunc name params blocks = { Ast.f_name = name; f_params = params; f_blocks = blocks }
let amodul name funcs = { Ast.m_name = name; m_globals = []; m_funcs = funcs }

let sink_block label =
  ablk label [ Ast.Call (None, "__asan_report_load", []) ] Ast.Unreachable

(* One sink guarded by two CondBrs on the SAME condition register: the
   slice must wait for the second guard before deleting the chain. *)
let adv_shared_condition () =
  amodul "adv_shared"
    [
      afunc "f" [ "p" ]
        [
          ablk "entry"
            [
              Ast.Bin ("a", Ast.Add, Ast.Reg "p", Ast.Int 1L);
              Ast.Cmp ("c", Ast.Slt, Ast.Reg "a", Ast.Int 100L);
            ]
            (Ast.CondBr (Ast.Reg "c", "ok1", "bad"));
          ablk "ok1" [] (Ast.CondBr (Ast.Reg "c", "ok2", "bad"));
          ablk "ok2" [] (Ast.Ret None);
          sink_block "bad";
        ];
    ]

(* Duplicate block labels: the location index (label, idx) collides, so
   definition lookups can disagree with the instruction table. *)
let adv_duplicate_labels () =
  amodul "adv_dup"
    [
      afunc "f" [ "p" ]
        [
          ablk "dup"
            [
              Ast.Bin ("x", Ast.Add, Ast.Reg "p", Ast.Int 1L);
              Ast.Cmp ("c", Ast.Slt, Ast.Reg "x", Ast.Int 9L);
            ]
            (Ast.CondBr (Ast.Reg "c", "dup", "bad"));
          ablk "dup" [ Ast.Bin ("y", Ast.Add, Ast.Int 1L, Ast.Int 2L) ] (Ast.Ret None);
          sink_block "bad";
        ];
    ]

(* The condition register is redefined: def_loc keeps only the last
   definition. *)
let adv_redefined_condition () =
  amodul "adv_redef"
    [
      afunc "f" [ "p" ]
        [
          ablk "entry"
            [
              Ast.Cmp ("c", Ast.Slt, Ast.Reg "p", Ast.Int 1L);
              Ast.Cmp ("c", Ast.Slt, Ast.Reg "p", Ast.Int 2L);
            ]
            (Ast.CondBr (Ast.Reg "c", "ok", "bad"));
          ablk "ok" [] (Ast.Ret None);
          sink_block "bad";
        ];
    ]

(* The condition is a bare parameter (no defining instruction at all). *)
let adv_param_condition () =
  amodul "adv_param"
    [
      afunc "f" [ "c" ]
        [
          ablk "entry" [] (Ast.CondBr (Ast.Reg "c", "ok", "bad"));
          ablk "ok" [] (Ast.Ret None);
          sink_block "bad";
        ];
    ]

let test_remove_never_leaks_not_found () =
  List.iter
    (fun (name, m) ->
      match Slicer.remove_checks m with
      | removed ->
          Alcotest.(check int)
            (name ^ ": all sinks gone")
            0
            (List.length (Slicer.discover removed))
      | exception Slicer.Error msg ->
          (* Acceptable: a descriptive refusal, not a bare Not_found. *)
          Alcotest.(check bool) (name ^ ": error is descriptive") true
            (String.length msg > 0)
      | exception Not_found ->
          Alcotest.failf "%s: remove_checks leaked Not_found" name)
    [
      ("shared condition", adv_shared_condition ());
      ("duplicate labels", adv_duplicate_labels ());
      ("redefined condition", adv_redefined_condition ());
      ("param condition", adv_param_condition ());
    ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_remove_after_instrument_is_identity_on_behavior =
  QCheck.Test.make ~name:"slicer: instrument;remove ~ baseline (events)" ~count:100
    QCheck.(pair (int_range 0 3) (int_range (-5) 5))
    (fun (idx, _salt) ->
      let base = Kit.heap_prog () in
      let inst = Inst.apply_exn [ San.asan ] base in
      let removed = Slicer.remove_checks inst in
      let r0 = Kit.run_main base [ Int64.of_int idx ] in
      let r1 = Kit.run_main removed [ Int64.of_int idx ] in
      Interp.events_equal r0 r1)

let prop_partial_removal_never_detects_more =
  QCheck.Test.make ~name:"slicer: removal never adds detections" ~count:60
    QCheck.(int_range 0 10)
    (fun idx ->
      let inst = Inst.apply_exn [ San.asan ] (Kit.heap_prog ()) in
      let removed = Slicer.remove_checks inst in
      let was_detected =
        match (Kit.run_main inst [ Int64.of_int idx ]).Interp.outcome with
        | Interp.Detected _ -> true
        | _ -> false
      in
      let now_detected =
        match (Kit.run_main removed [ Int64.of_int idx ]).Interp.outcome with
        | Interp.Detected _ -> true
        | _ -> false
      in
      (not now_detected) || was_detected)

let () =
  Alcotest.run "bunshin_slicer"
    [
      ( "discovery",
        [
          Alcotest.test_case "counts" `Quick test_discover_counts;
          Alcotest.test_case "identifies handler" `Quick test_discover_identifies_handler;
          Alcotest.test_case "ignores metadata" `Quick test_discover_ignores_metadata;
          Alcotest.test_case "per-function counts" `Quick test_per_function_counts;
        ] );
      ( "removal",
        [
          Alcotest.test_case "restores benign behaviour" `Quick test_remove_restores_benign_behavior;
          Alcotest.test_case "disables detection" `Quick test_remove_disables_detection;
          Alcotest.test_case "removes all sinks" `Quick test_remove_removes_all_sinks;
          Alcotest.test_case "keeps metadata" `Quick test_remove_keeps_metadata;
          Alcotest.test_case "instruction count" `Quick test_remove_instruction_count;
          Alcotest.test_case "selected functions only" `Quick test_remove_only_selected_functions;
          Alcotest.test_case "by handler" `Quick test_remove_by_handler;
          Alcotest.test_case "idempotent" `Quick test_remove_idempotent;
          Alcotest.test_case "union covers" `Quick test_check_distribution_union_covers;
          Alcotest.test_case "never leaks Not_found" `Quick test_remove_never_leaks_not_found;
        ] );
      ( "properties",
        Kit.qcheck
          [
            prop_remove_after_instrument_is_identity_on_behavior;
            prop_partial_removal_never_detects_more;
            prop_generated_pipeline_roundtrip;
            prop_generated_sink_counts;
          ] );
    ]
