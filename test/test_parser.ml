(* Tests for Bunshin_ir.Parser: the textual IR round-trips through
   Printer/Parser losslessly, in structure and in behaviour. *)

open Bunshin_ir
module B = Builder

let roundtrip m =
  match Parser.parse (Printer.string_of_modul m) with
  | Ok m' -> m'
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let check_same_text msg m m' =
  Alcotest.(check string) msg (Printer.string_of_modul m) (Printer.string_of_modul m')

(* A program using every construct. *)
let kitchen_sink () =
  let b = B.create "sink" in
  B.add_global b ~name:"tbl" ~size:4 ~init:[| 1L; 2L |] ();
  B.add_global b ~name:"bss" ~size:2 ();
  B.start_func b ~name:"callee" ~params:[ "x" ];
  let v = B.mul b (Ast.Reg "x") (B.cst (-3)) in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[ "n" ];
  let p = B.call b "malloc" [ B.cst 4 ] in
  let q = B.gep b p (Ast.Reg "n") in
  B.store b (B.cst 7) q;
  let l = B.load b q in
  let c = B.cmp b Ast.Sge l (B.cst 0) in
  let s = B.select b c (B.cst 1) Ast.Undef in
  let d = B.sdiv b s (B.cst 2) in
  let x = B.bin b Ast.Xor d (B.cst 255) in
  let sh = B.bin b Ast.Shl x (B.cst 2) in
  let fp = B.load b (Ast.Global "tbl") in
  ignore fp;
  let r = B.call_ind b (Ast.Global "callee") [ sh ] in
  B.call_void b "print" [ r ];
  B.call_void b "sys_write" [ B.cst 1; r ];
  B.store b Ast.Null (Ast.Global "bss");
  B.cond_br b c "yes" "no";
  B.start_block b "yes";
  B.ret b (Some (B.cst 0));
  B.start_block b "no";
  B.unreachable b;
  B.finish b

let test_roundtrip_text () =
  let m = kitchen_sink () in
  check_same_text "textual fixpoint" m (roundtrip m)

let test_roundtrip_behaviour () =
  let m = kitchen_sink () in
  let m' = roundtrip m in
  Verify.check_exn m';
  let r = Interp.run m ~entry:"main" ~args:[ 2L ] in
  let r' = Interp.run m' ~entry:"main" ~args:[ 2L ] in
  Alcotest.(check bool) "same events" true (Interp.events_equal r r')

let test_roundtrip_phi_loop () =
  (* Loop with a phi (exercises phi parsing). *)
  let f_blocks =
    [
      { Ast.b_label = "entry"; b_instrs = []; b_term = Ast.Br "head" };
      {
        Ast.b_label = "head";
        b_instrs =
          [
            Ast.Phi ("i", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "i2") ]);
            Ast.Cmp ("c", Ast.Slt, Ast.Reg "i", Ast.Reg "n");
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
      m_funcs = [ { Ast.f_name = "main"; f_params = [ "n" ]; f_blocks } ] }
  in
  let m' = roundtrip m in
  check_same_text "phi fixpoint" m m';
  let r = Interp.run m' ~entry:"main" ~args:[ 5L ] in
  Alcotest.(check bool) "counts to 5" true (r.Interp.outcome = Interp.Finished (Some 5L))

let test_roundtrip_instrumented () =
  (* Instrumented modules (checks, sinks, metadata) survive the trip. *)
  let m =
    Bunshin_sanitizer.Instrument.apply_exn [ Bunshin_sanitizer.Sanitizer.asan ]
      (kitchen_sink ())
  in
  let m' = roundtrip m in
  check_same_text "instrumented fixpoint" m m';
  Alcotest.(check int) "sinks preserved"
    (List.length (Bunshin_slicer.Slicer.discover m))
    (List.length (Bunshin_slicer.Slicer.discover m'))

let test_module_name_preserved () =
  let m = kitchen_sink () in
  Alcotest.(check string) "name" "sink" (roundtrip m).Ast.m_name

let test_parse_errors_are_located () =
  let check_err src frag =
    match Parser.parse src with
    | Ok _ -> Alcotest.fail ("accepted bad input: " ^ frag)
    | Error e ->
      Alcotest.(check bool) (frag ^ " mentions a line") true
        (String.length e >= 5 && String.sub e 0 5 = "line ")
  in
  check_err "define @f() {\nentry:\n  %x = bogus 1\n}" "bad opcode";
  (match Parser.parse "define @f() {\nentry:\n  ret void\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted unterminated function");
  check_err "@g = global [x]" "bad global size"

let test_parse_rejects_missing_terminator () =
  let src = "define @f() {\nentry:\n  %x = add 1, 2\n}\n" in
  Alcotest.(check bool) "rejected" true (Result.is_error (Parser.parse src))

let test_parse_comments_and_blanks () =
  let src =
    "; module demo\n\n; a comment\n@g = global [1]\n\ndefine @main() {\nentry:\n  ret 0\n}\n"
  in
  match Parser.parse src with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check string) "name" "demo" m.Ast.m_name;
    Alcotest.(check int) "one global" 1 (List.length m.Ast.m_globals);
    Alcotest.(check int) "one func" 1 (List.length m.Ast.m_funcs)

(* Property: random slicer-test programs round-trip. *)
let prop_random_roundtrip =
  QCheck.Test.make ~name:"parser: random programs round-trip" ~count:100
    QCheck.(pair (int_range 0 3) (int_range 0 100))
    (fun (idx, v) ->
      let b = B.create "r" in
      B.start_func b ~name:"main" ~params:[];
      let p = B.call b "malloc" [ B.cst 4 ] in
      B.store b (B.cst v) (B.gep b p (B.cst idx));
      let l = B.load b (B.gep b p (B.cst idx)) in
      B.call_void b "print" [ l ];
      B.ret b None;
      let m = B.finish b in
      let text = Printer.string_of_modul m in
      match Parser.parse text with
      | Error _ -> false
      | Ok m' -> Printer.string_of_modul m' = text)

(* Property: on mutated IR sources, parsing, verification and both
   interpreter engines raise only their declared errors.  [Parser.parse]
   and [Verify.check] return results and raise nothing; [Interp.run] and
   [Interp.run_reference] may raise only [Invalid_argument] (an unknown
   entry or an arity mismatch), and when both run they agree on outcome,
   events and step count.  Any other exception escapes and fails the
   property.  The seeds are the example [.bir] files and the printed serve
   kernel; each case applies one to four byte-level edits. *)
let fuzz_seeds =
  lazy
    (Array.of_list
       (List.map
          (fun f -> In_channel.with_open_bin f In_channel.input_all)
          [ "../examples/ir/overflow_demo.bir"; "../examples/ir/huge_malloc.bir" ]
       @ [ Printer.string_of_modul (Bunshin.Experiments.serve_ir_kernel ()) ]))

(* Bytes an edit writes: IR punctuation, digits and letters, so that many
   mutants still lex and some still verify. *)
let fuzz_alphabet = "%@:,=()[]{}-0123456789 \nabcdefilmnoprstuvx;#*"

let mutate seed =
  let rng = Bunshin_util.Rng.create seed in
  let seeds = Lazy.force fuzz_seeds in
  let src = Bytes.of_string (Bunshin_util.Rng.choice rng seeds) in
  let edit b =
    let n = Bytes.length b in
    let at = Bunshin_util.Rng.int rng (max 1 n) in
    let ch () = fuzz_alphabet.[Bunshin_util.Rng.int rng (String.length fuzz_alphabet)] in
    match Bunshin_util.Rng.int rng 4 with
    | 0 when n > 0 -> Bytes.set b at (ch ()); b
    | 1 when n > 0 -> Bytes.cat (Bytes.sub b 0 at) (Bytes.sub b (at + 1) (n - at - 1))
    | 2 -> Bytes.cat (Bytes.sub b 0 at) (Bytes.cat (Bytes.make 1 (ch ())) (Bytes.sub b at (n - at)))
    | _ ->
      (* Duplicate a span: repeated instructions, labels or functions. *)
      let len = min (n - at) (1 + Bunshin_util.Rng.int rng 40) in
      Bytes.cat (Bytes.sub b 0 (at + len)) (Bytes.sub b at (n - at))
  in
  let rec go k b = if k = 0 then b else go (k - 1) (edit b) in
  Bytes.to_string (go (Bunshin_util.Rng.int_in rng 1 4) src)

let prop_declared_errors_only =
  QCheck.Test.make ~name:"parse, verify and run raise only declared errors" ~count:2000
    (QCheck.make ~print:mutate QCheck.Gen.int)
    (fun seed ->
      match Parser.parse (mutate seed) with
      | Error _ -> true
      | Ok m -> (
        match Verify.check m with
        | Error _ -> true
        | Ok () ->
          let config = { Interp.default_config with Interp.fuel = 20_000 } in
          List.for_all
            (fun (f : Ast.func) ->
              let args = List.mapi (fun i _ -> Int64.of_int (i + 3)) f.Ast.f_params in
              let run engine =
                match engine m ~entry:f.Ast.f_name ~args with
                | r -> Some r
                | exception Invalid_argument _ -> None
              in
              match
                ( run (Interp.run ~config ?telemetry:None),
                  run (Interp.run_reference ~config ?telemetry:None) )
              with
              | Some a, Some b ->
                a.Interp.outcome = b.Interp.outcome
                && a.Interp.events = b.Interp.events
                && a.Interp.steps = b.Interp.steps
              | None, None -> true
              | _ -> false)
            m.Ast.m_funcs))

let () =
  Alcotest.run "bunshin_parser"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "text fixpoint" `Quick test_roundtrip_text;
          Alcotest.test_case "behaviour" `Quick test_roundtrip_behaviour;
          Alcotest.test_case "phi loop" `Quick test_roundtrip_phi_loop;
          Alcotest.test_case "instrumented module" `Quick test_roundtrip_instrumented;
          Alcotest.test_case "module name" `Quick test_module_name_preserved;
        ] );
      ( "errors",
        [
          Alcotest.test_case "located errors" `Quick test_parse_errors_are_located;
          Alcotest.test_case "missing terminator" `Quick test_parse_rejects_missing_terminator;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~verbose:false)
          [ prop_random_roundtrip; prop_declared_errors_only ] );
    ]
