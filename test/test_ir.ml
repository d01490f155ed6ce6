(* Tests for Bunshin_ir: builder, verifier, CFG, printer, interpreter. *)

open Bunshin_ir
module B = Builder

let check_outcome msg expected actual =
  let pp = function
    | Interp.Finished v ->
      "Finished " ^ Option.fold ~none:"None" ~some:Int64.to_string v
    | Interp.Detected d -> "Detected " ^ d.d_handler ^ " in " ^ d.d_func
    | Interp.Crashed _ -> "Crashed"
    | Interp.Fuel_exhausted -> "Fuel_exhausted"
  in
  Alcotest.(check string) msg (pp expected) (pp actual)

let run ?config m ?(args = []) () =
  Interp.run_compiled ?config (Interp.compile m) ~entry:"main" ~args

(* ------------------------------------------------------------------ *)
(* Program constructors used across tests *)

(* main() { return a + b; } *)
let prog_add a b =
  let b' = B.create "add" in
  B.start_func b' ~name:"main" ~params:[];
  let s = B.add b' (B.cst a) (B.cst b) in
  B.ret b' (Some s);
  B.finish b'

(* main(n) { if n > 0 then print 1 else print 2; return 0 } *)
let prog_branch () =
  let b = B.create "branch" in
  B.start_func b ~name:"main" ~params:[ "n" ];
  let c = B.cmp b Ast.Sgt (Ast.Reg "n") (B.cst 0) in
  B.cond_br b c "pos" "neg";
  B.start_block b "pos";
  B.call_void b "print" [ B.cst 1 ];
  B.ret b (Some (B.cst 0));
  B.start_block b "neg";
  B.call_void b "print" [ B.cst 2 ];
  B.ret b (Some (B.cst 0));
  B.finish b

(* main() { p = malloc(4); p[idx] = 7; return p[idx] } *)
let prog_heap_rw idx =
  let b = B.create "heap" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 4 ] in
  let q = B.gep b p (B.cst idx) in
  B.store b (B.cst 7) q;
  let v = B.load b q in
  B.ret b (Some v);
  B.finish b

(* main() { p = malloc(2); free(p); <maybe free again / use p> } *)
let prog_uaf ~double_free =
  let b = B.create "uaf" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 2 ] in
  B.store b (B.cst 5) p;
  B.call_void b "free" [ p ];
  if double_free then B.call_void b "free" [ p ];
  let v = B.load b p in
  B.ret b (Some v);
  B.finish b

(* Loop via phi: sum 0..n-1 *)
let prog_loop_sum () =
  let b = B.create "loop" in
  B.start_func b ~name:"main" ~params:[ "n" ];
  B.br b "head";
  B.start_block b "head";
  let i = B.phi b [ ("entry", B.cst 0); ("body", Ast.Reg "i.next") ] in
  let acc = B.phi b [ ("entry", B.cst 0); ("body", Ast.Reg "acc.next") ] in
  let c = B.cmp b Ast.Slt i (Ast.Reg "n") in
  B.cond_br b c "body" "exit";
  B.start_block b "body";
  let acc' = B.add b acc i in
  let i' = B.add b i (B.cst 1) in
  (* Rebind the phi sources under fixed names. *)
  (match (acc', i') with
   | Ast.Reg ra, Ast.Reg ri ->
     let blk =
       match Ast.find_block (List.hd (B.finish b).Ast.m_funcs) "body" with
       | Some blk -> blk
       | None -> assert false
     in
     ignore blk;
     ignore (ra, ri)
   | _ -> ());
  B.finish b

(* ------------------------------------------------------------------ *)
(* Builder & printer *)

let test_builder_basic () =
  let m = prog_add 2 3 in
  Alcotest.(check int) "one function" 1 (List.length m.Ast.m_funcs);
  let f = List.hd m.Ast.m_funcs in
  Alcotest.(check string) "name" "main" f.Ast.f_name;
  Alcotest.(check int) "one block" 1 (List.length f.Ast.f_blocks)

let test_builder_duplicate_func () =
  let b = B.create "dup" in
  B.start_func b ~name:"f" ~params:[];
  B.ret b None;
  Alcotest.check_raises "dup func" (Invalid_argument "Builder.start_func: duplicate function f")
    (fun () -> B.start_func b ~name:"f" ~params:[])

let test_builder_duplicate_label () =
  let b = B.create "dup" in
  B.start_func b ~name:"f" ~params:[];
  Alcotest.check_raises "dup label" (Invalid_argument "Builder.start_block: duplicate label entry")
    (fun () -> B.start_block b "entry")

let test_printer_smoke () =
  let m = prog_branch () in
  let s = Printer.string_of_modul m in
  Alcotest.(check bool) "has define" true (Kit.contains s "define @main(%n)");
  Alcotest.(check bool) "has condbr" true (Kit.contains s "condbr");
  Alcotest.(check bool) "has call" true (Kit.contains s "call @print(1)")

(* ------------------------------------------------------------------ *)
(* Verifier *)

let test_verify_ok () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Verify.check (prog_branch ())))

let test_verify_undefined_register () =
  let b = B.create "bad" in
  B.start_func b ~name:"main" ~params:[];
  let s = B.add b (Ast.Reg "ghost") (B.cst 1) in
  B.ret b (Some s);
  let m = B.finish b in
  match Verify.check m with
  | Ok () -> Alcotest.fail "expected verifier error"
  | Error report ->
    Alcotest.(check bool) "mentions ghost" true
      (String.length report > 0
      &&
      let rec go i =
        i + 5 <= String.length report && (String.sub report i 5 = "ghost" || go (i + 1))
      in
      go 0)

let test_verify_unknown_callee () =
  let b = B.create "bad" in
  B.start_func b ~name:"main" ~params:[];
  B.call_void b "no_such_fn" [];
  B.ret b None;
  Alcotest.(check bool) "invalid" true (Result.is_error (Verify.check (B.finish b)))

let test_verify_unknown_branch_target () =
  let b = B.create "bad" in
  B.start_func b ~name:"main" ~params:[];
  B.br b "nowhere";
  Alcotest.(check bool) "invalid" true (Result.is_error (Verify.check (B.finish b)))

let test_verify_duplicate_register () =
  let m = prog_add 1 2 in
  let f = List.hd m.Ast.m_funcs in
  let entry = Ast.entry_block f in
  entry.Ast.b_instrs <- entry.Ast.b_instrs @ entry.Ast.b_instrs;
  Alcotest.(check bool) "invalid" true (Result.is_error (Verify.check m))

let test_verify_intrinsics_allowed () =
  let b = B.create "ok" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 1 ] in
  let ok = B.call b Runtime_api.bounds_ok [ p ] in
  ignore ok;
  B.call_void b "sys_write" [ B.cst 1; B.cst 0 ];
  B.ret b None;
  Alcotest.(check bool) "valid" true (Result.is_ok (Verify.check (B.finish b)))

(* main() calls [callee] with [args]; callee(x, y) returns x + y. *)
let call_module callee args =
  let b = B.create "arity" in
  B.start_func b ~name:"pair" ~params:[ "x"; "y" ];
  B.ret b (Some (B.add b (Ast.Reg "x") (Ast.Reg "y")));
  B.start_func b ~name:"main" ~params:[];
  ignore (B.call b callee args);
  B.ret b None;
  B.finish b

let test_verify_too_many_args () =
  Alcotest.(check bool) "exact arity accepted" true
    (Result.is_ok (Verify.check (call_module "pair" [ B.cst 1; B.cst 2 ])));
  Alcotest.(check bool) "three for two rejected" true
    (Result.is_error (Verify.check (call_module "pair" [ B.cst 1; B.cst 2; B.cst 3 ])))

let test_verify_too_few_args () =
  Alcotest.(check bool) "one for two rejected" true
    (Result.is_error (Verify.check (call_module "pair" [ B.cst 1 ])));
  Alcotest.(check bool) "add_ok with one rejected" true
    (Result.is_error (Verify.check (call_module Runtime_api.add_ok [ B.cst 1 ])))

let test_verify_malloc_no_args () =
  Alcotest.(check bool) "malloc() rejected" true
    (Result.is_error (Verify.check (call_module "malloc" [])));
  Alcotest.(check bool) "syscalls take any number" true
    (Result.is_ok (Verify.check (call_module "sys_getpid" [])))

(* ------------------------------------------------------------------ *)
(* CFG *)

let test_cfg_succ_pred () =
  let m = prog_branch () in
  let f = List.hd m.Ast.m_funcs in
  let cfg = Cfg.of_func f in
  Alcotest.(check (list string)) "entry succs" [ "pos"; "neg" ] (Cfg.successors cfg "entry");
  Alcotest.(check (list string)) "pos preds" [ "entry" ] (Cfg.predecessors cfg "pos");
  Alcotest.(check bool) "pos is branch target" true (Cfg.is_branch_target cfg "pos");
  Alcotest.(check bool) "entry not branch target" false (Cfg.is_branch_target cfg "entry")

let test_cfg_reachability () =
  let b = B.create "dead" in
  B.start_func b ~name:"main" ~params:[];
  B.ret b None;
  B.start_block b "orphan";
  B.ret b None;
  let m = B.finish b in
  let cfg = Cfg.of_func (List.hd m.Ast.m_funcs) in
  Alcotest.(check (list string)) "reachable" [ "entry" ] (Cfg.reachable cfg)

(* ------------------------------------------------------------------ *)
(* Interpreter: plain execution *)

let test_interp_add () =
  let r = run (prog_add 2 3) () in
  check_outcome "2+3" (Interp.Finished (Some 5L)) r.Interp.outcome

let test_interp_branch_events () =
  let m = prog_branch () in
  let r1 = Interp.run m ~entry:"main" ~args:[ 5L ] in
  let r2 = Interp.run m ~entry:"main" ~args:[ -5L ] in
  Alcotest.(check bool) "pos output" true (r1.Interp.events = [ Interp.Output 1L ]);
  Alcotest.(check bool) "neg output" true (r2.Interp.events = [ Interp.Output 2L ]);
  Alcotest.(check bool) "diverge" false (Interp.events_equal r1 r2)

let test_interp_heap_in_bounds () =
  let r = run (prog_heap_rw 2) () in
  check_outcome "in-bounds rw" (Interp.Finished (Some 7L)) r.Interp.outcome;
  Alcotest.(check int) "no hazards" 0 (List.length r.Interp.hazards)

let test_interp_heap_oob_is_silent_corruption () =
  (* Writing one past the end lands in the redzone: silent, recorded. *)
  let r = run (prog_heap_rw 4) () in
  check_outcome "completes" (Interp.Finished (Some 7L)) r.Interp.outcome;
  Alcotest.(check bool) "oob write recorded" true
    (List.exists (function Interp.Oob_write _ -> true | _ -> false) r.Interp.hazards)

let test_interp_heap_wild_crashes () =
  (* Far out-of-bounds hits unmapped memory: SIGSEGV-like crash. *)
  let r = run (prog_heap_rw 1000) () in
  Alcotest.(check bool) "crashed" true
    (match r.Interp.outcome with Interp.Crashed (Interp.Wild_pointer _) -> true | _ -> false)

let test_interp_heap_overflow_corrupts_neighbour () =
  (* Two allocations; overflow of the first (past its 1-slot redzone)
     overwrites the second: classic adjacent-object corruption. *)
  let b = B.create "ovf" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 2 ] in
  let q = B.call b "malloc" [ B.cst 2 ] in
  B.store b (B.cst 11) q;
  (* p[3] aliases q[0] with redzone 1: 2 slots + 1 redzone. *)
  let evil = B.gep b p (B.cst 3) in
  B.store b (B.cst 99) evil;
  let v = B.load b q in
  B.ret b (Some v);
  let r = run (B.finish b) () in
  check_outcome "neighbour corrupted" (Interp.Finished (Some 99L)) r.Interp.outcome

let test_interp_uaf () =
  let r = run (prog_uaf ~double_free:false) () in
  check_outcome "stale read" (Interp.Finished (Some 5L)) r.Interp.outcome;
  Alcotest.(check bool) "uaf recorded" true
    (List.exists (function Interp.Uaf_read _ -> true | _ -> false) r.Interp.hazards)

let test_interp_double_free () =
  let r = run (prog_uaf ~double_free:true) () in
  Alcotest.(check bool) "double free recorded" true
    (List.exists (function Interp.Double_free _ -> true | _ -> false) r.Interp.hazards)

let test_interp_uninit_read () =
  let b = B.create "uninit" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 1 ] in
  let v = B.load b p in
  B.ret b (Some v);
  let cfg = { Interp.default_config with undef_as = 42L } in
  let r = run ~config:cfg (B.finish b) () in
  check_outcome "undef value surfaces" (Interp.Finished (Some 42L)) r.Interp.outcome;
  Alcotest.(check bool) "uninit recorded" true
    (List.exists (function Interp.Uninit_read _ -> true | _ -> false) r.Interp.hazards)

let test_interp_div_by_zero () =
  let b = B.create "div0" in
  B.start_func b ~name:"main" ~params:[ "n" ];
  let v = B.sdiv b (B.cst 10) (Ast.Reg "n") in
  B.ret b (Some v);
  let m = B.finish b in
  let ok = Interp.run m ~entry:"main" ~args:[ 2L ] in
  check_outcome "10/2" (Interp.Finished (Some 5L)) ok.Interp.outcome;
  let bad = Interp.run m ~entry:"main" ~args:[ 0L ] in
  Alcotest.(check bool) "sigfpe" true
    (match bad.Interp.outcome with Interp.Crashed Interp.Div_by_zero -> true | _ -> false)

let test_interp_null_deref () =
  let b = B.create "null" in
  B.start_func b ~name:"main" ~params:[];
  let v = B.load b Ast.Null in
  B.ret b (Some v);
  let r = run (B.finish b) () in
  Alcotest.(check bool) "sigsegv" true
    (match r.Interp.outcome with Interp.Crashed Interp.Null_deref -> true | _ -> false)

let test_interp_globals () =
  let b = B.create "glob" in
  B.add_global b ~name:"counter" ~size:1 ~init:[| 10L |] ();
  B.start_func b ~name:"main" ~params:[];
  let v = B.load b (Ast.Global "counter") in
  let v' = B.add b v (B.cst 1) in
  B.store b v' (Ast.Global "counter");
  let v'' = B.load b (Ast.Global "counter") in
  B.ret b (Some v'');
  let r = run (B.finish b) () in
  check_outcome "global increment" (Interp.Finished (Some 11L)) r.Interp.outcome

let test_interp_function_call () =
  let b = B.create "call" in
  B.start_func b ~name:"double" ~params:[ "x" ];
  let v = B.mul b (Ast.Reg "x") (B.cst 2) in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[];
  let v = B.call b "double" [ B.cst 21 ] in
  B.ret b (Some v);
  let r = run (B.finish b) () in
  check_outcome "called" (Interp.Finished (Some 42L)) r.Interp.outcome

let test_interp_recursion () =
  (* fact(n) = n <= 1 ? 1 : n * fact(n-1) *)
  let b = B.create "fact" in
  B.start_func b ~name:"fact" ~params:[ "n" ];
  let c = B.cmp b Ast.Sle (Ast.Reg "n") (B.cst 1) in
  B.cond_br b c "base" "rec";
  B.start_block b "base";
  B.ret b (Some (B.cst 1));
  B.start_block b "rec";
  let n1 = B.sub b (Ast.Reg "n") (B.cst 1) in
  let f = B.call b "fact" [ n1 ] in
  let v = B.mul b (Ast.Reg "n") f in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[];
  let v = B.call b "fact" [ B.cst 10 ] in
  B.ret b (Some v);
  let r = run (B.finish b) () in
  check_outcome "10!" (Interp.Finished (Some 3628800L)) r.Interp.outcome

let test_interp_infinite_recursion_stack_overflow () =
  let b = B.create "inf" in
  B.start_func b ~name:"spin" ~params:[];
  let v = B.call b "spin" [] in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[];
  let v = B.call b "spin" [] in
  B.ret b (Some v);
  let r = run (B.finish b) () in
  Alcotest.(check bool) "stack overflow" true
    (match r.Interp.outcome with
     | Interp.Crashed Interp.Stack_overflow_sim | Interp.Fuel_exhausted -> true
     | _ -> false)

let test_interp_fuel () =
  let b = B.create "loop" in
  B.start_func b ~name:"main" ~params:[];
  B.br b "spin";
  B.start_block b "spin";
  B.br b "spin";
  let cfg = { Interp.default_config with fuel = 1000 } in
  let r = run ~config:cfg (B.finish b) () in
  check_outcome "fuel" Interp.Fuel_exhausted r.Interp.outcome

let test_interp_phi_loop () =
  (* Sum 0..4 with explicit phi registers. *)
  let b = B.create "sum" in
  B.start_func b ~name:"main" ~params:[ "n" ];
  B.br b "head";
  B.start_block b "head";
  ignore (B.phi b [ ("entry", B.cst 0); ("body", Ast.Reg "i2") ]);
  ignore (B.phi b [ ("entry", B.cst 0); ("body", Ast.Reg "acc2") ]);
  (* Rename the phis to stable names by rewriting the block directly. *)
  let m = B.finish b in
  let f = List.hd m.Ast.m_funcs in
  let head = Option.get (Ast.find_block f "head") in
  head.Ast.b_instrs <-
    [ Ast.Phi ("i", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "i2") ]);
      Ast.Phi ("acc", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "acc2") ]);
      Ast.Cmp ("c", Ast.Slt, Ast.Reg "i", Ast.Reg "n") ];
  head.Ast.b_term <- Ast.CondBr (Ast.Reg "c", "body", "exit");
  f.Ast.f_blocks <-
    f.Ast.f_blocks
    @ [ { Ast.b_label = "body";
          b_instrs =
            [ Ast.Bin ("acc2", Ast.Add, Ast.Reg "acc", Ast.Reg "i");
              Ast.Bin ("i2", Ast.Add, Ast.Reg "i", Ast.Int 1L) ];
          b_term = Ast.Br "head" };
        { Ast.b_label = "exit"; b_instrs = []; b_term = Ast.Ret (Some (Ast.Reg "acc")) } ];
  Verify.check_exn m;
  let r = Interp.run m ~entry:"main" ~args:[ 5L ] in
  check_outcome "sum 0..4" (Interp.Finished (Some 10L)) r.Interp.outcome

let test_interp_indirect_call () =
  let b = B.create "ind" in
  B.start_func b ~name:"target" ~params:[];
  B.call_void b "print" [ B.cst 77 ];
  B.ret b (Some (B.cst 1));
  B.start_func b ~name:"main" ~params:[];
  (* Store the function pointer in memory, load it back, call it. *)
  let slot = B.alloca b 1 in
  B.store b (Ast.Global "target") slot;
  let fp = B.load b slot in
  let v = B.call_ind b fp [] in
  B.ret b (Some v);
  let r = run (B.finish b) () in
  check_outcome "indirect" (Interp.Finished (Some 1L)) r.Interp.outcome;
  Alcotest.(check bool) "side effect ran" true (r.Interp.events = [ Interp.Output 77L ])

let test_interp_hijacked_indirect_call () =
  (* Overflow corrupts a function pointer; the indirect call then jumps to
     the attacker's chosen function: the control-flow-hijack primitive the
     attack models build on. *)
  let b = B.create "hijack" in
  B.start_func b ~name:"benign" ~params:[];
  B.call_void b "print" [ B.cst 1 ];
  B.ret b None;
  B.start_func b ~name:"evil" ~params:[];
  B.call_void b "print" [ B.cst 666 ];
  B.ret b None;
  B.start_func b ~name:"main" ~params:[];
  let buf = B.alloca b 2 in
  let fpslot = B.alloca b 1 in
  B.store b (Ast.Global "benign") fpslot;
  (* buf[3] lands on fpslot[0] (2 slots + 1-slot redzone): the overflow
     silently replaces the function pointer — no hazard is recorded because
     the raw write targets a live neighbouring allocation, exactly like
     unchecked native code. *)
  let p = B.gep b buf (B.cst 3) in
  B.store b (Ast.Global "evil") p;
  let fp = B.load b fpslot in
  B.call_ind b fp [] |> ignore;
  B.ret b None;
  let r = run (B.finish b) () in
  Alcotest.(check bool) "evil ran" true (List.mem (Interp.Output 666L) r.Interp.events);
  Alcotest.(check bool) "benign skipped" false (List.mem (Interp.Output 1L) r.Interp.events);
  (* A bounds check on the same address would have caught it: the address is
     outside [buf]'s redzone-delimited range only from ASan's perspective,
     which instrumentation (not raw execution) enforces. *)
  Alcotest.(check int) "silent" 0 (List.length r.Interp.hazards)

let test_interp_stack_use_after_return () =
  let b = B.create "uar" in
  B.start_func b ~name:"leak" ~params:[];
  let p = B.alloca b 1 in
  B.store b (B.cst 9) p;
  B.ret b (Some p);
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "leak" [] in
  let v = B.load b p in
  B.ret b (Some v);
  let r = run (B.finish b) () in
  Alcotest.(check bool) "uaf-read hazard" true
    (List.exists (function Interp.Uaf_read _ -> true | _ -> false) r.Interp.hazards);
  check_outcome "stale stack value" (Interp.Finished (Some 9L)) r.Interp.outcome

let test_interp_syscall_events () =
  let b = B.create "sys" in
  B.start_func b ~name:"main" ~params:[];
  B.call_void b "sys_open" [ B.cst 1 ];
  B.call_void b "sys_read" [ B.cst 3; B.cst 100 ];
  B.call_void b "sys_write" [ B.cst 1; B.cst 5 ];
  B.ret b None;
  let r = run (B.finish b) () in
  Alcotest.(check int) "three syscalls" 3 (List.length r.Interp.events);
  Alcotest.(check bool) "order preserved" true
    (r.Interp.events
    = [ Interp.Syscall ("sys_open", [ 1L ]);
        Interp.Syscall ("sys_read", [ 3L; 100L ]);
        Interp.Syscall ("sys_write", [ 1L; 5L ]) ])

let test_interp_check_intrinsics () =
  let b = B.create "checks" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 2 ] in
  let in_bounds = B.call b Runtime_api.bounds_ok [ p ] in
  let oob = B.gep b p (B.cst 2) in
  let out_bounds = B.call b Runtime_api.bounds_ok [ oob ] in
  let sum = B.add b in_bounds (B.mul b out_bounds (B.cst 10)) in
  B.ret b (Some sum);
  let r = run (B.finish b) () in
  (* in-bounds -> 1, oob -> 0: result 1. *)
  check_outcome "bounds_ok results" (Interp.Finished (Some 1L)) r.Interp.outcome

let test_interp_report_handler_detects () =
  let b = B.create "detect" in
  B.start_func b ~name:"main" ~params:[];
  B.call_void b "__asan_report_store" [];
  B.unreachable b;
  let r = run (B.finish b) () in
  Alcotest.(check bool) "detected" true
    (match r.Interp.outcome with
     | Interp.Detected d -> d.Interp.d_handler = "__asan_report_store" && d.Interp.d_func = "main"
     | _ -> false)

let test_interp_overflow_check_intrinsics () =
  let b = B.create "ovfchk" in
  B.start_func b ~name:"main" ~params:[ "x"; "y" ];
  let a_ok = B.call b Runtime_api.add_ok [ Ast.Reg "x"; Ast.Reg "y" ] in
  let m_ok = B.call b Runtime_api.mul_ok [ Ast.Reg "x"; Ast.Reg "y" ] in
  let both = B.add b a_ok (B.mul b m_ok (B.cst 10)) in
  B.ret b (Some both);
  let m = B.finish b in
  let safe = Interp.run m ~entry:"main" ~args:[ 2L; 3L ] in
  check_outcome "no overflow" (Interp.Finished (Some 11L)) safe.Interp.outcome;
  let unsafe = Interp.run m ~entry:"main" ~args:[ Int64.max_int; 2L ] in
  check_outcome "both overflow" (Interp.Finished (Some 0L)) unsafe.Interp.outcome

let test_interp_undef_divergence () =
  (* Two runs of the same uninit-reading program with different undef
     resolutions observe different outputs: the nondeterminism source for
     NXE false-positive handling. *)
  let b = B.create "entropy" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 1 ] in
  let v = B.load b p in
  B.call_void b "print" [ v ];
  B.ret b None;
  let m = B.finish b in
  let r1 = run ~config:{ Interp.default_config with undef_as = 1L } m () in
  let r2 = run ~config:{ Interp.default_config with undef_as = 2L } m () in
  Alcotest.(check bool) "diverged" false (Interp.events_equal r1 r2)

let test_interp_select () =
  let b = B.create "sel" in
  B.start_func b ~name:"main" ~params:[ "c" ];
  let v = B.select b (Ast.Reg "c") (B.cst 10) (B.cst 20) in
  B.ret b (Some v);
  let m = B.finish b in
  check_outcome "true" (Interp.Finished (Some 10L))
    (Interp.run m ~entry:"main" ~args:[ 1L ]).Interp.outcome;
  check_outcome "false" (Interp.Finished (Some 20L))
    (Interp.run m ~entry:"main" ~args:[ 0L ]).Interp.outcome

let test_interp_missing_entry () =
  let m = prog_add 1 1 in
  Alcotest.check_raises "missing entry" (Invalid_argument "Interp.run: no such function nope")
    (fun () -> ignore (Interp.run m ~entry:"nope" ~args:[]))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_add_matches_int64 =
  QCheck.Test.make ~name:"interp: add = Int64.add" ~count:200
    QCheck.(pair int int)
    (fun (a, b) ->
      let m = prog_add a b in
      match (Interp.run m ~entry:"main" ~args:[]).Interp.outcome with
      | Interp.Finished (Some v) -> v = Int64.add (Int64.of_int a) (Int64.of_int b)
      | _ -> false)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interp: identical runs identical events" ~count:50
    QCheck.(int_range (-10) 10)
    (fun n ->
      let m = prog_branch () in
      let r1 = Interp.run m ~entry:"main" ~args:[ Int64.of_int n ] in
      let r2 = Interp.run m ~entry:"main" ~args:[ Int64.of_int n ] in
      Interp.events_equal r1 r2 && r1.Interp.steps = r2.Interp.steps)

let prop_verifier_accepts_builder_output =
  QCheck.Test.make ~name:"verify: builder output is well-formed" ~count:100
    QCheck.(pair (int_range 0 100) (int_range 0 100))
    (fun (a, b) -> Result.is_ok (Verify.check (prog_add a b)))

let () =
  ignore prog_loop_sum;
  Alcotest.run ~and_exit:false "bunshin_ir"
    [
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "duplicate function" `Quick test_builder_duplicate_func;
          Alcotest.test_case "duplicate label" `Quick test_builder_duplicate_label;
        ] );
      ("printer", [ Alcotest.test_case "smoke" `Quick test_printer_smoke ]);
      ( "verify",
        [
          Alcotest.test_case "accepts valid" `Quick test_verify_ok;
          Alcotest.test_case "undefined register" `Quick test_verify_undefined_register;
          Alcotest.test_case "unknown callee" `Quick test_verify_unknown_callee;
          Alcotest.test_case "unknown branch target" `Quick test_verify_unknown_branch_target;
          Alcotest.test_case "duplicate register" `Quick test_verify_duplicate_register;
          Alcotest.test_case "intrinsics allowed" `Quick test_verify_intrinsics_allowed;
          Alcotest.test_case "call with too many arguments" `Quick test_verify_too_many_args;
          Alcotest.test_case "call with too few arguments" `Quick test_verify_too_few_args;
          Alcotest.test_case "malloc with no argument" `Quick test_verify_malloc_no_args;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "succ/pred" `Quick test_cfg_succ_pred;
          Alcotest.test_case "reachability" `Quick test_cfg_reachability;
        ] );
      ( "interp",
        [
          Alcotest.test_case "add" `Quick test_interp_add;
          Alcotest.test_case "branch events" `Quick test_interp_branch_events;
          Alcotest.test_case "heap in bounds" `Quick test_interp_heap_in_bounds;
          Alcotest.test_case "heap oob silent corruption" `Quick test_interp_heap_oob_is_silent_corruption;
          Alcotest.test_case "heap wild pointer crash" `Quick test_interp_heap_wild_crashes;
          Alcotest.test_case "overflow corrupts neighbour" `Quick test_interp_heap_overflow_corrupts_neighbour;
          Alcotest.test_case "use after free" `Quick test_interp_uaf;
          Alcotest.test_case "double free" `Quick test_interp_double_free;
          Alcotest.test_case "uninit read" `Quick test_interp_uninit_read;
          Alcotest.test_case "div by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "null deref" `Quick test_interp_null_deref;
          Alcotest.test_case "globals" `Quick test_interp_globals;
          Alcotest.test_case "function call" `Quick test_interp_function_call;
          Alcotest.test_case "recursion" `Quick test_interp_recursion;
          Alcotest.test_case "infinite recursion" `Quick test_interp_infinite_recursion_stack_overflow;
          Alcotest.test_case "fuel exhaustion" `Quick test_interp_fuel;
          Alcotest.test_case "phi loop" `Quick test_interp_phi_loop;
          Alcotest.test_case "indirect call" `Quick test_interp_indirect_call;
          Alcotest.test_case "hijacked indirect call" `Quick test_interp_hijacked_indirect_call;
          Alcotest.test_case "stack use after return" `Quick test_interp_stack_use_after_return;
          Alcotest.test_case "syscall events" `Quick test_interp_syscall_events;
          Alcotest.test_case "check intrinsics" `Quick test_interp_check_intrinsics;
          Alcotest.test_case "report handler detects" `Quick test_interp_report_handler_detects;
          Alcotest.test_case "overflow check intrinsics" `Quick test_interp_overflow_check_intrinsics;
          Alcotest.test_case "undef divergence" `Quick test_interp_undef_divergence;
          Alcotest.test_case "select" `Quick test_interp_select;
          Alcotest.test_case "missing entry" `Quick test_interp_missing_entry;
        ] );
      ( "properties",
        Kit.qcheck
          [
            prop_add_matches_int64;
            prop_interp_deterministic;
            prop_verifier_accepts_builder_output;
          ] );
    ]

(* Appended: dominance analysis and the verifier's SSA rule. *)
let diamond_func () =
  (* entry -> (l / r) -> join *)
  {
    Ast.f_name = "main";
    f_params = [ "c" ];
    f_blocks =
      [
        { Ast.b_label = "entry"; b_instrs = [];
          b_term = Ast.CondBr (Ast.Reg "c", "l", "r") };
        { Ast.b_label = "l"; b_instrs = [ Ast.Bin ("x", Ast.Add, Ast.Int 1L, Ast.Int 2L) ];
          b_term = Ast.Br "join" };
        { Ast.b_label = "r"; b_instrs = [ Ast.Bin ("y", Ast.Add, Ast.Int 3L, Ast.Int 4L) ];
          b_term = Ast.Br "join" };
        { Ast.b_label = "join";
          b_instrs = [ Ast.Phi ("m", [ ("l", Ast.Reg "x"); ("r", Ast.Reg "y") ]) ];
          b_term = Ast.Ret (Some (Ast.Reg "m")) };
      ];
  }

let test_dominance_diamond () =
  let f = diamond_func () in
  let d = Dominance.of_func f in
  Alcotest.(check bool) "entry dom join" true (Dominance.dominates d "entry" "join");
  Alcotest.(check bool) "l not dom join" false (Dominance.dominates d "l" "join");
  Alcotest.(check bool) "reflexive" true (Dominance.dominates d "l" "l");
  Alcotest.(check bool) "r not dom join" false (Dominance.dominates d "r" "join");
  Alcotest.(check bool) "join not dom entry" false (Dominance.dominates d "join" "entry")

let test_dominance_accepts_phi_diamond () =
  let m = { Ast.m_name = "d"; m_globals = []; m_funcs = [ diamond_func () ] } in
  Alcotest.(check bool) "valid" true (Result.is_ok (Verify.check m))

let test_dominance_rejects_cross_branch_use () =
  (* Using %x (defined only on the left arm) in the join block directly —
     the classic non-dominating use that textual checks miss. *)
  let f = diamond_func () in
  let join = Option.get (Ast.find_block f "join") in
  join.Ast.b_instrs <- [ Ast.Bin ("m", Ast.Add, Ast.Reg "x", Ast.Int 1L) ];
  let m = { Ast.m_name = "d"; m_globals = []; m_funcs = [ f ] } in
  Alcotest.(check bool) "rejected" true (Result.is_error (Verify.check m))

let test_dominance_rejects_bad_phi_edge () =
  (* Phi pulling %y along the l edge, where it was never defined. *)
  let f = diamond_func () in
  let join = Option.get (Ast.find_block f "join") in
  join.Ast.b_instrs <- [ Ast.Phi ("m", [ ("l", Ast.Reg "y"); ("r", Ast.Reg "y") ]) ];
  let m = { Ast.m_name = "d"; m_globals = []; m_funcs = [ f ] } in
  Alcotest.(check bool) "rejected" true (Result.is_error (Verify.check m))

let test_dominance_loop_ok () =
  (* A back edge: the phi takes the body's value on the loop edge. *)
  let f_blocks =
    [
      { Ast.b_label = "entry"; b_instrs = []; b_term = Ast.Br "head" };
      { Ast.b_label = "head";
        b_instrs =
          [ Ast.Phi ("i", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "i2") ]);
            Ast.Cmp ("c", Ast.Slt, Ast.Reg "i", Ast.Int 3L) ];
        b_term = Ast.CondBr (Ast.Reg "c", "body", "exit") };
      { Ast.b_label = "body";
        b_instrs = [ Ast.Bin ("i2", Ast.Add, Ast.Reg "i", Ast.Int 1L) ];
        b_term = Ast.Br "head" };
      { Ast.b_label = "exit"; b_instrs = []; b_term = Ast.Ret (Some (Ast.Reg "i")) };
    ]
  in
  let m =
    { Ast.m_name = "loop"; m_globals = [];
      m_funcs = [ { Ast.f_name = "main"; f_params = []; f_blocks } ] }
  in
  Alcotest.(check bool) "valid loop" true (Result.is_ok (Verify.check m))

let () =
  Alcotest.run ~and_exit:false "bunshin_ir_dominance"
    [
      ( "dominance",
        [
          Alcotest.test_case "diamond sets" `Quick test_dominance_diamond;
          Alcotest.test_case "phi diamond accepted" `Quick test_dominance_accepts_phi_diamond;
          Alcotest.test_case "cross-branch use rejected" `Quick test_dominance_rejects_cross_branch_use;
          Alcotest.test_case "bad phi edge rejected" `Quick test_dominance_rejects_bad_phi_edge;
          Alcotest.test_case "loop accepted" `Quick test_dominance_loop_ok;
        ] );
    ]

(* Appended: differential suite — the precompiled fast engine against the
   reference oracle.  The fast path must reproduce the ENTIRE run record
   (outcome, events, timeline, hazards, step count) bit-for-bit, across
   program shapes, sanitizer instrumentation, and layout seeds. *)

module Inst = Bunshin_sanitizer.Instrument
module San = Bunshin_sanitizer.Sanitizer

let runs_identical (a : Interp.run) (b : Interp.run) =
  a.Interp.outcome = b.Interp.outcome
  && a.Interp.events = b.Interp.events
  && a.Interp.timeline = b.Interp.timeline
  && a.Interp.hazards = b.Interp.hazards
  && a.Interp.steps = b.Interp.steps

let diff_seeds = [ 0; 1; 12345 ]

(* The module itself plus every sanitizer that instruments it cleanly,
   alone and all-combined: instrumentation exercises the check-intrinsic
   and report-handler paths of both engines. *)
let sanitizer_variants m =
  let apply label sans =
    match Inst.apply sans m with Ok m' -> Some (label, m') | Error _ -> None
  in
  ("vanilla", m)
  :: List.filter_map
       (fun s -> apply (San.name s) [ s ])
       San.all
  @ Option.to_list (apply "all-combined" San.all)

let assert_differential ?(entry = "main") ?(fuel = Interp.default_config.Interp.fuel)
    name m args_list =
  List.iter
    (fun (variant, m) ->
      let pm = Interp.compile m in
      List.iter
        (fun seed ->
          let config = { Interp.default_config with layout_seed = seed; fuel } in
          List.iter
            (fun args ->
              let fast = Interp.run_compiled ~config pm ~entry ~args in
              let oracle = Interp.run_reference ~config m ~entry ~args in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s seed=%d args=[%s]" name variant seed
                   (String.concat ";" (List.map Int64.to_string args)))
                true
                (runs_identical fast oracle))
            args_list)
        diff_seeds)
    (sanitizer_variants m)

(* ---- corpus ---- *)

let blk label instrs term = { Ast.b_label = label; b_instrs = instrs; b_term = term }
let func name params blocks = { Ast.f_name = name; f_params = params; f_blocks = blocks }
let modul ?(globals = []) name funcs = { Ast.m_name = name; m_globals = globals; m_funcs = funcs }

(* sum 0..n-1 through a phi loop *)
let diff_phi_loop () =
  modul "phi_loop"
    [
      func "main" [ "n" ]
        [
          blk "entry" [] (Ast.Br "head");
          blk "head"
            [
              Ast.Phi ("i", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "i2") ]);
              Ast.Phi ("acc", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "acc2") ]);
              Ast.Cmp ("c", Ast.Slt, Ast.Reg "i", Ast.Reg "n");
            ]
            (Ast.CondBr (Ast.Reg "c", "body", "exit"));
          blk "body"
            [
              Ast.Bin ("acc2", Ast.Add, Ast.Reg "acc", Ast.Reg "i");
              Ast.Bin ("i2", Ast.Add, Ast.Reg "i", Ast.Int 1L);
            ]
            (Ast.Br "head");
          blk "exit" [] (Ast.Ret (Some (Ast.Reg "acc")));
        ];
    ]

(* indirect call through a function-pointer argument *)
let diff_indirect () =
  modul "indirect"
    [
      func "gadget" [] [ blk "entry" [] (Ast.Ret (Some (Ast.Int 7L))) ];
      func "main" [ "fp" ]
        [
          blk "entry"
            [ Ast.CallInd (Some "r", Ast.Reg "fp", []) ]
            (Ast.Ret (Some (Ast.Reg "r")));
        ];
    ]

(* recursion: factorial *)
let diff_fact () =
  modul "fact"
    [
      func "fact" [ "n" ]
        [
          blk "entry"
            [ Ast.Cmp ("c", Ast.Sle, Ast.Reg "n", Ast.Int 1L) ]
            (Ast.CondBr (Ast.Reg "c", "base", "rec"));
          blk "base" [] (Ast.Ret (Some (Ast.Int 1L)));
          blk "rec"
            [
              Ast.Bin ("n1", Ast.Sub, Ast.Reg "n", Ast.Int 1L);
              Ast.Call (Some "r", "fact", [ Ast.Reg "n1" ]);
              Ast.Bin ("p", Ast.Mul, Ast.Reg "n", Ast.Reg "r");
            ]
            (Ast.Ret (Some (Ast.Reg "p")));
        ];
      func "main" [ "n" ]
        [
          blk "entry"
            [ Ast.Call (Some "r", "fact", [ Ast.Reg "n" ]) ]
            (Ast.Ret (Some (Ast.Reg "r")));
        ];
    ]

(* globals with partial init, pointer arithmetic, stores *)
let diff_globals () =
  modul "globals"
    ~globals:
      [
        { Ast.g_name = "tab"; g_size = 4; g_init = [| 10L; 20L |] };
        { Ast.g_name = "flag"; g_size = 1; g_init = [| 1L |] };
      ]
    [
      func "main" []
        [
          blk "entry"
            [
              Ast.Gep ("p", Ast.Global "tab", Ast.Int 1L);
              Ast.Load ("v", Ast.Reg "p");
              Ast.Call (None, "print", [ Ast.Reg "v" ]);
              Ast.Store (Ast.Int 33L, Ast.Global "flag");
              Ast.Load ("w", Ast.Global "flag");
              Ast.Bin ("s", Ast.Add, Ast.Reg "v", Ast.Reg "w");
            ]
            (Ast.Ret (Some (Ast.Reg "s")));
        ];
    ]

(* uninitialised read feeding output: exercises undef_as *)
let diff_uninit () =
  modul "uninit"
    [
      func "main" []
        [
          blk "entry"
            [
              Ast.Call (Some "p", "malloc", [ Ast.Int 2L ]);
              Ast.Load ("v", Ast.Reg "p");
              Ast.Call (None, "print", [ Ast.Reg "v" ]);
            ]
            (Ast.Ret (Some (Ast.Reg "v")));
        ];
    ]

(* syscalls, print, and every check intrinsic in one straight line *)
let diff_intrinsics () =
  modul "intrinsics"
    [
      func "main" [ "n" ]
        [
          blk "entry"
            [
              Ast.Call (Some "p", "malloc", [ Ast.Int 4L ]);
              Ast.Call (None, "sys_write", [ Ast.Int 1L; Ast.Reg "n" ]);
              Ast.Call (Some "b1", "__bunshin_bounds_ok", [ Ast.Reg "p" ]);
              Ast.Call (Some "b2", "__bunshin_in_alloc", [ Ast.Reg "p" ]);
              Ast.Call (Some "b3", "__bunshin_not_freed", [ Ast.Reg "p" ]);
              Ast.Call (Some "b4", "__bunshin_init_ok", [ Ast.Reg "p" ]);
              Ast.Call (Some "b5", "__bunshin_add_ok", [ Ast.Reg "n"; Ast.Int 1L ]);
              Ast.Call (Some "b6", "__bunshin_mul_ok", [ Ast.Reg "n"; Ast.Int 3L ]);
              Ast.Call (Some "b7", "__bunshin_shift_ok", [ Ast.Reg "n" ]);
              Ast.Call (Some "b8", "__bunshin_code_ptr_ok", [ Ast.Reg "n" ]);
              Ast.Call (None, "free", [ Ast.Reg "p" ]);
              Ast.Call (None, "sys_exit", [ Ast.Int 0L ]);
              Ast.Bin ("s", Ast.Add, Ast.Reg "b1", Ast.Reg "b8");
            ]
            (Ast.Ret (Some (Ast.Reg "s")));
        ];
    ]

(* select on both arms, with an undef condition path *)
let diff_select () =
  modul "select"
    [
      func "main" [ "c" ]
        [
          blk "entry"
            [
              Ast.Select ("v", Ast.Reg "c", Ast.Int 10L, Ast.Int 20L);
              Ast.Select ("w", Ast.Undef, Ast.Int 1L, Ast.Reg "v");
              Ast.Bin ("s", Ast.Add, Ast.Reg "v", Ast.Reg "w");
            ]
            (Ast.Ret (Some (Ast.Reg "s")));
        ];
    ]

(* stack use-after-return: callee leaks its alloca *)
let diff_uar () =
  modul "uar"
    [
      func "leak" []
        [
          blk "entry"
            [
              Ast.Alloca ("p", 2);
              Ast.Store (Ast.Int 9L, Ast.Reg "p");
            ]
            (Ast.Ret (Some (Ast.Reg "p")));
        ];
      func "main" []
        [
          blk "entry"
            [
              Ast.Call (Some "p", "leak", []);
              Ast.Load ("v", Ast.Reg "p");
            ]
            (Ast.Ret (Some (Ast.Reg "v")));
        ];
    ]

(* report handler fires mid-run *)
let diff_detect () =
  modul "detect"
    [
      func "main" [ "n" ]
        [
          blk "entry"
            [ Ast.Cmp ("c", Ast.Sgt, Ast.Reg "n", Ast.Int 0L) ]
            (Ast.CondBr (Ast.Reg "c", "bad", "ok"));
          blk "bad"
            [ Ast.Call (None, "__asan_report_store", [ Ast.Reg "n" ]) ]
            Ast.Unreachable;
          blk "ok" [] (Ast.Ret (Some (Ast.Int 0L)));
        ];
    ]

let diff_div0 () =
  modul "div0"
    [
      func "main" [ "n" ]
        [
          blk "entry"
            [ Ast.Bin ("q", Ast.Sdiv, Ast.Int 100L, Ast.Reg "n") ]
            (Ast.Ret (Some (Ast.Reg "q")));
        ];
    ]

let diff_unreachable () =
  modul "unreach" [ func "main" [] [ blk "entry" [] Ast.Unreachable ] ]

let diff_infinite () =
  modul "spin" [ func "main" [] [ blk "entry" [] (Ast.Br "entry") ] ]

(* ---- the tests ---- *)

let test_diff_corpus () =
  assert_differential "add" (prog_add 2 3) [ [] ];
  assert_differential "branch" (prog_branch ()) [ [ 1L ]; [ -1L ]; [ 0L ] ];
  assert_differential "heap in bounds" (prog_heap_rw 0) [ [] ];
  assert_differential "heap redzone" (prog_heap_rw 4) [ [] ];
  assert_differential "heap wild" (prog_heap_rw 4096) [ [] ];
  assert_differential "uaf" (prog_uaf ~double_free:false) [ [] ];
  assert_differential "double free" (prog_uaf ~double_free:true) [ [] ];
  assert_differential "phi loop" (diff_phi_loop ()) [ [ 0L ]; [ 1L ]; [ 17L ] ];
  assert_differential "fact" (diff_fact ()) [ [ 0L ]; [ 5L ]; [ 10L ] ];
  assert_differential "globals" (diff_globals ()) [ [] ];
  assert_differential "uninit" (diff_uninit ()) [ [] ];
  assert_differential "intrinsics" (diff_intrinsics ()) [ [ 3L ]; [ 100L ]; [ -1L ] ];
  assert_differential "select" (diff_select ()) [ [ 1L ]; [ 0L ] ];
  assert_differential "uar" (diff_uar ()) [ [] ];
  assert_differential "detect" (diff_detect ()) [ [ 1L ]; [ 0L ] ];
  assert_differential "div0" (diff_div0 ()) [ [ 4L ]; [ 0L ] ];
  assert_differential "unreachable" (diff_unreachable ()) [ [] ];
  assert_differential ~fuel:100 "fuel" (diff_infinite ()) [ [] ]

let test_diff_indirect () =
  let m = diff_indirect () in
  let good = Interp.address_of_func m "gadget" in
  assert_differential "indirect" m [ [ good ]; [ 999L ]; [ 0L ] ]

let test_diff_overflow_demo () =
  let ic = open_in "../examples/ir/overflow_demo.bir" in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let m = match Parser.parse src with Ok m -> m | Error e -> Alcotest.fail e in
  assert_differential "overflow_demo" m [ [ 4L ]; [ 9L ]; [ 0L ] ]

let test_diff_cve_cases () =
  List.iter
    (fun case ->
      let m = case.Bunshin_attack.Cve.c_modul in
      let entry = case.Bunshin_attack.Cve.c_entry in
      assert_differential ~entry
        ("cve " ^ case.Bunshin_attack.Cve.c_program)
        m
        [ case.Bunshin_attack.Cve.c_exploit_args; case.Bunshin_attack.Cve.c_benign ])
    Bunshin_attack.Cve.cases

(* Exception parity: lazy resolution errors must surface identically. *)
let test_diff_errors () =
  let catches f = match f () with _ -> None | exception e -> Some e in
  let same name m args =
    let pm = Interp.compile m in
    let fast = catches (fun () -> Interp.run_compiled pm ~entry:"main" ~args) in
    let oracle = catches (fun () -> Interp.run_reference m ~entry:"main" ~args) in
    Alcotest.(check bool) name true (fast = oracle && fast <> None)
  in
  same "unbound register"
    (modul "e1"
       [
         func "main" []
           [ blk "entry" [ Ast.Bin ("x", Ast.Add, Ast.Reg "ghost", Ast.Int 1L) ]
               (Ast.Ret (Some (Ast.Reg "x"))) ];
       ])
    [];
  same "unknown global"
    (modul "e2"
       [
         func "main" []
           [ blk "entry" [ Ast.Load ("x", Ast.Global "nope") ] (Ast.Ret (Some (Ast.Reg "x"))) ];
       ])
    [];
  same "unknown intrinsic"
    (modul "e3"
       [
         func "main" []
           [ blk "entry" [ Ast.Call (Some "x", "frobnicate", []) ] (Ast.Ret None) ];
       ])
    [];
  same "jump to unknown block"
    (modul "e4" [ func "main" [] [ blk "entry" [] (Ast.Br "nowhere") ] ])
    [];
  same "arity mismatch"
    (modul "e5"
       [
         func "callee" [ "a"; "b" ] [ blk "entry" [] (Ast.Ret None) ];
         func "main" []
           [ blk "entry" [ Ast.Call (None, "callee", [ Ast.Int 1L ]) ] (Ast.Ret None) ];
       ])
    [];
  same "function without blocks"
    (modul "e6"
       [
         func "empty" [] [];
         func "main" [] [ blk "entry" [ Ast.Call (None, "empty", []) ] (Ast.Ret None) ];
       ])
    [];
  (* missing entry raises before any state exists, in both engines *)
  let m = prog_add 1 1 in
  let pm = Interp.compile m in
  Alcotest.check_raises "missing entry (compiled)"
    (Invalid_argument "Interp.run: no such function nope") (fun () ->
      ignore (Interp.run_compiled pm ~entry:"nope" ~args:[]));
  Alcotest.check_raises "missing entry (reference)"
    (Invalid_argument "Interp.run: no such function nope") (fun () ->
      ignore (Interp.run_reference m ~entry:"nope" ~args:[]))

(* Telemetry parity: both engines drive the domain counters identically. *)
let test_diff_telemetry () =
  let counters m args =
    let engine run =
      let sink = Bunshin_telemetry.Telemetry.create () in
      let dom = Bunshin_telemetry.Telemetry.domain sink ~name:"diff" in
      ignore (run ~telemetry:dom ~entry:"main" ~args);
      Bunshin_telemetry.Telemetry.metrics_to_text sink
    in
    ( engine (fun ~telemetry ~entry ~args ->
          Interp.run_compiled ~telemetry (Interp.compile m) ~entry ~args),
      engine (fun ~telemetry ~entry ~args -> Interp.run_reference ~telemetry m ~entry ~args) )
  in
  let m = Inst.apply_exn [ San.asan ] (prog_heap_rw 4) in
  let fast, oracle = counters m [] in
  Alcotest.(check string) "asan oob counters" oracle fast;
  let fast, oracle = counters (diff_intrinsics ()) [ 3L ] in
  Alcotest.(check string) "intrinsics counters" oracle fast

let prop_diff_random_seeds =
  QCheck.Test.make ~name:"differential: random layout seeds" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range (-4) 20))
    (fun (seed, n) ->
      let m = diff_phi_loop () in
      let config = { Interp.default_config with layout_seed = seed } in
      let args = [ Int64.of_int n ] in
      runs_identical
        (Interp.run_compiled ~config (Interp.compile m) ~entry:"main" ~args)
        (Interp.run_reference ~config m ~entry:"main" ~args))

let prop_diff_random_alloc =
  QCheck.Test.make ~name:"differential: allocator traffic across seeds" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let m = Inst.apply_exn [ San.asan ] (prog_uaf ~double_free:true) in
      let config = { Interp.default_config with layout_seed = seed } in
      runs_identical
        (Interp.run_compiled ~config (Interp.compile m) ~entry:"main" ~args:[])
        (Interp.run_reference ~config m ~entry:"main" ~args:[]))

let () =
  Alcotest.run ~and_exit:false "bunshin_ir_differential"
    [
      ( "differential",
        [
          Alcotest.test_case "corpus x sanitizers x seeds" `Quick test_diff_corpus;
          Alcotest.test_case "indirect calls" `Quick test_diff_indirect;
          Alcotest.test_case "overflow_demo.bir" `Quick test_diff_overflow_demo;
          Alcotest.test_case "cve cases" `Quick test_diff_cve_cases;
          Alcotest.test_case "error parity" `Quick test_diff_errors;
          Alcotest.test_case "telemetry parity" `Quick test_diff_telemetry;
        ] );
      ( "properties",
        Kit.qcheck [ prop_diff_random_seeds; prop_diff_random_alloc ] );
    ]

(* ------------------------------------------------------------------ *)
(* Regression: forged absolute pointers.  An integer conjured from thin
   air and used as a pointer (never returned by the allocator) must trap
   as [Wild_pointer] in both engines; the reference interpreter's cell
   lookup used to be an unguarded [Hashtbl.find] that could leak
   [Not_found] out of [run] instead of producing a crash outcome.  The
   addresses are one past the fast engine's page table, one on a
   never-created page inside it, and a negative one: all three resolve to
   the shared empty page, whose value plane is empty.  [free] and the
   allocation-metadata checks read that page too, and must agree with the
   reference without raising. *)

let forged_ptr_prog ~op addr =
  let b = B.create "forged" in
  B.start_func b ~name:"main" ~params:[];
  let wild = Ast.Int addr in
  let r =
    match op with
    | `Load -> B.load b wild
    | `Store ->
      B.store b (B.cst 1) wild;
      B.cst 0
    | `Call f -> B.call b f [ wild ]
  in
  B.ret b (Some r);
  B.finish b

let test_wild_forged_pointer () =
  List.iter
    (fun addr ->
      List.iter
        (fun (op_name, op) ->
          let m = forged_ptr_prog ~op addr in
          let pm = Interp.compile m in
          let label = Printf.sprintf "%s %Ld" op_name addr in
          let check_engine name f =
            match f () with
            | r -> (
              match op with
              | `Load | `Store ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s traps wild" name label)
                  true
                  (match r.Interp.outcome with
                  | Interp.Crashed (Interp.Wild_pointer a) -> a = addr
                  | _ -> false)
              | `Call _ -> ())
            | exception e ->
              Alcotest.failf "%s raised %s on %s" name (Printexc.to_string e) label
          in
          check_engine "reference" (fun () -> Interp.run_reference m ~entry:"main" ~args:[]);
          check_engine "fast" (fun () -> Interp.run_compiled pm ~entry:"main" ~args:[]);
          (* And the two engines must agree on the whole run record. *)
          assert_differential ("forged pointer " ^ label) m [ [] ])
        [
          ("load", `Load); ("store", `Store); ("free", `Call Runtime_api.free);
          ("bounds_ok", `Call Runtime_api.bounds_ok); ("in_alloc", `Call Runtime_api.in_alloc);
          ("not_freed", `Call Runtime_api.not_freed); ("init_ok", `Call Runtime_api.init_ok);
        ])
    [ 0x7FF0_0000L; 0x20000L; -8L ]

(* ------------------------------------------------------------------ *)
(* Regression: the interpreter heap is bounded, so a program cannot grow
   the host process until it runs out of memory.  An allocation past
   the interpreter's heap limit, 2^22 slots, ends the run with
   [Heap_exhausted] in both engines,
   before any slot is mapped, whether it comes through malloc, alloca or
   a global. *)

(* main(n) allocates through [alloc], stores to the result and loads it
   back. *)
let alloc_prog name alloc =
  let b = B.create name in
  B.start_func b ~name:"main" ~params:[ "n" ];
  let p = alloc b in
  B.store b (B.cst 1) p;
  B.ret b (Some (B.load b p));
  B.finish b

let heap_limit = 1 lsl 22

let test_heap_limit () =
  let exhausted name m args =
    Alcotest.(check bool) (name ^ " exhausts the heap") true
      ((Interp.run m ~entry:"main" ~args).Interp.outcome = Interp.Crashed Interp.Heap_exhausted);
    assert_differential ("heap limit via " ^ name) m [ args ]
  in
  let malloc = alloc_prog "huge_malloc" (fun b -> B.call b Runtime_api.malloc [ Ast.Reg "n" ]) in
  List.iter
    (fun n -> exhausted (Printf.sprintf "malloc(%Ld)" n) malloc [ n ])
    [ Int64.of_int heap_limit; 10_000_000_000L; Int64.of_int max_int ];
  exhausted "alloca" (alloc_prog "huge_alloca" (fun b -> B.alloca b heap_limit)) [ 0L ];
  exhausted "global"
    (alloc_prog "huge_global" (fun b ->
         B.add_global b ~name:"g" ~size:heap_limit ();
         Ast.Global "g"))
    [ 0L ];
  (* Headroom: a million-slot heap, twice what any current caller builds,
     still fits. *)
  Alcotest.(check bool) "malloc(1M) fits" true
    ((Interp.run malloc ~entry:"main" ~args:[ 1_000_000L ]).Interp.outcome
    = Interp.Finished (Some 1L))

(* ------------------------------------------------------------------ *)
(* Setup cost: a run of the 51-step serve kernel maps no heap page, so it
   must put nothing directly on the major heap.  The shared all-unmapped
   page (9,222 words) is built once per process, not once per run. *)

let test_run_setup_major_words () =
  let pm = Interp.compile (Bunshin.Experiments.serve_ir_kernel ()) in
  let runs () =
    for rid = 1 to 100 do
      ignore (Interp.run_compiled pm ~entry:"main" ~args:[ Int64.of_int rid ])
    done
  in
  runs ();
  let _, promoted0, major0 = Gc.counters () in
  runs ();
  let _, promoted1, major1 = Gc.counters () in
  Alcotest.(check (float 0.0)) "direct major words over 100 runs" 0.0
    (major1 -. major0 -. (promoted1 -. promoted0))

let () =
  Alcotest.run ~and_exit:false "bunshin_ir_regressions"
    [
      ( "wild-pointer",
        [ Alcotest.test_case "forged absolute pointer" `Quick test_wild_forged_pointer ] );
      ("heap-limit", [ Alcotest.test_case "malloc, alloca and global" `Quick test_heap_limit ]);
      ( "setup-cost",
        [ Alcotest.test_case "no direct major words per run" `Quick test_run_setup_major_words ] );
    ]
