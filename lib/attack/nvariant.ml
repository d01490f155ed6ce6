open Bunshin_ir
module B = Builder
module Nxe = Bunshin_nxe.Nxe

(* main(where, what):
     dispatch_table[0] = &benign_handler
     if where <> 0 then *(where) = what        (the exploit primitive)
     fp = dispatch_table[0]
     fp ()                                      (hijack target) *)
let demo_modul () =
  let b = B.create "nvariant-demo" in
  B.add_global b ~name:"dispatch_table" ~size:2 ();
  B.start_func b ~name:"benign_handler" ~params:[];
  B.call_void b "print" [ B.cst 1 ];
  B.ret b None;
  B.start_func b ~name:"evil" ~params:[];
  B.call_void b "print" [ B.cst 666 ];
  B.call_void b "sys_write" [ B.cst 1; B.cst 666 ];
  B.ret b None;
  B.start_func b ~name:"main" ~params:[ "where"; "what" ];
  B.store b (Ast.Global "benign_handler") (Ast.Global "dispatch_table");
  let armed = B.cmp b Ast.Ne (Ast.Reg "where") (B.cst 0) in
  B.cond_br b armed "attack" "dispatch";
  B.start_block b "attack";
  B.store b (Ast.Reg "what") (Ast.Reg "where");
  B.br b "dispatch";
  B.start_block b "dispatch";
  let fp = B.load b (Ast.Global "dispatch_table") in
  B.call_ind b fp [] |> ignore;
  B.ret b (Some (B.cst 0));
  B.finish b

type verdict = {
  nv_hijacked_a : bool;
  nv_hijacked_b : bool;
  nv_diverged : bool;
  nv_detected : bool;
  nv_benign_clean : bool;
}

let config_of seed = { Interp.default_config with layout_seed = seed }

let hijacked run = List.mem (Interp.Output 666L) run.Interp.events

let finished run =
  match run.Interp.outcome with Interp.Finished _ -> true | _ -> false

let evaluate () =
  let seed_a = 41 and seed_b = 42 in
  let m = demo_modul () in
  (* The attacker leaked variant A's layout: the dispatch-table slot
     address under seed_a, and the (layout-independent) code address of the
     gadget. *)
  let where = Interp.address_of_global ~config:(config_of seed_a) m "dispatch_table" in
  let what = Interp.address_of_func m "evil" in
  (* One compilation serves every seed: only the layout differs per run. *)
  let pm = Interp.compile m in
  let run seed args = Interp.run_compiled ~config:(config_of seed) pm ~entry:"main" ~args in
  let a = run seed_a [ where; what ] in
  let b = run seed_b [ where; what ] in
  let benign_a = run seed_a [ 0L; 0L ] in
  let benign_b = run seed_b [ 0L; 0L ] in
  {
    nv_hijacked_a = hijacked a;
    nv_hijacked_b = hijacked b;
    nv_diverged = not (Interp.events_equal a b);
    (* The monitor's decision: the variants' group run under the NXE. *)
    nv_detected = (Bridge.run_runs [ a; b ]).Nxe.outcome <> `All_finished;
    nv_benign_clean =
      finished benign_a && finished benign_b
      && (Bridge.run_runs [ benign_a; benign_b ]).Nxe.outcome = `All_finished;
  }

let single_layout_escapes () =
  let m = demo_modul () in
  let seed = 41 in
  let where = Interp.address_of_global ~config:(config_of seed) m "dispatch_table" in
  let what = Interp.address_of_func m "evil" in
  let pm = Interp.compile m in
  let run args = Interp.run_compiled ~config:(config_of seed) pm ~entry:"main" ~args in
  let a = run [ where; what ] in
  let b = run [ where; what ] in
  (* Both hijacked, identically: the monitor sees nothing. *)
  hijacked a && hijacked b && (Bridge.run_runs [ a; b ]).Nxe.outcome = `All_finished
