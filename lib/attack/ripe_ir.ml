open Bunshin_ir
module B = Builder
module San = Bunshin_sanitizer.Sanitizer
module Inst = Bunshin_sanitizer.Instrument
module Slicer = Bunshin_slicer.Slicer
module Forensics = Bunshin_forensics.Forensics
module Nxe = Bunshin_nxe.Nxe

type location = Stack | Heap | Bss | Data

type target = Adjacent_func_ptr | Struct_func_ptr | Adjacent_auth_flag

type technique = Direct | Indirect

type combo = { location : location; target : target; technique : technique }

let combos =
  let direct =
    List.concat_map
      (fun location ->
        List.map
          (fun target -> { location; target; technique = Direct })
          [ Adjacent_func_ptr; Struct_func_ptr; Adjacent_auth_flag ])
      [ Stack; Heap; Bss; Data ]
  in
  (* Indirect attacks need the attacker to know the target's absolute
     address; only the global segments give one without a leak. *)
  let indirect =
    List.map
      (fun location -> { location; target = Adjacent_func_ptr; technique = Indirect })
      [ Bss; Data ]
  in
  direct @ indirect

let location_name = function Stack -> "stack" | Heap -> "heap" | Bss -> "bss" | Data -> "data"

let target_name = function
  | Adjacent_func_ptr -> "adjacent-func-ptr"
  | Struct_func_ptr -> "struct-func-ptr"
  | Adjacent_auth_flag -> "auth-flag"

let technique_name = function Direct -> "direct" | Indirect -> "indirect"

let pp_combo fmt c =
  Format.fprintf fmt "%s/%s/%s" (location_name c.location) (target_name c.target)
    (technique_name c.technique)

(* --------------------------------------------------------------- *)
(* Program generation *)

let buf_size c = match c.target with Struct_func_ptr -> 5 | _ -> 4

(* The copy loop, as its own function so check distribution has a
   "vulnerable function" to assign (built with an explicit phi loop). *)
let smash_func =
  {
    Ast.f_name = "smash";
    f_params = [ "dst"; "len"; "value" ];
    f_blocks =
      [
        { Ast.b_label = "entry"; b_instrs = []; b_term = Ast.Br "head" };
        {
          Ast.b_label = "head";
          b_instrs =
            [
              Ast.Phi ("i", [ ("entry", Ast.Int 0L); ("body", Ast.Reg "inext") ]);
              Ast.Cmp ("c", Ast.Slt, Ast.Reg "i", Ast.Reg "len");
            ];
          b_term = Ast.CondBr (Ast.Reg "c", "body", "exit");
        };
        {
          Ast.b_label = "body";
          b_instrs =
            [
              Ast.Gep ("p", Ast.Reg "dst", Ast.Reg "i");
              Ast.Store (Ast.Reg "value", Ast.Reg "p");
              Ast.Bin ("inext", Ast.Add, Ast.Reg "i", Ast.Int 1L);
            ];
          b_term = Ast.Br "head";
        };
        { Ast.b_label = "exit"; b_instrs = []; b_term = Ast.Ret (Some (Ast.Int 0L)) };
      ];
  }

let program c =
  let b = B.create "ripe-ir" in
  (* Globals first so Bss/Data buffers sit at stable addresses. *)
  let init_of = function
    | Data -> [| 0L |] (* initialised segment *)
    | _ -> [||]
  in
  (match c.location with
   | Bss | Data ->
     B.add_global b ~name:"g_buf" ~size:(buf_size c)
       ~init:(if c.location = Data then Array.make (buf_size c) 0L else [||])
       ();
     B.add_global b ~name:"g_target" ~size:1 ~init:(init_of c.location) ()
   | Stack | Heap -> ());
  if c.technique = Indirect then begin
    B.add_global b ~name:"g_scratch" ~size:1 ~init:[| 0L |] ();
    B.add_global b ~name:"g_ptr_slot" ~size:1 ~init:[||] ()
  end;
  B.start_func b ~name:"benign_handler" ~params:[];
  B.call_void b "print" [ B.cst 1 ];
  B.ret b None;
  B.start_func b ~name:"gadget" ~params:[];
  B.call_void b "print" [ B.cst 666 ];
  B.ret b None;
  (* main(len, v1, v2) *)
  B.start_func b ~name:"main" ~params:[ "len"; "v1"; "v2" ];
  let buf, target_ptr =
    match c.location with
    | Stack ->
      let buf = B.alloca b (buf_size c) in
      let tgt = B.alloca b 1 in
      (buf, tgt)
    | Heap ->
      let buf = B.call b "malloc" [ B.cst (buf_size c) ] in
      let tgt = B.call b "malloc" [ B.cst 1 ] in
      (buf, tgt)
    | Bss | Data -> (Ast.Global "g_buf", Ast.Global "g_target")
  in
  let target_ptr =
    match c.target with Struct_func_ptr -> B.gep b buf (B.cst 4) | _ -> target_ptr
  in
  (* Arm the target: a live function pointer, or a cleared credential. *)
  (match c.target with
   | Adjacent_func_ptr | Struct_func_ptr -> B.store b (Ast.Global "benign_handler") target_ptr
   | Adjacent_auth_flag -> B.store b (B.cst 0) target_ptr);
  (* The vulnerable copy. *)
  (match c.technique with
   | Direct -> B.call_void b "smash" [ buf; Ast.Reg "len"; Ast.Reg "v1" ]
   | Indirect ->
     (* A data pointer lives next to the buffer; the overflow redirects it,
        then a later legitimate-looking write lands on the target. *)
     B.store b (Ast.Global "g_scratch") (Ast.Global "g_ptr_slot");
     B.call_void b "smash" [ buf; Ast.Reg "len"; Ast.Reg "v1" ];
     let p = B.load b (Ast.Global "g_ptr_slot") in
     B.store b (Ast.Reg "v2") p);
  (* Use the target. *)
  (match c.target with
   | Adjacent_func_ptr | Struct_func_ptr ->
     let fp = B.load b target_ptr in
     B.call_ind b fp [] |> ignore
   | Adjacent_auth_flag ->
     let v = B.load b target_ptr in
     let c' = B.cmp b Ast.Ne v (B.cst 0) in
     let out = B.select b c' (B.cst 777) (B.cst 1) in
     B.call_void b "print" [ out ]);
  B.ret b (Some (B.cst 0));
  let m = B.finish b in
  m.Ast.m_funcs <- m.Ast.m_funcs @ [ Ast.copy_func smash_func ];
  (* The indirect program's ptr slot must be adjacent to g_buf: reorder the
     globals so that g_buf, g_ptr_slot are consecutive. *)
  (if c.technique = Indirect then
     let order = [ "g_buf"; "g_ptr_slot"; "g_target"; "g_scratch" ] in
     m.Ast.m_globals <-
       List.filter_map
         (fun n -> List.find_opt (fun g -> g.Ast.g_name = n) m.Ast.m_globals)
         order);
  m

let benign_args = [ 2L; 7L; 7L ]

let exploit_args c m =
  let payload =
    match c.target with
    | Adjacent_func_ptr | Struct_func_ptr -> Interp.address_of_func m "gadget"
    | Adjacent_auth_flag -> 1L
  in
  match c.technique with
  | Direct ->
    let len = match c.target with Struct_func_ptr -> 5L | _ -> 6L in
    [ len; payload; 0L ]
  | Indirect ->
    (* v1 redirects the pointer to the target's absolute address; v2 is the
       payload written through it. *)
    let tgt_addr = Interp.address_of_global m "g_target" in
    [ 6L; tgt_addr; payload ]

(* --------------------------------------------------------------- *)
(* Evaluation *)

type outcome = {
  ro_vanilla_succeeds : bool;
  ro_asan_detects : bool;
  ro_bunshin_detects : bool;
  ro_cookie_detects : bool;
  ro_cfi_detects : bool;
  ro_benign_clean : bool;
  ro_incident : Forensics.incident option;
}

let succeeded c run =
  match c.target with
  | Adjacent_func_ptr | Struct_func_ptr -> List.mem (Interp.Output 666L) run.Interp.events
  | Adjacent_auth_flag -> List.mem (Interp.Output 777L) run.Interp.events

let detected run =
  match run.Interp.outcome with Interp.Detected _ -> true | _ -> false

let finished run =
  match run.Interp.outcome with Interp.Finished _ -> true | _ -> false

let evaluate c =
  let m = program c in
  let args = exploit_args c m in
  (* Each module is interpreted twice (exploit + benign): compile once per
     module and reuse the precompiled form. *)
  let run pm a = Interp.run_compiled pm ~entry:"main" ~args:a in
  let vanilla_pm = Interp.compile m in
  let vanilla = run vanilla_pm args in
  let asan = Inst.apply_exn [ San.asan ] m in
  let asan_pm = Interp.compile asan in
  let asan_run = run asan_pm args in
  (* 2-variant check distribution: A holds the copy routine's checks. *)
  let others =
    List.filter_map
      (fun f -> if f.Ast.f_name = "smash" then None else Some f.Ast.f_name)
      m.Ast.m_funcs
  in
  let variant_a = Interp.compile (Slicer.remove_checks ~in_funcs:others asan) in
  let variant_b = Interp.compile (Slicer.remove_checks ~in_funcs:[ "smash" ] asan) in
  let ra = run variant_a args and rb = run variant_b args in
  let cookie_run = run (Interp.compile (Inst.apply_exn [ San.stack_cookie ] m)) args in
  let cfi_run = run (Interp.compile (Inst.apply_exn [ San.cfi ] m)) args in
  let benign pm = run pm benign_args in
  let benign_ok r = finished r && not (succeeded c r) in
  let benign_a = benign variant_a and benign_b = benign variant_b in
  (* The monitor's verdict and incident: the variants' group run under the
     NXE, with the firing check site joined in by the bridge. *)
  let group = Bridge.run_runs [ ra; rb ] in
  {
    ro_vanilla_succeeds = succeeded c vanilla;
    ro_asan_detects = detected asan_run;
    ro_bunshin_detects = group.Nxe.outcome <> `All_finished;
    ro_cookie_detects = detected cookie_run;
    ro_cfi_detects = detected cfi_run;
    ro_benign_clean =
      List.for_all benign_ok [ benign vanilla_pm; benign asan_pm; benign_a; benign_b ]
      && (Bridge.run_runs [ benign_a; benign_b ]).Nxe.outcome = `All_finished;
    ro_incident = group.Nxe.incident;
  }
