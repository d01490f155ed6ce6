open Ast

type error = { ev_func : string; ev_message : string }

let errors m =
  let errs = ref [] in
  let err f msg = errs := { ev_func = f; ev_message = msg } :: !errs in
  let global_names = List.map (fun g -> g.g_name) m.m_globals in
  let func_names = List.map (fun f -> f.f_name) m.m_funcs in
  (* Duplicate module-level names. *)
  let check_dups kind names report =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun n ->
        if Hashtbl.mem seen n then report (Printf.sprintf "duplicate %s %s" kind n)
        else Hashtbl.replace seen n ())
      names
  in
  check_dups "global" global_names (err "<module>");
  check_dups "function" func_names (err "<module>");
  let check_func f =
    let fail msg = err f.f_name msg in
    if f.f_blocks = [] then fail "function has no blocks";
    let labels = List.map (fun b -> b.b_label) f.f_blocks in
    check_dups "label" labels fail;
    (* Collect definitions: params + all instruction defs; defs must be unique. *)
    let defined = Hashtbl.create 32 in
    List.iter
      (fun p ->
        if Hashtbl.mem defined p then fail (Printf.sprintf "duplicate parameter %%%s" p)
        else Hashtbl.replace defined p ())
      f.f_params;
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            match def_of_instr i with
            | Some r ->
              if Hashtbl.mem defined r then
                fail (Printf.sprintf "register %%%s defined more than once" r)
              else Hashtbl.replace defined r ()
            | None -> ())
          b.b_instrs)
      f.f_blocks;
    let check_value where v =
      match v with
      | Reg r ->
        if not (Hashtbl.mem defined r) then
          fail (Printf.sprintf "%s: use of undefined register %%%s" where r)
      | Global g ->
        (* [@g] names either a data global or a function (function-pointer
           constant, as the interpreter resolves it). *)
        if not (List.mem g global_names || List.mem g func_names) then
          fail (Printf.sprintf "%s: use of undefined global @%s" where g)
      | Int _ | Null | Undef -> ()
    in
    List.iter
      (fun b ->
        let where = Printf.sprintf "block %s" b.b_label in
        List.iter
          (fun i ->
            List.iter (check_value where) (uses_of_instr i);
            (match i with
             | Call (_, callee, args) -> (
               (* A module function shadows an intrinsic of the same name,
                  as in the interpreter. *)
               let got = List.length args in
               let arity_error expected =
                 fail
                   (Printf.sprintf "%s: call to @%s with %d arguments, expected %s" where
                      callee got expected)
               in
               match List.find_opt (fun g -> g.f_name = callee) m.m_funcs with
               | Some g ->
                 let want = List.length g.f_params in
                 if got <> want then arity_error (string_of_int want)
               | None -> (
                 match Runtime_api.fixed_arity callee with
                 | Some want ->
                   if got < want then arity_error (Printf.sprintf "at least %d" want)
                 | None ->
                   if not (Runtime_api.is_intrinsic callee) then
                     fail (Printf.sprintf "%s: call to unknown function @%s" where callee)))
             | Alloca (_, n) ->
               if n <= 0 then fail (Printf.sprintf "%s: alloca of non-positive size" where)
             | Phi (_, incoming) ->
               List.iter
                 (fun (l, _) ->
                   if not (List.mem l labels) then
                     fail (Printf.sprintf "%s: phi references unknown block %s" where l))
                 incoming
             | Bin _ | Cmp _ | Load _ | Store _ | Gep _ | CallInd _ | Select _ -> ()))
          b.b_instrs;
        List.iter (check_value ("terminator of " ^ b.b_label)) (uses_of_term b.b_term);
        List.iter
          (fun target ->
            if not (List.mem target labels) then
              fail (Printf.sprintf "branch from %s to unknown block %s" b.b_label target))
          (Ast.successors b.b_term))
      f.f_blocks
  in
  List.iter check_func m.m_funcs;
  (* SSA-style rule: definitions dominate uses (catches use-before-def
     across branches that textual checks miss). *)
  List.iter
    (fun f ->
      List.iter (fun msg -> err f.f_name msg) (Dominance.dominance_violations f))
    m.m_funcs;
  List.rev !errs

let render errs =
  String.concat "\n"
    (List.map (fun e -> Printf.sprintf "[%s] %s" e.ev_func e.ev_message) errs)

let check m = match errors m with [] -> Ok () | errs -> Error (render errs)

let check_exn m =
  match check m with
  | Ok () -> ()
  | Error report -> invalid_arg ("Verify.check_exn:\n" ^ report)
