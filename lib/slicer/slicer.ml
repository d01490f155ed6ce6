open Bunshin_ir
open Ast

exception Error of string

type sink = { sk_func : string; sk_block : Ast.label; sk_handler : string }

let sink_handler_of_block b =
  match b.b_term with
  | Unreachable ->
    List.find_map
      (function
        | Call (_, callee, _) when Runtime_api.is_report_handler callee -> Some callee
        | _ -> None)
      b.b_instrs
  | Ret _ | Br _ | CondBr _ -> None

let sinks_of_func f =
  let cfg = Cfg.of_func f in
  List.filter_map
    (fun b ->
      if Cfg.is_branch_target cfg b.b_label then
        match sink_handler_of_block b with
        | Some handler -> Some { sk_func = f.f_name; sk_block = b.b_label; sk_handler = handler }
        | None -> None
      else None)
    f.f_blocks

let discover m = List.concat_map sinks_of_func m.m_funcs

(* ------------------------------------------------------------------ *)
(* Removal *)

(* An instruction location: (block label, index within block). *)
type loc = string * int

let remove_in_func ~sink_filter f =
  let sinks = List.filter sink_filter (sinks_of_func f) in
  if sinks = [] then f
  else begin
    let sink_labels = List.map (fun s -> s.sk_block) sinks in
    (* Index the function: definitions and uses of every register. *)
    let def_loc : (reg, loc) Hashtbl.t = Hashtbl.create 64 in
    let loc_instr : (loc, instr) Hashtbl.t = Hashtbl.create 64 in
    let instr_uses : (reg, loc list) Hashtbl.t = Hashtbl.create 64 in
    let term_uses : (reg, label list) Hashtbl.t = Hashtbl.create 16 in
    let push tbl key v =
      Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
    in
    List.iter
      (fun b ->
        List.iteri
          (fun idx i ->
            let l = (b.b_label, idx) in
            Hashtbl.replace loc_instr l i;
            (match def_of_instr i with Some r -> Hashtbl.replace def_loc r l | None -> ());
            List.iter (fun r -> push instr_uses r l) (regs_of_values (uses_of_instr i)))
          b.b_instrs;
        List.iter (fun r -> push term_uses r b.b_label) (regs_of_values (uses_of_term b.b_term)))
      f.f_blocks;
    (* CondBrs to rewrite: guard block label -> surviving successor. *)
    let rewired : (label, label) Hashtbl.t = Hashtbl.create 16 in
    let deleted : (loc, unit) Hashtbl.t = Hashtbl.create 64 in
    let is_deleted l = Hashtbl.mem deleted l in
    (* A register is still needed if some non-deleted instruction uses it,
       or a terminator other than the rewired guards uses it. *)
    let used_elsewhere r =
      let instr_alive =
        List.exists (fun l -> not (is_deleted l))
          (Option.value ~default:[] (Hashtbl.find_opt instr_uses r))
      in
      let term_alive =
        List.exists
          (fun bl -> not (Hashtbl.mem rewired bl))
          (Option.value ~default:[] (Hashtbl.find_opt term_uses r))
      in
      instr_alive || term_alive
    in
    let rec slice r =
      match Hashtbl.find_opt def_loc r with
      | None -> () (* parameter or phi-less input: stop *)
      | Some l ->
        if (not (is_deleted l)) && not (used_elsewhere r) then begin
          Hashtbl.replace deleted l ();
          let i =
            match Hashtbl.find_opt loc_instr l with
            | Some i -> i
            | None ->
              let bl, idx = l in
              raise
                (Error
                   (Printf.sprintf
                      "Slicer: dangling sliced location %s[%d] in %s (definition of a \
                       register points at a location with no instruction)"
                      bl idx f.f_name))
          in
          List.iter slice (regs_of_values (uses_of_instr i))
        end
    in
    (* Process each sink: find guarding CondBrs, rewire, slice conditions. *)
    List.iter
      (fun s ->
        List.iter
          (fun b ->
            match b.b_term with
            | CondBr (c, l1, l2) when l1 = s.sk_block || l2 = s.sk_block ->
              let survivor = if l1 = s.sk_block then l2 else l1 in
              Hashtbl.replace rewired b.b_label survivor;
              (match c with
               | Reg r -> slice r
               | Int _ | Null | Global _ | Undef -> ())
            | CondBr _ | Ret _ | Br _ | Unreachable -> ())
          f.f_blocks)
      sinks;
    (* Rebuild. *)
    let blocks =
      List.filter_map
        (fun b ->
          if List.mem b.b_label sink_labels then None
          else begin
            let instrs =
              List.filteri (fun idx _ -> not (is_deleted (b.b_label, idx))) b.b_instrs
            in
            let term =
              match Hashtbl.find_opt rewired b.b_label with
              | Some survivor -> Br survivor
              | None -> b.b_term
            in
            Some { b with b_instrs = instrs; b_term = term }
          end)
        f.f_blocks
    in
    { f with f_blocks = blocks }
  end

let remove_checks ?in_funcs ?(sink_filter = fun _ -> true) m =
  let selected fname = match in_funcs with None -> true | Some names -> List.mem fname names in
  let m' = copy_modul m in
  m'.m_funcs <-
    List.map (fun f -> if selected f.f_name then remove_in_func ~sink_filter f else f) m'.m_funcs;
  m'

let instruction_count m =
  List.fold_left
    (fun acc f -> List.fold_left (fun acc b -> acc + List.length b.b_instrs) acc f.f_blocks)
    0 m.m_funcs

let removed_instruction_count before after = instruction_count before - instruction_count after
