open Ast

module SS = Set.Make (String)

type t = {
  doms : (label, SS.t) Hashtbl.t; (* reachable blocks only *)
  entry : label option;
}

let of_func f =
  match f.f_blocks with
  | [] -> { doms = Hashtbl.create 1; entry = None }
  | entry :: _ ->
    let cfg = Cfg.of_func f in
    let reachable = Cfg.reachable cfg in
    let all = SS.of_list reachable in
    let doms = Hashtbl.create 16 in
    List.iter
      (fun l ->
        Hashtbl.replace doms l
          (if l = entry.b_label then SS.singleton l else all))
      reachable;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          if l <> entry.b_label then begin
            let preds =
              List.filter (fun p -> Hashtbl.mem doms p) (Cfg.predecessors cfg l)
            in
            let meet =
              match preds with
              | [] -> SS.empty
              | p :: rest ->
                List.fold_left
                  (fun acc q -> SS.inter acc (Hashtbl.find doms q))
                  (Hashtbl.find doms p) rest
            in
            let next = SS.add l meet in
            if not (SS.equal next (Hashtbl.find doms l)) then begin
              Hashtbl.replace doms l next;
              changed := true
            end
          end)
        reachable
    done;
    { doms; entry = Some entry.b_label }

let dominates t a b =
  match Hashtbl.find_opt t.doms b with
  | None -> true (* unreachable blocks never execute *)
  | Some set -> SS.mem a set

let dominance_violations f =
  let t = of_func f in
  let defs : (reg, label * int) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace defs p ("", -1)) f.f_params;
  List.iter
    (fun b ->
      List.iteri
        (fun i instr ->
          match def_of_instr instr with
          | Some r -> Hashtbl.replace defs r (b.b_label, i)
          | None -> ())
        b.b_instrs)
    f.f_blocks;
  let errs = ref [] in
  let available r ~in_block ~before =
    match Hashtbl.find_opt defs r with
    | None -> true (* undefined regs are the base verifier's report *)
    | Some ("", _) -> true (* parameter: dominates everything *)
    | Some (db, di) ->
      if db = in_block then di < before else dominates t db in_block
  in
  let check_use where in_block before v =
    match v with
    | Reg r ->
      if not (available r ~in_block ~before) then
        errs :=
          Printf.sprintf "%s: use of %%%s is not dominated by its definition" where r :: !errs
    | Int _ | Null | Global _ | Undef -> ()
  in
  List.iter
    (fun b ->
      List.iteri
        (fun i instr ->
          let where = Printf.sprintf "block %s, instr %d" b.b_label i in
          match instr with
          | Phi (_, incoming) ->
            (* A phi operand must be available at the end of its edge. *)
            List.iter
              (fun (l, v) -> check_use (where ^ " (phi)") l max_int v)
              incoming
          | _ -> List.iter (check_use where b.b_label i) (uses_of_instr instr))
        b.b_instrs;
      List.iter
        (check_use (Printf.sprintf "terminator of %s" b.b_label) b.b_label max_int)
        (uses_of_term b.b_term))
    f.f_blocks;
  List.rev !errs
