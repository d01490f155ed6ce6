open Ast

type t = {
  func : func;
  succ : (label, label list) Hashtbl.t;
  pred : (label, label list) Hashtbl.t;
  cond_targets : (label, unit) Hashtbl.t;
}

let of_func func =
  let succ = Hashtbl.create 16 and pred = Hashtbl.create 16 in
  let cond_targets = Hashtbl.create 16 in
  let add_pred target source =
    let existing = Option.value ~default:[] (Hashtbl.find_opt pred target) in
    if not (List.mem source existing) then Hashtbl.replace pred target (source :: existing)
  in
  List.iter
    (fun b ->
      let ss = Ast.successors b.b_term in
      Hashtbl.replace succ b.b_label ss;
      List.iter (fun s -> add_pred s b.b_label) ss;
      match b.b_term with
      | CondBr (_, l1, l2) ->
        Hashtbl.replace cond_targets l1 ();
        Hashtbl.replace cond_targets l2 ()
      | Ret _ | Br _ | Unreachable -> ())
    func.f_blocks;
  { func; succ; pred; cond_targets }

let successors t l = Option.value ~default:[] (Hashtbl.find_opt t.succ l)
let predecessors t l = Option.value ~default:[] (Hashtbl.find_opt t.pred l)
let is_branch_target t l = Hashtbl.mem t.cond_targets l

let reachable t =
  match t.func.f_blocks with
  | [] -> []
  | entry :: _ ->
    let visited = Hashtbl.create 16 in
    let order = ref [] in
    let rec dfs l =
      if not (Hashtbl.mem visited l) then begin
        Hashtbl.replace visited l ();
        List.iter dfs (successors t l);
        order := l :: !order
      end
    in
    dfs entry.b_label;
    !order
