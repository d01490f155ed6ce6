open Ast

type t = {
  modul : modul;
  mutable cur_func : func option;
  mutable cur_block : block option;
  mutable reg_counter : int;
}

let create name =
  {
    modul = { m_name = name; m_globals = []; m_funcs = [] };
    cur_func = None;
    cur_block = None;
    reg_counter = 0;
  }

let finish t =
  (* Blocks and functions are accumulated in reverse; restore source order. *)
  t.modul

let add_global t ~name ~size ?(init = [||]) () =
  t.modul.m_globals <- t.modul.m_globals @ [ { g_name = name; g_size = size; g_init = init } ]

let current_func t =
  match t.cur_func with
  | Some f -> f
  | None -> invalid_arg "Builder: no current function"

let current_block t =
  match t.cur_block with
  | Some b -> b
  | None -> invalid_arg "Builder: no current block"

let start_block t label =
  let f = current_func t in
  if List.exists (fun b -> b.b_label = label) f.f_blocks then
    invalid_arg ("Builder.start_block: duplicate label " ^ label);
  let b = { b_label = label; b_instrs = []; b_term = Unreachable } in
  f.f_blocks <- f.f_blocks @ [ b ];
  t.cur_block <- Some b

let start_func t ~name ~params =
  if List.exists (fun f -> f.f_name = name) t.modul.m_funcs then
    invalid_arg ("Builder.start_func: duplicate function " ^ name);
  let f = { f_name = name; f_params = params; f_blocks = [] } in
  t.modul.m_funcs <- t.modul.m_funcs @ [ f ];
  t.cur_func <- Some f;
  t.cur_block <- None;
  start_block t "entry"

let fresh_reg t stem =
  t.reg_counter <- t.reg_counter + 1;
  Printf.sprintf "%s.%d" stem t.reg_counter

let cst n = Int (Int64.of_int n)

let emit t instr =
  let b = current_block t in
  b.b_instrs <- b.b_instrs @ [ instr ]

let bin t op a b =
  let r = fresh_reg t "t" in
  emit t (Bin (r, op, a, b));
  Reg r

let add t a b = bin t Add a b
let sub t a b = bin t Sub a b
let mul t a b = bin t Mul a b
let sdiv t a b = bin t Sdiv a b

let cmp t op a b =
  let r = fresh_reg t "c" in
  emit t (Cmp (r, op, a, b));
  Reg r

let alloca t n =
  let r = fresh_reg t "a" in
  emit t (Alloca (r, n));
  Reg r

let load t p =
  let r = fresh_reg t "v" in
  emit t (Load (r, p));
  Reg r

let store t v p = emit t (Store (v, p))

let gep t p idx =
  let r = fresh_reg t "p" in
  emit t (Gep (r, p, idx));
  Reg r

let call t name args =
  let r = fresh_reg t "r" in
  emit t (Call (Some r, name, args));
  Reg r

let call_void t name args = emit t (Call (None, name, args))

let call_ind t fp args =
  let r = fresh_reg t "r" in
  emit t (CallInd (Some r, fp, args));
  Reg r

let select t c a b =
  let r = fresh_reg t "s" in
  emit t (Select (r, c, a, b));
  Reg r

let phi t incoming =
  let r = fresh_reg t "phi" in
  emit t (Phi (r, incoming));
  Reg r

let set_term t term =
  let b = current_block t in
  b.b_term <- term;
  t.cur_block <- None

let ret t v = set_term t (Ret v)
let br t l = set_term t (Br l)
let cond_br t c l1 l2 = set_term t (CondBr (c, l1, l2))
let unreachable t = set_term t Unreachable
