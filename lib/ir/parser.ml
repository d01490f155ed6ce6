open Ast

exception Err of string

type token =
  | Tat of string    (* @name *)
  | Tpct of string   (* %name *)
  | Tint of int64
  | Tid of string
  | Tpunct of char

let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '#' || c = '-'
  in
  let read_ident start =
    let j = ref start in
    while !j < n && is_ident line.[!j] do
      incr j
    done;
    let s = String.sub line start (!j - start) in
    i := !j;
    s
  in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = ';' then i := n (* comment *)
    else if c = '@' then begin
      incr i;
      toks := Tat (read_ident !i) :: !toks
    end
    else if c = '%' then begin
      incr i;
      toks := Tpct (read_ident !i) :: !toks
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && line.[!i + 1] >= '0' && line.[!i + 1] <= '9')
    then begin
      let s = read_ident !i in
      match Int64.of_string_opt s with
      | Some v -> toks := Tint v :: !toks
      | None -> raise (Err ("bad integer " ^ s))
    end
    else if is_ident c then toks := Tid (read_ident !i) :: !toks
    else begin
      toks := Tpunct c :: !toks;
      incr i
    end
  done;
  List.rev !toks

(* --------------------------------------------------------------- *)

let value_of = function
  | Tpct r -> Reg r
  | Tint n -> Int n
  | Tid "null" -> Null
  | Tid "undef" -> Undef
  | Tat g -> Global g
  | Tid s -> raise (Err ("expected value, got " ^ s))
  | Tpunct c -> raise (Err (Printf.sprintf "expected value, got '%c'" c))

let binop_of = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "sdiv" -> Some Sdiv
  | "srem" -> Some Srem
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | "shl" -> Some Shl
  | "lshr" -> Some Lshr
  | _ -> None

let cmpop_of = function
  | "eq" -> Eq
  | "ne" -> Ne
  | "slt" -> Slt
  | "sle" -> Sle
  | "sgt" -> Sgt
  | "sge" -> Sge
  | s -> raise (Err ("unknown comparison " ^ s))

(* args: value (',' value)* ')' — already tokenized, consume until ')'. *)
let rec parse_args acc = function
  | Tpunct ')' :: rest -> (List.rev acc, rest)
  | Tpunct ',' :: rest -> parse_args acc rest
  | tok :: rest -> parse_args (value_of tok :: acc) rest
  | [] -> raise (Err "unterminated argument list")

let parse_call ~ind dst toks =
  match toks with
  | Tat f :: Tpunct '(' :: rest when not ind ->
    let args, rest = parse_args [] rest in
    if rest <> [] then raise (Err "trailing tokens after call");
    Call (dst, f, args)
  | v :: Tpunct '(' :: rest when ind ->
    let args, rest = parse_args [] rest in
    if rest <> [] then raise (Err "trailing tokens after call_ind");
    CallInd (dst, value_of v, args)
  | _ -> raise (Err "malformed call")

let rec parse_phi acc = function
  | [] -> List.rev acc
  | Tpunct ',' :: rest -> parse_phi acc rest
  | Tpunct '[' :: v :: Tpunct ',' :: Tpct l :: Tpunct ']' :: rest ->
    parse_phi ((l, value_of v) :: acc) rest
  | _ -> raise (Err "malformed phi")

let parse_instr toks =
  match toks with
  | Tpct r :: Tpunct '=' :: rest -> (
    match rest with
    | Tid op :: v1 :: Tpunct ',' :: [ v2 ] when binop_of op <> None ->
      Bin (r, Option.get (binop_of op), value_of v1, value_of v2)
    | Tid "icmp" :: Tid op :: v1 :: Tpunct ',' :: [ v2 ] ->
      Cmp (r, cmpop_of op, value_of v1, value_of v2)
    | [ Tid "alloca"; Tint n ] -> Alloca (r, Int64.to_int n)
    | [ Tid "load"; v ] -> Load (r, value_of v)
    | Tid "gep" :: v1 :: Tpunct ',' :: [ v2 ] -> Gep (r, value_of v1, value_of v2)
    | Tid "call" :: rest' -> parse_call ~ind:false (Some r) rest'
    | Tid "call_ind" :: rest' -> parse_call ~ind:true (Some r) rest'
    | Tid "select" :: c :: Tpunct ',' :: a :: Tpunct ',' :: [ b ] ->
      Select (r, value_of c, value_of a, value_of b)
    | Tid "phi" :: rest' -> Phi (r, parse_phi [] rest')
    | _ -> raise (Err "malformed instruction"))
  | Tid "store" :: v :: Tpunct ',' :: [ p ] -> Store (value_of v, value_of p)
  | Tid "call" :: rest -> parse_call ~ind:false None rest
  | Tid "call_ind" :: rest -> parse_call ~ind:true None rest
  | _ -> raise (Err "unrecognized instruction")

let parse_term toks =
  match toks with
  | [ Tid "ret"; Tid "void" ] -> Ret None
  | [ Tid "ret"; v ] -> Ret (Some (value_of v))
  | [ Tid "br"; Tpct l ] -> Br l
  | [ Tid "condbr"; c; Tpunct ','; Tpct l1; Tpunct ','; Tpct l2 ] ->
    CondBr (value_of c, l1, l2)
  | [ Tid "unreachable" ] -> Unreachable
  | _ -> raise (Err "unrecognized terminator")

let is_term = function
  | Tid ("ret" | "br" | "condbr" | "unreachable") :: _ -> true
  | _ -> false

(* --------------------------------------------------------------- *)

type fstate = {
  fs_name : string;
  fs_params : reg list;
  mutable fs_blocks : block list; (* reversed *)
  mutable fs_cur : (label * instr list) option; (* instrs reversed *)
}

let parse source =
  let lines = String.split_on_char '\n' source in
  let m = { m_name = "parsed"; m_globals = []; m_funcs = [] } in
  let cur_func : fstate option ref = ref None in
  let close_block fs term =
    match fs.fs_cur with
    | None -> raise (Err "terminator outside a block")
    | Some (label, instrs) ->
      fs.fs_blocks <- { b_label = label; b_instrs = List.rev instrs; b_term = term } :: fs.fs_blocks;
      fs.fs_cur <- None
  in
  let process lineno raw =
    let line = String.trim raw in
    if line = "" then ()
    else if String.length line >= 9 && String.sub line 0 9 = "; module " then
      m.m_name <- String.sub line 9 (String.length line - 9)
    else if String.length line >= 1 && line.[0] = ';' then ()
    else begin
      let toks = tokenize line in
      match (toks, !cur_func) with
      | [], _ -> ()
      (* @name = global [N] (init [..])? *)
      | Tat name :: Tpunct '=' :: Tid "global" :: Tpunct '[' :: Tint size :: Tpunct ']' :: rest,
        None ->
        let init =
          match rest with
          | [] -> [||]
          | Tid "init" :: Tpunct '[' :: more ->
            let rec ints acc = function
              | Tpunct ']' :: [] -> Array.of_list (List.rev acc)
              | Tpunct ',' :: more -> ints acc more
              | Tint v :: more -> ints (v :: acc) more
              | _ -> raise (Err "malformed initializer")
            in
            ints [] more
          | _ -> raise (Err "malformed global")
        in
        m.m_globals <-
          m.m_globals @ [ { g_name = name; g_size = Int64.to_int size; g_init = init } ]
      | Tid "define" :: Tat name :: Tpunct '(' :: rest, None ->
        let rec params acc = function
          | Tpunct ')' :: Tpunct '{' :: [] -> List.rev acc
          | Tpunct ',' :: more -> params acc more
          | Tpct p :: more -> params (p :: acc) more
          | _ -> raise (Err "malformed parameter list")
        in
        cur_func :=
          Some { fs_name = name; fs_params = params [] rest; fs_blocks = []; fs_cur = None }
      | [ Tpunct '}' ], Some fs ->
        if fs.fs_cur <> None then raise (Err "block missing terminator at '}'");
        m.m_funcs <-
          m.m_funcs
          @ [ { f_name = fs.fs_name; f_params = fs.fs_params; f_blocks = List.rev fs.fs_blocks } ];
        cur_func := None
      | [ Tid label; Tpunct ':' ], Some fs ->
        if fs.fs_cur <> None then raise (Err "previous block missing terminator");
        fs.fs_cur <- Some (label, [])
      | toks, Some fs when is_term toks -> close_block fs (parse_term toks)
      | toks, Some fs -> (
        match fs.fs_cur with
        | None -> raise (Err "instruction outside a block")
        | Some (label, instrs) -> fs.fs_cur <- Some (label, parse_instr toks :: instrs))
      | _, None -> raise (Err "instruction outside a function")
    end
    |> fun () -> ignore lineno
  in
  try
    List.iteri
      (fun idx raw ->
        try process (idx + 1) raw
        with Err msg -> raise (Err (Printf.sprintf "line %d: %s" (idx + 1) msg)))
      lines;
    if !cur_func <> None then Error "unterminated function at end of input" else Ok m
  with Err msg -> Error msg

