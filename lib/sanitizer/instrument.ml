open Bunshin_ir
open Ast

let asan_metadata_global = "__asan_shadow_ctr"
let msan_metadata_global = "__msan_shadow_ctr"

(* ------------------------------------------------------------------ *)
(* Per-sanitizer check planning *)

(* A planned check: given a fresh register name, produce the condition
   instruction; plus the report handler called in the sink block. *)
type check = { make_cond : string -> instr; handler : string }

let bounds_check p handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.bounds_ok, [ p ])); handler }

let not_freed_check p handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.not_freed, [ p ])); handler }

(* Spatial-only: SoftBound's pointer-bounds metadata knows object extents
   but nothing about lifetimes. *)
let in_alloc_check p handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.in_alloc, [ p ])); handler }

let init_check p handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.init_ok, [ p ])); handler }

let nonzero_check v handler = { make_cond = (fun r -> Cmp (r, Ne, v, Int 0L)); handler }
let nonnull_check p handler = { make_cond = (fun r -> Cmp (r, Ne, p, Null)); handler }

let add_ok_check a b handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.add_ok, [ a; b ])); handler }

let mul_ok_check a b handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.mul_ok, [ a; b ])); handler }

let shift_ok_check n handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.shift_ok, [ n ])); handler }

let code_ptr_check fp handler =
  { make_cond = (fun r -> Call (Some r, Runtime_api.code_ptr_ok, [ fp ])); handler }

let checks_for_sanitizer (s : Sanitizer.t) (i : instr) : check list =
  match s.Sanitizer.id with
  | Sanitizer.Asan -> (
    match i with
    | Load (_, p) -> [ bounds_check p "__asan_report_load" ]
    | Store (_, p) -> [ bounds_check p "__asan_report_store" ]
    | Call (_, callee, [ p ]) when callee = Runtime_api.free ->
      [ not_freed_check p "__asan_report_free" ]
    | Bin _ | Cmp _ | Alloca _ | Gep _ | Call _ | CallInd _ | Select _ | Phi _ -> [])
  | Sanitizer.Msan -> (
    match i with
    | Load (_, p) -> [ init_check p "__msan_report" ]
    | Bin _ | Cmp _ | Alloca _ | Store _ | Gep _ | Call _ | CallInd _ | Select _ | Phi _ -> [])
  | Sanitizer.Softbound -> (
    match i with
    | Load (_, p) -> [ in_alloc_check p "__softbound_report" ]
    | Store (_, p) -> [ in_alloc_check p "__softbound_report" ]
    | Bin _ | Cmp _ | Alloca _ | Gep _ | Call _ | CallInd _ | Select _ | Phi _ -> [])
  | Sanitizer.Cets -> (
    match i with
    | Load (_, p) -> [ not_freed_check p "__cets_report" ]
    | Store (_, p) -> [ not_freed_check p "__cets_report" ]
    | Call (_, callee, [ p ]) when callee = Runtime_api.free ->
      [ not_freed_check p "__cets_report" ]
    | Bin _ | Cmp _ | Alloca _ | Gep _ | Call _ | CallInd _ | Select _ | Phi _ -> [])
  | Sanitizer.Ubsan_sub "integer-divide-by-zero" -> (
    match i with
    | Bin (_, (Sdiv | Srem), _, b) -> [ nonzero_check b "__ubsan_report_divrem" ]
    | Bin _ | Cmp _ | Alloca _ | Load _ | Store _ | Gep _ | Call _ | CallInd _ | Select _
    | Phi _ -> [])
  | Sanitizer.Ubsan_sub "signed-integer-overflow" -> (
    match i with
    | Bin (_, Add, a, b) -> [ add_ok_check a b "__ubsan_report_overflow" ]
    | Bin (_, Mul, a, b) -> [ mul_ok_check a b "__ubsan_report_overflow" ]
    | Bin _ | Cmp _ | Alloca _ | Load _ | Store _ | Gep _ | Call _ | CallInd _ | Select _
    | Phi _ -> [])
  | Sanitizer.Ubsan_sub "shift" -> (
    match i with
    | Bin (_, (Shl | Lshr), _, b) -> [ shift_ok_check b "__ubsan_report_shift" ]
    | Bin _ | Cmp _ | Alloca _ | Load _ | Store _ | Gep _ | Call _ | CallInd _ | Select _
    | Phi _ -> [])
  | Sanitizer.Ubsan_sub "null" -> (
    match i with
    | Load (_, p) -> [ nonnull_check p "__ubsan_report_null" ]
    | Store (_, p) -> [ nonnull_check p "__ubsan_report_null" ]
    | Bin _ | Cmp _ | Alloca _ | Gep _ | Call _ | CallInd _ | Select _ | Phi _ -> [])
  | Sanitizer.Safecode -> (
    (* Object-bounds enforcement: spatial, like SoftBound. *)
    match i with
    | Load (_, p) -> [ in_alloc_check p "__safecode_report" ]
    | Store (_, p) -> [ in_alloc_check p "__safecode_report" ]
    | Bin _ | Cmp _ | Alloca _ | Gep _ | Call _ | CallInd _ | Select _ | Phi _ -> [])
  | Sanitizer.Cfi -> (
    (* Indirect transfers must land on a real function entry. *)
    match i with
    | CallInd (_, fp, _) -> [ code_ptr_check fp "__cfi_report" ]
    | Bin _ | Cmp _ | Alloca _ | Load _ | Store _ | Gep _ | Call _ | Select _ | Phi _ -> [])
  | Sanitizer.Ubsan_sub _ | Sanitizer.Cpi | Sanitizer.Stack_cookie ->
    (* CPI exists in the cost model only (its safe region has no mini-IR
       counterpart); stack cookies are a function-level pass below; the
       remaining UBSan subs have no construct to guard here. *)
    []

(* Metadata maintenance: bookkeeping instructions that keep the sanitizer's
   shadow state coherent.  Modelled as a counter update on a module global;
   they feed no check condition and must survive check removal. *)
let metadata_for sans fresh (i : instr) : instr list =
  let update glob =
    let m1 = fresh "meta" and m2 = fresh "meta" in
    [ Load (m1, Global glob); Bin (m2, Add, Reg m1, Int 1L); Store (Reg m2, Global glob) ]
  in
  List.concat_map
    (fun (s : Sanitizer.t) ->
      match (s.Sanitizer.id, i) with
      | Sanitizer.Asan, Alloca _ -> update asan_metadata_global
      | Sanitizer.Asan, Call (_, callee, _) when callee = Runtime_api.malloc ->
        update asan_metadata_global
      | Sanitizer.Msan, Store _ -> update msan_metadata_global
      | _ -> [])
    sans

(* ------------------------------------------------------------------ *)
(* Block splitting *)

type ctx = { mutable counter : int }

let fresh_name ctx stem =
  ctx.counter <- ctx.counter + 1;
  Printf.sprintf "%s.%d" stem ctx.counter

let instrument_func ctx sans f =
  let fresh stem = fresh_name ctx ("san." ^ stem) in
  (* Stack cookie (function-level pass): a canary slot allocated after the
     entry frame's buffers, verified before every return.  Protects
     contiguous stack smashes of entry-frame locals. *)
  let wants_cookie =
    List.exists (fun (s : Sanitizer.t) -> s.Sanitizer.id = Sanitizer.Stack_cookie) sans
    && List.exists
         (fun b -> List.exists (function Alloca _ -> true | _ -> false) b.b_instrs)
         f.f_blocks
  in
  let canary = fresh "canary" in
  let entry_label = match f.f_blocks with [] -> "" | b :: _ -> b.b_label in
  (* Map from original label to the label of its final segment, used to fix
     phi incoming edges after splitting. *)
  let final_segment = Hashtbl.create 16 in
  let out_blocks = ref [] in
  let emit_block label instrs term = out_blocks := { b_label = label; b_instrs = instrs; b_term = term } :: !out_blocks in
  (* The canary is part of the frame: allocate it right after the entry
     block's last alloca, so it sits just above the local buffers. *)
  let inject_canary instrs =
    let rec go acc = function
      | (Alloca _ as a) :: ((Alloca _ :: _) as rest) -> go (a :: acc) rest
      | (Alloca _ as a) :: rest ->
        List.rev_append acc
          (a :: Alloca (canary, 1) :: Store (Int Runtime_api.canary_value, Reg canary) :: rest)
      | i :: rest -> go (i :: acc) rest
      | [] -> List.rev acc
    in
    go [] instrs
  in
  let instrument_block b =
    let b =
      if wants_cookie && b.b_label = entry_label then
        { b with b_instrs = inject_canary b.b_instrs }
      else b
    in
    let cur_label = ref b.b_label in
    let cur = ref [] in
    let append is = cur := !cur @ is in
    let split_for_check ?(pre = []) { make_cond; handler } =
      let ok = fresh "ok" in
      let cont = fresh "cont" in
      let fail = fresh "fail" in
      append pre;
      append [ make_cond ok ];
      emit_block !cur_label !cur (CondBr (Reg ok, cont, fail));
      emit_block fail [ Call (None, handler, []) ] Unreachable;
      cur_label := cont;
      cur := []
    in
    List.iter
      (fun i ->
        append (metadata_for sans (fun s -> fresh s) i);
        let checks = List.concat_map (fun s -> checks_for_sanitizer s i) sans in
        List.iter (fun c -> split_for_check c) checks;
        append [ i ])
      b.b_instrs;
    (match b.b_term with
     | Ret _ when wants_cookie ->
       let v = fresh "ckv" in
       split_for_check
         {
           (* The canary load is emitted as a [pre] instruction; the
              comparison against the constant is the guarded condition. *)
           make_cond = (fun r -> Cmp (r, Eq, Reg v, Int Runtime_api.canary_value));
           handler = "__stackcookie_report";
         }
         ~pre:[ Load (v, Reg canary) ]
     | Ret _ | Br _ | CondBr _ | Unreachable -> ());
    emit_block !cur_label !cur b.b_term;
    Hashtbl.replace final_segment b.b_label !cur_label
  in
  List.iter instrument_block f.f_blocks;
  let blocks = List.rev !out_blocks in
  (* Phi incoming labels must name the new predecessor segment. *)
  let rename l = Option.value ~default:l (Hashtbl.find_opt final_segment l) in
  let fix_instr = function
    | Phi (r, incoming) -> Phi (r, List.map (fun (l, v) -> (rename l, v)) incoming)
    | other -> other
  in
  List.iter (fun b -> b.b_instrs <- List.map fix_instr b.b_instrs) blocks;
  { f with f_blocks = blocks }

let ensure_global m name =
  if not (List.exists (fun g -> g.g_name = name) m.m_globals) then
    m.m_globals <- m.m_globals @ [ { g_name = name; g_size = 1; g_init = [| 0L |] } ]

let apply sans m =
  if not (Sanitizer.collectively_enforceable sans) then
    Error
      (Printf.sprintf "conflicting sanitizers: {%s} cannot be linked into one binary"
         (String.concat ", " (List.map Sanitizer.name sans)))
  else begin
    let m' = copy_modul m in
    let ctx = { counter = 0 } in
    if List.exists (fun s -> s.Sanitizer.id = Sanitizer.Asan) sans then
      ensure_global m' asan_metadata_global;
    if List.exists (fun s -> s.Sanitizer.id = Sanitizer.Msan) sans then
      ensure_global m' msan_metadata_global;
    m'.m_funcs <- List.map (instrument_func ctx sans) m'.m_funcs;
    Ok m'
  end

let apply_exn sans m =
  match apply sans m with Ok m' -> m' | Error e -> invalid_arg ("Instrument.apply: " ^ e)
