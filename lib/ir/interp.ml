open Ast
module Tel = Bunshin_telemetry.Telemetry
module Tx = Bunshin_trace_ctx.Trace_ctx
module P = Precompile
module Vec = Bunshin_util.Vec

type event = Output of int64 | Syscall of string * int64 list

type crash =
  | Div_by_zero
  | Null_deref
  | Wild_pointer of int64
  | Bad_indirect_call of int64
  | Stack_overflow_sim
  | Heap_exhausted

type hazard =
  | Oob_write of int64
  | Oob_read of int64
  | Uaf_write of int64
  | Uaf_read of int64
  | Uninit_read of int64
  | Double_free of int64
  | Bad_free of int64

type detection = { d_handler : string; d_func : string; d_block : string }

type outcome =
  | Finished of int64 option
  | Detected of detection
  | Crashed of crash
  | Fuel_exhausted

type run = {
  outcome : outcome;
  events : event list;
  timeline : (int * event) list;
  hazards : hazard list;
  steps : int;
}

type config = {
  fuel : int;
  max_depth : int;
  redzone : int;
  undef_as : int64;
  layout_seed : int;
}

let default_config =
  { fuel = 1_000_000; max_depth = 10_000; redzone = 1; undef_as = 0L; layout_seed = 0 }

(* Bound on the bump allocators' next address, in slots: a run's globals,
   allocas and [malloc]s together end below it.  An allocation that would
   reach past it, counting its redzone, ends the run with [Crashed
   Heap_exhausted] in both engines, before any of its slots is mapped,
   instead of growing the host process without limit.  The largest heap
   any current caller builds is ~450k slots (the full-mode alloc_heavy
   bench kernel).  A constant of the model, not a [config] field. *)
let heap_limit = 1 lsl 22

exception Trap of outcome

let func_addr_base = 0x4000_0000L

type access = Read | Write

(* Trace handle: the interpreter's clock is the instruction counter, so its
   entries live in their own clock domain of the sink's recorder, never
   mixed with machine µs. *)
type itel = {
  i_rec : Tx.t;             (* the sink's span store *)
  i_dom : int;              (* this run's domain in it *)
  i_hits : Tel.Counter.t;   (* check intrinsics evaluated *)
  i_fails : Tel.Counter.t;  (* of those, how many returned "unsafe" *)
  i_detect : Tel.Counter.t; (* report handlers fired *)
}

let make_itel telemetry =
  Option.map
    (fun dom ->
      let sink = Tel.domain_sink dom in
      let p = Tel.domain_name dom in
      Tel.name_track dom ~tid:0 "calls";
      {
        i_rec = Tel.recorder sink;
        i_dom = Tel.domain_id dom;
        i_hits = Tel.counter sink (p ^ ".check_hits");
        i_fails = Tel.counter sink (p ^ ".check_fails");
        i_detect = Tel.counter sink (p ^ ".detections");
      })
    telemetry

(* ------------------------------------------------------------------ *)
(* Arithmetic, shared by both engines *)

let add_overflows a b =
  let s = Int64.add a b in
  (a > 0L && b > 0L && s < 0L) || (a < 0L && b < 0L && s >= 0L)

let mul_overflows a b =
  if a = 0L || b = 0L then false
  else if (a = -1L && b = Int64.min_int) || (b = -1L && a = Int64.min_int) then true
  else
    let p = Int64.mul a b in
    Int64.div p a <> b

(* ================================================================== *)
(* Reference interpreter — the seed semantics, preserved verbatim.     *)
(* The fast path below must match it bit-for-bit on outcome, events,   *)
(* timeline, hazards and step counts; the differential suite in        *)
(* test/test_ir.ml enforces this.  It resolves names lazily through    *)
(* hashtables and lists on every step, which is exactly what makes it  *)
(* slow and exactly what makes it a trustworthy oracle.                *)
(* ================================================================== *)

type rvalue = VInt of int64 | VPtr of int | VFunc of string | VUndef

type alloc = { a_base : int; a_size : int; mutable a_freed : bool }

type region_kind = RAlloc of alloc | RRedzone

type cell = { mutable cv : rvalue; mutable cinit : bool }

type state = {
  cfg : config;
  modul : modul;
  cells : (int, cell) Hashtbl.t;
  region : (int, region_kind) Hashtbl.t;
  allocs : (int, alloc) Hashtbl.t; (* base -> alloc *)
  func_addr : (string, int64) Hashtbl.t;
  addr_func : (int64, string) Hashtbl.t;
  global_base : (string, int) Hashtbl.t;
  mutable next_addr : int;
  layout_rng : Bunshin_util.Rng.t option;
  mutable timeline_rev : (int * event) list;
  mutable hazards_rev : hazard list;
  mutable steps : int;
  tel : itel option;
}

(* The timeline is the single event record; the [events] list of a run is
   derived from it at result-construction time. *)
let record_event st e = st.timeline_rev <- (st.steps, e) :: st.timeline_rev
let record_hazard st h = st.hazards_rev <- h :: st.hazards_rev

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.cfg.fuel then raise (Trap Fuel_exhausted)

let allocate st size =
  let size = max 1 size in
  (* ASLR model: random inter-allocation padding perturbs relative offsets
     between objects, in addition to the randomized base. *)
  (match st.layout_rng with
   | Some rng -> st.next_addr <- st.next_addr + Bunshin_util.Rng.int rng 4
   | None -> ());
  let base = st.next_addr in
  (* Subtracting from the bound keeps a huge [size] from overflowing a sum,
     and the check precedes any mapping, so a refused request costs nothing. *)
  if size > heap_limit - base - st.cfg.redzone then raise (Trap (Crashed Heap_exhausted));
  let a = { a_base = base; a_size = size; a_freed = false } in
  Hashtbl.replace st.allocs base a;
  for i = 0 to size - 1 do
    Hashtbl.replace st.region (base + i) (RAlloc a);
    Hashtbl.replace st.cells (base + i) { cv = VInt 0L; cinit = false }
  done;
  for i = 0 to st.cfg.redzone - 1 do
    Hashtbl.replace st.region (base + size + i) RRedzone;
    Hashtbl.replace st.cells (base + size + i) { cv = VInt 0L; cinit = false }
  done;
  st.next_addr <- base + size + st.cfg.redzone;
  a

let init_state ?telemetry cfg modul =
  let st =
    {
      cfg;
      modul;
      cells = Hashtbl.create 1024;
      region = Hashtbl.create 1024;
      allocs = Hashtbl.create 64;
      func_addr = Hashtbl.create 16;
      addr_func = Hashtbl.create 16;
      global_base = Hashtbl.create 16;
      next_addr =
        (if cfg.layout_seed = 0 then 0x1000
         else
           0x1000
           + Bunshin_util.Rng.int (Bunshin_util.Rng.create cfg.layout_seed) 0x8000);
      layout_rng =
        (if cfg.layout_seed = 0 then None
         else Some (Bunshin_util.Rng.create (cfg.layout_seed * 7919)));
      timeline_rev = [];
      hazards_rev = [];
      steps = 0;
      tel = make_itel telemetry;
    }
  in
  List.iteri
    (fun i f ->
      let addr = Int64.add func_addr_base (Int64.of_int i) in
      Hashtbl.replace st.func_addr f.f_name addr;
      Hashtbl.replace st.addr_func addr f.f_name)
    modul.m_funcs;
  st

(* Globals are allocated inside the run, so one that crosses the heap limit
   ends it like any other allocation. *)
let init_globals st =
  List.iter
    (fun g ->
      let a = allocate st g.g_size in
      Hashtbl.replace st.global_base g.g_name a.a_base;
      Array.iteri
        (fun i v ->
          if i < g.g_size then begin
            let cell = Hashtbl.find st.cells (a.a_base + i) in
            cell.cv <- VInt v;
            cell.cinit <- true
          end)
        g.g_init)
    st.modul.m_globals

(* ------------------------------------------------------------------ *)
(* Value coercions *)

let to_int st = function
  | VInt n -> n
  | VPtr a -> Int64.of_int a
  | VFunc f -> (try Hashtbl.find st.func_addr f with Not_found -> 0L)
  | VUndef -> st.cfg.undef_as

let truthy st v = to_int st v <> 0L

(* Interpret any runtime value as a raw address, the way a machine would. *)
let addr_of st v =
  match v with
  | VPtr a -> a
  | VInt n -> Int64.to_int n
  | VFunc _ -> Int64.to_int (to_int st v)
  | VUndef -> Int64.to_int st.cfg.undef_as

(* ------------------------------------------------------------------ *)
(* Memory access *)

let classify st addr =
  match Hashtbl.find_opt st.region addr with
  | None -> `Unmapped
  | Some RRedzone -> `Redzone
  | Some (RAlloc a) -> if a.a_freed then `Freed else `Live

let mem_access st access v =
  let addr = addr_of st v in
  if addr = 0 then raise (Trap (Crashed Null_deref));
  (match classify st addr with
   | `Unmapped -> raise (Trap (Crashed (Wild_pointer (Int64.of_int addr))))
   | `Redzone ->
     record_hazard st
       (match access with
        | Read -> Oob_read (Int64.of_int addr)
        | Write -> Oob_write (Int64.of_int addr))
   | `Freed ->
     record_hazard st
       (match access with
        | Read -> Uaf_read (Int64.of_int addr)
        | Write -> Uaf_write (Int64.of_int addr))
   | `Live -> ());
  (* A region entry without a backing cell is still a wild access: report
     it like any other unmapped address instead of leaking [Not_found]. *)
  match Hashtbl.find_opt st.cells addr with
  | Some cell -> (addr, cell)
  | None -> raise (Trap (Crashed (Wild_pointer (Int64.of_int addr))))

let mem_load st v =
  let addr, cell = mem_access st Read v in
  if not cell.cinit then begin
    record_hazard st (Uninit_read (Int64.of_int addr));
    VInt st.cfg.undef_as
  end
  else cell.cv

let mem_store st v ptr =
  let _, cell = mem_access st Write ptr in
  cell.cv <- v;
  cell.cinit <- true

(* ------------------------------------------------------------------ *)
(* Arithmetic *)

let eval_binop st op va vb =
  match (va, vb) with
  | VUndef, _ | _, VUndef -> VUndef
  | _ ->
    let a = to_int st va and b = to_int st vb in
    let ptr_result n =
      (* Pointer arithmetic keeps pointerness so later dereference works. *)
      match (va, vb, op) with
      | VPtr _, VInt _, (Add | Sub) | VInt _, VPtr _, Add -> VPtr (Int64.to_int n)
      | _ -> VInt n
    in
    (match op with
     | Add -> ptr_result (Int64.add a b)
     | Sub -> ptr_result (Int64.sub a b)
     | Mul -> VInt (Int64.mul a b)
     | Sdiv -> if b = 0L then raise (Trap (Crashed Div_by_zero)) else VInt (Int64.div a b)
     | Srem -> if b = 0L then raise (Trap (Crashed Div_by_zero)) else VInt (Int64.rem a b)
     | And -> VInt (Int64.logand a b)
     | Or -> VInt (Int64.logor a b)
     | Xor -> VInt (Int64.logxor a b)
     | Shl -> VInt (Int64.shift_left a (Int64.to_int b land 63))
     | Lshr -> VInt (Int64.shift_right_logical a (Int64.to_int b land 63)))

let eval_cmpop st op va vb =
  let a = to_int st va and b = to_int st vb in
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> a < b
    | Sle -> a <= b
    | Sgt -> a > b
    | Sge -> a >= b
  in
  VInt (if r then 1L else 0L)

(* ------------------------------------------------------------------ *)
(* Intrinsics *)

let check_result b = VInt (if b then 1L else 0L)

let call_intrinsic_raw st ~in_func ~in_block name args =
  let arg n =
    match List.nth_opt args n with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "intrinsic %s: missing argument %d" name n)
  in
  if Runtime_api.is_report_handler name then begin
    (match st.tel with
     | Some tel ->
       Tel.Counter.incr tel.i_detect;
       Tx.mark tel.i_rec ~domain:tel.i_dom ~tid:0 ~variant:(-1) ~key:"handler" ~text:name
         ~value:nan ~ts:(float_of_int st.steps) "detected"
     | None -> ());
    raise (Trap (Detected { d_handler = name; d_func = in_func; d_block = in_block }))
  end
  else if String.starts_with ~prefix:Runtime_api.syscall_prefix name then begin
    (* Hoisted above the name-equality chain: no modelled-syscall name
       collides with an exact intrinsic name, and syscalls are by far the
       most frequent intrinsic in server workloads. *)
    record_event st (Syscall (name, List.map (to_int st) args));
    VInt 0L
  end
  else if name = Runtime_api.print then begin
    record_event st (Output (to_int st (arg 0)));
    VInt 0L
  end
  else if name = Runtime_api.malloc then begin
    let a = allocate st (Int64.to_int (to_int st (arg 0))) in
    VPtr a.a_base
  end
  else if name = Runtime_api.free then begin
    let base = addr_of st (arg 0) in
    (match Hashtbl.find_opt st.allocs base with
     | Some a when not a.a_freed -> a.a_freed <- true
     | Some _ -> record_hazard st (Double_free (Int64.of_int base))
     | None -> record_hazard st (Bad_free (Int64.of_int base)));
    VInt 0L
  end
  else if name = Runtime_api.bounds_ok then
    let a = addr_of st (arg 0) in
    check_result (a <> 0 && classify st a = `Live)
  else if name = Runtime_api.in_alloc then
    let a = addr_of st (arg 0) in
    check_result
      (match classify st a with `Live | `Freed -> true | `Redzone | `Unmapped -> false)
  else if name = Runtime_api.not_freed then
    (* Temporal-only: a key/lock check fails iff the referent was freed;
       spatially wild addresses are not its business. *)
    let a = addr_of st (arg 0) in
    check_result (match classify st a with `Freed -> false | `Live | `Redzone | `Unmapped -> true)
  else if name = Runtime_api.init_ok then
    let a = addr_of st (arg 0) in
    check_result (match Hashtbl.find_opt st.cells a with Some c -> c.cinit | None -> false)
  else if name = Runtime_api.add_ok then
    check_result (not (add_overflows (to_int st (arg 0)) (to_int st (arg 1))))
  else if name = Runtime_api.mul_ok then
    check_result (not (mul_overflows (to_int st (arg 0)) (to_int st (arg 1))))
  else if name = Runtime_api.code_ptr_ok then
    check_result
      (match arg 0 with
       | VFunc _ -> true
       | v -> Hashtbl.mem st.addr_func (to_int st v))
  else if name = Runtime_api.shift_ok then
    let n = to_int st (arg 0) in
    check_result (n >= 0L && n < 64L)
  else invalid_arg ("Interp: unknown intrinsic " ^ name)

let call_intrinsic st ~in_func ~in_block name args =
  match st.tel with
  | Some tel when List.mem name Runtime_api.helpers ->
    let r = call_intrinsic_raw st ~in_func ~in_block name args in
    Tel.Counter.incr tel.i_hits;
    (match r with VInt 0L -> Tel.Counter.incr tel.i_fails | _ -> ());
    r
  | _ -> call_intrinsic_raw st ~in_func ~in_block name args

(* ------------------------------------------------------------------ *)
(* Execution *)

let rec exec_call st ~depth ~caller ~caller_block fname (args : rvalue list) : rvalue =
  if depth > st.cfg.max_depth then raise (Trap (Crashed Stack_overflow_sim));
  match find_func st.modul fname with
  | None -> call_intrinsic st ~in_func:caller ~in_block:caller_block fname args
  | Some f ->
    if List.length args <> List.length f.f_params then
      invalid_arg
        (Printf.sprintf "Interp: call to %s with %d args, expected %d" fname (List.length args)
           (List.length f.f_params));
    let env : (reg, rvalue) Hashtbl.t = Hashtbl.create 32 in
    List.iter2 (fun p v -> Hashtbl.replace env p v) f.f_params args;
    let frame_allocs = ref [] in
    let eval v =
      match v with
      | Reg r -> (
        match Hashtbl.find_opt env r with
        | Some rv -> rv
        | None -> invalid_arg (Printf.sprintf "Interp: %s: unbound register %%%s" fname r))
      | Int n -> VInt n
      | Null -> VPtr 0
      | Undef -> VUndef
      | Global g -> (
        match Hashtbl.find_opt st.global_base g with
        | Some base -> VPtr base
        | None ->
          if Hashtbl.mem st.func_addr g then VFunc g
          else invalid_arg (Printf.sprintf "Interp: unknown global @%s" g))
    in
    let set r v = Hashtbl.replace env r v in
    let finish result =
      (* Frame teardown: allocas become dangling (stack use-after-return). *)
      List.iter (fun a -> a.a_freed <- true) !frame_allocs;
      result
    in
    let rec run_block prev_label b =
      (* Phis evaluate simultaneously against the incoming edge. *)
      let phis, rest = List.partition (function Phi _ -> true | _ -> false) b.b_instrs in
      let phi_values =
        List.map
          (fun i ->
            match i with
            | Phi (r, incoming) ->
              tick st;
              let v =
                match prev_label with
                | None -> VUndef
                | Some l -> (
                  match List.assoc_opt l incoming with Some v -> eval v | None -> VUndef)
              in
              (r, v)
            | _ -> assert false)
          phis
      in
      List.iter (fun (r, v) -> set r v) phi_values;
      List.iter
        (fun i ->
          tick st;
          match i with
          | Phi _ -> assert false
          | Bin (r, op, a, bv) -> set r (eval_binop st op (eval a) (eval bv))
          | Cmp (r, op, a, bv) -> set r (eval_cmpop st op (eval a) (eval bv))
          | Alloca (r, n) ->
            let a = allocate st n in
            frame_allocs := a :: !frame_allocs;
            set r (VPtr a.a_base)
          | Load (r, p) -> set r (mem_load st (eval p))
          | Store (v, p) -> mem_store st (eval v) (eval p)
          | Gep (r, p, idx) -> set r (eval_binop st Add (eval p) (eval idx))
          | Call (dst, callee, cargs) ->
            let result =
              exec_call st ~depth:(depth + 1) ~caller:fname ~caller_block:b.b_label callee
                (List.map eval cargs)
            in
            (match dst with Some r -> set r result | None -> ())
          | CallInd (dst, fp, cargs) ->
            let target =
              match eval fp with
              | VFunc fn -> fn
              | v -> (
                let addr = to_int st v in
                match Hashtbl.find_opt st.addr_func addr with
                | Some fn -> fn
                | None -> raise (Trap (Crashed (Bad_indirect_call addr))))
            in
            let result =
              exec_call st ~depth:(depth + 1) ~caller:fname ~caller_block:b.b_label target
                (List.map eval cargs)
            in
            (match dst with Some r -> set r result | None -> ())
          | Select (r, c, a, bv) -> set r (if truthy st (eval c) then eval a else eval bv))
        rest;
      tick st;
      match b.b_term with
      | Ret None -> finish (VInt 0L)
      | Ret (Some v) ->
        let result = eval v in
        finish result
      | Br l -> jump b.b_label l
      | CondBr (c, l1, l2) -> jump b.b_label (if truthy st (eval c) then l1 else l2)
      | Unreachable ->
        raise (Trap (Detected { d_handler = "unreachable"; d_func = fname; d_block = b.b_label }))
    and jump from l =
      match find_block f l with
      | Some b -> run_block (Some from) b
      | None -> invalid_arg (Printf.sprintf "Interp: %s: jump to unknown block %s" fname l)
    in
    (match st.tel with
     | None -> run_block None (entry_block f)
     | Some tel ->
       (* Span per function activation on the instruction-step clock; it
          must also close when a Trap unwinds through us. *)
       let id =
         Tx.open_slice tel.i_rec ~domain:tel.i_dom ~tid:0 ~t0:(float_of_int st.steps) fname
       in
       (match run_block None (entry_block f) with
        | r ->
          Tx.finish tel.i_rec id ~t1:(float_of_int st.steps);
          r
        | exception e ->
          Tx.finish tel.i_rec id ~t1:(float_of_int st.steps);
          raise e))

let run_reference ?(config = default_config) ?telemetry modul ~entry ~args =
  (match find_func modul entry with
   | Some _ -> ()
   | None -> invalid_arg ("Interp.run: no such function " ^ entry));
  let st = init_state ?telemetry config modul in
  let outcome =
    try
      init_globals st;
      let v =
        exec_call st ~depth:0 ~caller:entry ~caller_block:"" entry
          (List.map (fun n -> VInt n) args)
      in
      Finished (Some (to_int st v))
    with Trap o -> o
  in
  let timeline = List.rev st.timeline_rev in
  {
    outcome;
    events = List.map snd timeline;
    timeline;
    hazards = List.rev st.hazards_rev;
    steps = st.steps;
  }

(* ================================================================== *)
(* Fast path: precompiled modules + paged shadow memory.               *)
(* Same observable semantics as the reference engine above, with the   *)
(* per-step name resolution and per-address hashing compiled away:     *)
(* frames are arrays, jumps are indices, memory is Shadow pages, and   *)
(* intrinsics dispatch on a Precompile.intr tag.                       *)
(* ================================================================== *)

type falloc = { fa_base : int; fa_size : int; mutable fa_freed : bool }

type fstate = {
  f_cfg : config;
  f_pm : P.t;
  f_mem : P.rvalue Shadow.t;
  f_allocs : falloc Vec.t;         (* allocation id -> record *)
  f_global_base : int array;       (* global index -> base address, per layout *)
  mutable f_next : int;
  f_rng : Bunshin_util.Rng.t option;
  mutable f_timeline_rev : (int * event) list;
  mutable f_hazards_rev : hazard list;
  mutable f_steps : int;
  f_tel : itel option;
}

(* Unbound-slot sentinel: compilation never emits a negative function
   index, so this value cannot be produced by any program. *)
let funbound = P.VFunc (-1)

let frecord_event fst e = fst.f_timeline_rev <- (fst.f_steps, e) :: fst.f_timeline_rev
let frecord_hazard fst h = fst.f_hazards_rev <- h :: fst.f_hazards_rev

let fallocate fst size =
  let size = max 1 size in
  (match fst.f_rng with
   | Some rng -> fst.f_next <- fst.f_next + Bunshin_util.Rng.int rng 4
   | None -> ());
  let base = fst.f_next in
  if size > heap_limit - base - fst.f_cfg.redzone then raise (Trap (Crashed Heap_exhausted));
  let id = Vec.length fst.f_allocs in
  let a = { fa_base = base; fa_size = size; fa_freed = false } in
  Vec.push fst.f_allocs a;
  Shadow.map_range fst.f_mem ~base ~len:size ~tag:Shadow.tag_live ~owner:id;
  Shadow.map_range fst.f_mem ~base:(base + size) ~len:fst.f_cfg.redzone
    ~tag:Shadow.tag_redzone ~owner:(-1);
  fst.f_next <- base + size + fst.f_cfg.redzone;
  a

let finit_state ?telemetry cfg (pm : P.t) =
  {
    f_cfg = cfg;
    f_pm = pm;
    f_mem = Shadow.create ~fill:P.VUndef;
    f_allocs = Vec.create ();
    f_global_base = Array.make (Array.length pm.P.p_globals) 0;
    f_next =
      (if cfg.layout_seed = 0 then 0x1000
       else
         0x1000 + Bunshin_util.Rng.int (Bunshin_util.Rng.create cfg.layout_seed) 0x8000);
    f_rng =
      (if cfg.layout_seed = 0 then None
       else Some (Bunshin_util.Rng.create (cfg.layout_seed * 7919)));
    f_timeline_rev = [];
    f_hazards_rev = [];
    f_steps = 0;
    f_tel = make_itel telemetry;
  }

(* As in the reference engine, globals are allocated inside the run. *)
let finit_globals fst =
  Array.iteri
    (fun gi (g : global) ->
      let a = fallocate fst g.g_size in
      fst.f_global_base.(gi) <- a.fa_base;
      Array.iteri
        (fun i v ->
          if i < g.g_size then begin
            let addr = a.fa_base + i in
            let p = Shadow.page_of fst.f_mem addr in
            let off = addr land Shadow.page_mask in
            p.Shadow.values.(off) <- P.VInt v;
            Bytes.set p.Shadow.init off '\001'
          end)
        g.g_init)
    fst.f_pm.P.p_globals

let fto_int fst = function
  | P.VInt n -> n
  | P.VPtr a -> Int64.of_int a
  | P.VFunc i -> Int64.add func_addr_base (Int64.of_int i)
  | P.VUndef -> fst.f_cfg.undef_as

let ftruthy fst v = fto_int fst v <> 0L

let faddr_of fst v =
  match v with
  | P.VPtr a -> a
  | P.VInt n -> Int64.to_int n
  | P.VFunc _ -> Int64.to_int (fto_int fst v)
  | P.VUndef -> Int64.to_int fst.f_cfg.undef_as

(* Function index of a code address, or -1: the arithmetic inverse of
   [fto_int] on VFunc, replacing the reference addr_func hashtable. *)
let ffunc_of_addr pm addr =
  let rel = Int64.sub addr func_addr_base in
  if rel >= 0L && rel < Int64.of_int (Array.length pm.P.p_funcs) then Int64.to_int rel
  else -1

let fclassify fst addr =
  let p = Shadow.page_of fst.f_mem addr in
  let off = addr land Shadow.page_mask in
  let t = Bytes.unsafe_get p.Shadow.tags off in
  if t = Shadow.tag_unmapped then `Unmapped
  else if t = Shadow.tag_redzone then `Redzone
  else if (Vec.get fst.f_allocs (Array.unsafe_get p.Shadow.owner off)).fa_freed then `Freed
  else `Live

let fmem_access fst access v =
  let addr = faddr_of fst v in
  if addr = 0 then raise (Trap (Crashed Null_deref));
  let p = Shadow.page_of fst.f_mem addr in
  let off = addr land Shadow.page_mask in
  let t = Bytes.unsafe_get p.Shadow.tags off in
  (* This trap guards the unchecked [values] reads of [fmem_load] and
     [fmem_store]: the shared empty page's value plane is empty. *)
  if t = Shadow.tag_unmapped then raise (Trap (Crashed (Wild_pointer (Int64.of_int addr))));
  if t = Shadow.tag_redzone then
    frecord_hazard fst
      (match access with
       | Read -> Oob_read (Int64.of_int addr)
       | Write -> Oob_write (Int64.of_int addr))
  else if (Vec.get fst.f_allocs (Array.unsafe_get p.Shadow.owner off)).fa_freed then
    frecord_hazard fst
      (match access with
       | Read -> Uaf_read (Int64.of_int addr)
       | Write -> Uaf_write (Int64.of_int addr));
  (addr, p, off)

let fmem_load fst v =
  let addr, p, off = fmem_access fst Read v in
  if Bytes.unsafe_get p.Shadow.init off = '\000' then begin
    frecord_hazard fst (Uninit_read (Int64.of_int addr));
    P.VInt fst.f_cfg.undef_as
  end
  else Array.unsafe_get p.Shadow.values off

let fmem_store fst v ptr =
  let _, p, off = fmem_access fst Write ptr in
  Array.unsafe_set p.Shadow.values off v;
  Bytes.unsafe_set p.Shadow.init off '\001'

let feval_binop fst op va vb =
  match (va, vb) with
  | P.VUndef, _ | _, P.VUndef -> P.VUndef
  | _ ->
    (* [fto_int] inlined for the dominant VInt case. *)
    let a = match va with P.VInt n -> n | _ -> fto_int fst va
    and b = match vb with P.VInt n -> n | _ -> fto_int fst vb in
    (match op with
     | Add ->
       let n = Int64.add a b in
       (match (va, vb) with
        | P.VPtr _, P.VInt _ | P.VInt _, P.VPtr _ -> P.VPtr (Int64.to_int n)
        | _ -> P.VInt n)
     | Sub ->
       let n = Int64.sub a b in
       (match (va, vb) with
        | P.VPtr _, P.VInt _ -> P.VPtr (Int64.to_int n)
        | _ -> P.VInt n)
     | Mul -> P.VInt (Int64.mul a b)
     | Sdiv -> if b = 0L then raise (Trap (Crashed Div_by_zero)) else P.VInt (Int64.div a b)
     | Srem -> if b = 0L then raise (Trap (Crashed Div_by_zero)) else P.VInt (Int64.rem a b)
     | And -> P.VInt (Int64.logand a b)
     | Or -> P.VInt (Int64.logor a b)
     | Xor -> P.VInt (Int64.logxor a b)
     | Shl -> P.VInt (Int64.shift_left a (Int64.to_int b land 63))
     | Lshr -> P.VInt (Int64.shift_right_logical a (Int64.to_int b land 63)))

(* Shared immutable results, so compares and checks do not allocate. *)
let vtrue = P.VInt 1L
let vfalse = P.VInt 0L

let feval_cmpop fst op va vb =
  let a = match va with P.VInt n -> n | _ -> fto_int fst va
  and b = match vb with P.VInt n -> n | _ -> fto_int fst vb in
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> a < b
    | Sle -> a <= b
    | Sgt -> a > b
    | Sge -> a >= b
  in
  if r then vtrue else vfalse

let fcheck b = if b then vtrue else vfalse

let fcall_intrinsic_raw fst ~in_func ~in_block intr (args : P.rvalue array) : P.rvalue =
  let arg n =
    if n < Array.length args then Array.unsafe_get args n
    else invalid_arg (Printf.sprintf "intrinsic %s: missing argument %d" (P.intr_name intr) n)
  in
  match intr with
  | P.IReport name ->
    (match fst.f_tel with
     | Some tel ->
       Tel.Counter.incr tel.i_detect;
       Tx.mark tel.i_rec ~domain:tel.i_dom ~tid:0 ~variant:(-1) ~key:"handler" ~text:name
         ~value:nan ~ts:(float_of_int fst.f_steps) "detected"
     | None -> ());
    raise (Trap (Detected { d_handler = name; d_func = in_func; d_block = in_block }))
  | P.ISyscall name ->
    frecord_event fst (Syscall (name, List.map (fto_int fst) (Array.to_list args)));
    P.VInt 0L
  | P.IPrint ->
    frecord_event fst (Output (fto_int fst (arg 0)));
    P.VInt 0L
  | P.IMalloc ->
    let a = fallocate fst (Int64.to_int (fto_int fst (arg 0))) in
    P.VPtr a.fa_base
  | P.IFree ->
    let base = faddr_of fst (arg 0) in
    let p = Shadow.page_of fst.f_mem base in
    let off = base land Shadow.page_mask in
    (* Only an allocation *base* is a valid free target; the owner record
       check mirrors the reference's base->alloc table lookup. *)
    (if Bytes.unsafe_get p.Shadow.tags off = Shadow.tag_live then begin
       let a = Vec.get fst.f_allocs p.Shadow.owner.(off) in
       if a.fa_base = base then
         if a.fa_freed then frecord_hazard fst (Double_free (Int64.of_int base))
         else a.fa_freed <- true
       else frecord_hazard fst (Bad_free (Int64.of_int base))
     end
     else frecord_hazard fst (Bad_free (Int64.of_int base)));
    P.VInt 0L
  | P.IBoundsOk ->
    let a = faddr_of fst (arg 0) in
    fcheck (a <> 0 && fclassify fst a = `Live)
  | P.IInAlloc ->
    let a = faddr_of fst (arg 0) in
    fcheck
      (match fclassify fst a with `Live | `Freed -> true | `Redzone | `Unmapped -> false)
  | P.INotFreed ->
    let a = faddr_of fst (arg 0) in
    fcheck
      (match fclassify fst a with `Freed -> false | `Live | `Redzone | `Unmapped -> true)
  | P.IInitOk ->
    let a = faddr_of fst (arg 0) in
    let p = Shadow.page_of fst.f_mem a in
    let off = a land Shadow.page_mask in
    fcheck
      (Bytes.unsafe_get p.Shadow.tags off <> Shadow.tag_unmapped
      && Bytes.unsafe_get p.Shadow.init off = '\001')
  | P.IAddOk -> fcheck (not (add_overflows (fto_int fst (arg 0)) (fto_int fst (arg 1))))
  | P.IMulOk -> fcheck (not (mul_overflows (fto_int fst (arg 0)) (fto_int fst (arg 1))))
  | P.ICodePtrOk ->
    fcheck
      (match arg 0 with
       | P.VFunc _ -> true
       | v -> ffunc_of_addr fst.f_pm (fto_int fst v) >= 0)
  | P.IShiftOk ->
    let n = fto_int fst (arg 0) in
    fcheck (n >= 0L && n < 64L)
  | P.IUnknown name -> invalid_arg ("Interp: unknown intrinsic " ^ name)

let fcall_intrinsic fst ~in_func ~in_block intr args =
  match fst.f_tel with
  | Some tel when P.intr_is_helper intr ->
    let r = fcall_intrinsic_raw fst ~in_func ~in_block intr args in
    Tel.Counter.incr tel.i_hits;
    (match r with P.VInt 0L -> Tel.Counter.incr tel.i_fails | _ -> ());
    r
  | _ -> fcall_intrinsic_raw fst ~in_func ~in_block intr args

(* Incoming edge of a phi for predecessor block [prev], or a compiled
   [undef] when no edge matches — the reference's List.assoc_opt miss. *)
let pundef = P.PConst P.VUndef

let rec phi_incoming (inc : (int * P.pvalue) array) n prev k =
  if k >= n then pundef
  else
    let l, v = Array.unsafe_get inc k in
    if l = prev then v else phi_incoming inc n prev (k + 1)

let feval fst (f : P.pfunc) (frame : P.rvalue array) = function
  | P.PReg i -> (
    match Array.unsafe_get frame i with
    | P.VFunc k when k < 0 ->
      invalid_arg
        (Printf.sprintf "Interp: %s: unbound register %%%s" f.P.pf_name f.P.pf_slot_names.(i))
    | v -> v)
  | P.PConst c -> c
  | P.PGlobal gi -> P.VPtr fst.f_global_base.(gi)
  | P.PUnbound r -> invalid_arg (Printf.sprintf "Interp: %s: unbound register %%%s" f.P.pf_name r)
  | P.PBadGlobal g -> invalid_arg (Printf.sprintf "Interp: unknown global @%s" g)

let rec fexec_call fst ~depth fidx (args : P.rvalue array) : P.rvalue =
  if depth > fst.f_cfg.max_depth then raise (Trap (Crashed Stack_overflow_sim));
  let f = fst.f_pm.P.p_funcs.(fidx) in
  if Array.length args <> f.P.pf_nparams then
    invalid_arg
      (Printf.sprintf "Interp: call to %s with %d args, expected %d" f.P.pf_name
         (Array.length args) f.P.pf_nparams);
  match fst.f_tel with
  | None -> fexec_body fst ~depth f args
  | Some tel ->
    let id =
      Tx.open_slice tel.i_rec ~domain:tel.i_dom ~tid:0 ~t0:(float_of_int fst.f_steps)
        f.P.pf_name
    in
    (match fexec_body fst ~depth f args with
     | r ->
       Tx.finish tel.i_rec id ~t1:(float_of_int fst.f_steps);
       r
     | exception e ->
       Tx.finish tel.i_rec id ~t1:(float_of_int fst.f_steps);
       raise e)

and fexec_body fst ~depth (f : P.pfunc) (args : P.rvalue array) : P.rvalue =
  if Array.length f.P.pf_blocks = 0 then
    invalid_arg ("Ast.entry_block: function " ^ f.P.pf_name ^ " has no blocks");
  let frame = Array.make (max 1 f.P.pf_nslots) funbound in
  for i = 0 to f.P.pf_nparams - 1 do
    frame.(f.P.pf_param_slots.(i)) <- args.(i)
  done;
  let frame_allocs = ref [] in
  (* The step counter is bumped inline (not via {!ftick}): it runs once per
     executed instruction, the single hottest point of the engine. *)
  let fuel = fst.f_cfg.fuel in
  let rec run_block prev bi : P.rvalue =
    let b = f.P.pf_blocks.(bi) in
    let phis = b.P.pb_phis in
    let nphis = Array.length phis in
    if nphis > 0 then begin
      (* Simultaneous merge: compute every incoming value into the block's
         scratch buffer before assigning any (phi eval cannot re-enter the
         block, so sharing the buffer across activations is safe). *)
      let scratch = b.P.pb_scratch in
      for i = 0 to nphis - 1 do
        let s = fst.f_steps + 1 in
        fst.f_steps <- s;
        if s > fuel then raise (Trap Fuel_exhausted);
        Array.unsafe_set scratch i
          (if prev < 0 then P.VUndef
           else
             let inc = phis.(i).P.ph_incoming in
             feval fst f frame (phi_incoming inc (Array.length inc) prev 0))
      done;
      for i = 0 to nphis - 1 do
        Array.unsafe_set frame phis.(i).P.ph_dst (Array.unsafe_get scratch i)
      done
    end;
    let body = b.P.pb_body in
    for i = 0 to Array.length body - 1 do
      let s = fst.f_steps + 1 in
      fst.f_steps <- s;
      if s > fuel then raise (Trap Fuel_exhausted);
      match Array.unsafe_get body i with
      (* The Bin/Cmp arms inline [feval]'s PConst/PReg cases by hand:
         these two instructions dominate compute kernels and the extra
         call per operand is measurable.  A sentinel hit falls back to
         [feval], which raises the proper unbound-register error.
         Operands evaluate right-to-left like the reference's
         [eval_binop st op (eval a) (eval b)] application. *)
      | P.PBin (d, op, a, bv) ->
        let vb =
          match bv with
          | P.PConst c -> c
          | P.PReg i -> (
            match Array.unsafe_get frame i with
            | P.VFunc k when k < 0 -> feval fst f frame bv
            | v -> v)
          | _ -> feval fst f frame bv
        in
        let va =
          match a with
          | P.PConst c -> c
          | P.PReg i -> (
            match Array.unsafe_get frame i with
            | P.VFunc k when k < 0 -> feval fst f frame a
            | v -> v)
          | _ -> feval fst f frame a
        in
        Array.unsafe_set frame d (feval_binop fst op va vb)
      | P.PCmp (d, op, a, bv) ->
        let vb =
          match bv with
          | P.PConst c -> c
          | P.PReg i -> (
            match Array.unsafe_get frame i with
            | P.VFunc k when k < 0 -> feval fst f frame bv
            | v -> v)
          | _ -> feval fst f frame bv
        in
        let va =
          match a with
          | P.PConst c -> c
          | P.PReg i -> (
            match Array.unsafe_get frame i with
            | P.VFunc k when k < 0 -> feval fst f frame a
            | v -> v)
          | _ -> feval fst f frame a
        in
        Array.unsafe_set frame d (feval_cmpop fst op va vb)
      | P.PAlloca (d, n) ->
        let a = fallocate fst n in
        frame_allocs := a :: !frame_allocs;
        Array.unsafe_set frame d (P.VPtr a.fa_base)
      | P.PLoad (d, pv) -> Array.unsafe_set frame d (fmem_load fst (feval fst f frame pv))
      | P.PStore (v, pv) -> fmem_store fst (feval fst f frame v) (feval fst f frame pv)
      | P.PCall (dst, callee, pargs) ->
        let n = Array.length pargs in
        let cargs = Array.make n P.VUndef in
        for k = 0 to n - 1 do
          cargs.(k) <- feval fst f frame pargs.(k)
        done;
        let r =
          match callee with
          | P.CFunc fi -> fexec_call fst ~depth:(depth + 1) fi cargs
          | P.CIntr it ->
            (* The reference routes intrinsics through exec_call, whose
               depth guard therefore also applies to them. *)
            if depth + 1 > fst.f_cfg.max_depth then
              raise (Trap (Crashed Stack_overflow_sim));
            fcall_intrinsic fst ~in_func:f.P.pf_name ~in_block:b.P.pb_label it cargs
        in
        if dst >= 0 then frame.(dst) <- r
      | P.PCallInd (dst, fp, pargs) ->
        (* Target resolution precedes argument evaluation, as in the
           reference engine. *)
        let fi =
          match feval fst f frame fp with
          | P.VFunc k -> k
          | v ->
            let addr = fto_int fst v in
            let k = ffunc_of_addr fst.f_pm addr in
            if k < 0 then raise (Trap (Crashed (Bad_indirect_call addr)));
            k
        in
        let n = Array.length pargs in
        let cargs = Array.make n P.VUndef in
        for k = 0 to n - 1 do
          cargs.(k) <- feval fst f frame pargs.(k)
        done;
        let r = fexec_call fst ~depth:(depth + 1) fi cargs in
        if dst >= 0 then frame.(dst) <- r
      | P.PSelect (d, c, a, bv) ->
        Array.unsafe_set frame d
          (if ftruthy fst (feval fst f frame c) then feval fst f frame a
           else feval fst f frame bv)
    done;
    let s = fst.f_steps + 1 in
    fst.f_steps <- s;
    if s > fuel then raise (Trap Fuel_exhausted);
    match b.P.pb_term with
    | P.PRet None -> ffinish frame_allocs (P.VInt 0L)
    | P.PRet (Some v) ->
      let result = feval fst f frame v in
      ffinish frame_allocs result
    | P.PBr t -> fjump bi t
    | P.PCondBr (c, t1, t2) -> fjump bi (if ftruthy fst (feval fst f frame c) then t1 else t2)
    | P.PUnreachable ->
      raise
        (Trap
           (Detected { d_handler = "unreachable"; d_func = f.P.pf_name; d_block = b.P.pb_label }))
  and fjump from = function
    | P.TBlock bi -> run_block from bi
    | P.TUnknown l ->
      invalid_arg (Printf.sprintf "Interp: %s: jump to unknown block %s" f.P.pf_name l)
  in
  run_block (-1) 0

and ffinish frame_allocs result =
  (* Frame teardown: allocas become dangling (stack use-after-return). *)
  List.iter (fun a -> a.fa_freed <- true) !frame_allocs;
  result

(* ------------------------------------------------------------------ *)
(* Entry points *)

let compile = P.compile

let run_compiled ?(config = default_config) ?telemetry (pm : P.t) ~entry ~args =
  let fidx =
    match Hashtbl.find_opt pm.P.p_func_index entry with
    | Some i -> i
    | None -> invalid_arg ("Interp.run: no such function " ^ entry)
  in
  let fst = finit_state ?telemetry config pm in
  let outcome =
    try
      finit_globals fst;
      let args = Array.of_list (List.map (fun n -> P.VInt n) args) in
      Finished (Some (fto_int fst (fexec_call fst ~depth:0 fidx args)))
    with Trap o -> o
  in
  let timeline = List.rev fst.f_timeline_rev in
  {
    outcome;
    events = List.map snd timeline;
    timeline;
    hazards = List.rev fst.f_hazards_rev;
    steps = fst.f_steps;
  }

let run modul ~entry ~args = run_compiled (P.compile modul) ~entry ~args

let events_equal a b = a.events = b.events

let address_of_global ?(config = default_config) modul name =
  let st = init_state config modul in
  (try init_globals st
   with Trap _ -> invalid_arg "Interp.address_of_global: globals exceed the heap limit");
  match Hashtbl.find_opt st.global_base name with
  | Some base -> Int64.of_int base
  | None -> invalid_arg ("Interp.address_of_global: unknown global " ^ name)

let address_of_func modul name =
  match find_func modul name with
  | Some _ ->
    let rec index i = function
      | [] -> invalid_arg "unreachable"
      | f :: _ when f.f_name = name -> i
      | _ :: rest -> index (i + 1) rest
    in
    Int64.add func_addr_base (Int64.of_int (index 0 modul.m_funcs))
  | None -> invalid_arg ("Interp.address_of_func: unknown function " ^ name)
