module Cost = Bunshin_sanitizer.Cost_model
module San = Bunshin_sanitizer.Sanitizer
module Sc = Bunshin_syscall.Syscall

type func = { fn_name : string; fn_profile : Cost.code_profile }

type t = {
  name : string;
  funcs : func list;
  working_set : float;
  gen_trace : Bunshin_util.Rng.t -> Trace.t;
}

let find_func t name = List.find_opt (fun f -> f.fn_name = name) t.funcs

type build = {
  prog : t;
  sanitizers : San.t list;
  checked_funcs : string list option;
  block_split : int;
}

let block_unit f i = Printf.sprintf "%s#%d" f i

let baseline prog = { prog; sanitizers = []; checked_funcs = None; block_split = 1 }

let full sans prog =
  if not (San.collectively_enforceable sans) then
    invalid_arg
      (Printf.sprintf "Program.full: conflicting sanitizers on %s: {%s}" prog.name
         (String.concat ", " (List.map San.name sans)));
  { prog; sanitizers = sans; checked_funcs = None; block_split = 1 }

let variant sans ?(block_split = 1) ~checked prog =
  if block_split < 1 then invalid_arg "Program.variant: block_split must be >= 1";
  if not (San.collectively_enforceable sans) then
    invalid_arg "Program.variant: conflicting sanitizers";
  { prog; sanitizers = sans; checked_funcs = Some checked; block_split }

let profile_of b fname =
  match find_func b.prog fname with
  | Some f -> f.fn_profile
  | None -> Cost.typical_profile

(* Fraction of the function's checks this variant keeps: 0/1 at function
   granularity; at block granularity, the share of its block groups whose
   unit ("f#i") is selected. *)
let checked_fraction b fname =
  match b.checked_funcs with
  | None -> 1.0
  | Some us ->
    if b.block_split = 1 then if List.mem fname us then 1.0 else 0.0
    else begin
      let mine = ref 0 in
      for i = 0 to b.block_split - 1 do
        if List.mem (block_unit fname i) us then incr mine
      done;
      float_of_int !mine /. float_of_int b.block_split
    end

let cost_factor b fname =
  if b.sanitizers = [] then 1.0
  else begin
    let p = profile_of b fname in
    let checks = checked_fraction b fname *. San.group_check_cost b.sanitizers p in
    1.0 +. checks +. San.group_residual b.sanitizers p
  end

(* One runtime per family issues the phase syscalls; dedup so that 19 UBSan
   sub-sanitizers do not scan /proc 19 times. *)
let family_representatives sans =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (s : San.t) ->
      if Hashtbl.mem seen s.San.family then false
      else begin
        Hashtbl.replace seen s.San.family ();
        true
      end)
    sans

let runtime_syscalls sans phase =
  List.concat_map (fun s -> San.introduced_syscalls s phase) (family_representatives sans)

(* Interval of (inflated) work between in-execution metadata syscalls. *)
let metadata_syscall_interval = 500.0

let weave_in_execution sans body =
  let extra = runtime_syscalls sans San.In_execution in
  if extra = [] then body
  else begin
    let acc = ref 0.0 in
    List.concat_map
      (fun op ->
        match op with
        | Trace.Work w ->
          acc := !acc +. w.cost;
          if !acc >= metadata_syscall_interval then begin
            acc := !acc -. metadata_syscall_interval;
            (op :: List.map (fun s -> Trace.Sys s) extra)
          end
          else [ op ]
        | _ -> [ op ])
      body
  end

let build_trace b ~seed =
  let rng = Bunshin_util.Rng.create seed in
  let body = b.prog.gen_trace rng in
  (* [cost_factor] scans the functions, the checked units and every
     sanitizer's cost model, so it is resolved once per function: a trace
     has ~1,000 Work ops over at most 120 functions.  A baseline build's
     factor is 1.0 everywhere, and [c *. 1.0 = c]. *)
  let body =
    if b.sanitizers = [] then body
    else begin
      let factors = Hashtbl.create 64 in
      let factor fname =
        match Hashtbl.find_opt factors fname with
        | Some f -> f
        | None ->
          let f = cost_factor b fname in
          Hashtbl.add factors fname f;
          f
      in
      Trace.map_cost (fun fname c -> c *. factor fname) body
    end
  in
  let body = weave_in_execution b.sanitizers body in
  let pre = List.map (fun s -> Trace.Sys s) (runtime_syscalls b.sanitizers San.Pre_main) in
  let post = List.map (fun s -> Trace.Sys s) (runtime_syscalls b.sanitizers San.Post_exit) in
  pre @ (Trace.Marker Trace.Main_entered :: body)
  @ (Trace.Marker Trace.About_to_exit :: post)

let build_working_set b = b.prog.working_set *. San.group_ws_multiplier b.sanitizers

let build_ram_overhead b = San.group_ram_overhead b.sanitizers

let overhead_of_build b =
  (* Weight each function by its share of baseline work in the seed-0
     workload.  A baseline build's factors are all 1.0, so it has no
     overhead and no trace to generate. *)
  if b.sanitizers = [] then 0.0
  else begin
    let base = b.prog.gen_trace (Bunshin_util.Rng.create 0) in
    let weights = Trace.work_by_func base in
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
    if total <= 0.0 then 0.0
    else
      List.fold_left
        (fun acc (fname, w) -> acc +. (w /. total *. (cost_factor b fname -. 1.0)))
        0.0 weights
  end
