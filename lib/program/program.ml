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

(* A build's summed check cost and family residual on one code profile. *)
type group_costs = { check : float; residual : float }

let group_costs sans p =
  { check = San.group_check_cost sans p; residual = San.group_residual sans p }

(* [group_costs] once per distinct code profile, compared physically: a
   program's functions share their profile records, and the residual
   sorts and filters the sanitizers by family. *)
let costs_by_profile sans =
  let memo = ref [] in
  fun p ->
    match List.assq_opt p !memo with
    | Some c -> c
    | None ->
      let c = group_costs sans p in
      memo := (p, c) :: !memo;
      c

let factor_with costs b fname =
  let c = costs (profile_of b fname) in
  1.0 +. (checked_fraction b fname *. c.check) +. c.residual

let cost_factor b fname =
  if b.sanitizers = [] then 1.0 else factor_with (group_costs b.sanitizers) b fname

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

module Func_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* What one function's Work ops are multiplied by: the build's cost factor,
   then the caller's jitter.  All-float, so the record is flat. *)
type scale = { cf : float; jf : float }

type factors = { fs_build : build; fs_tbl : scale Func_tbl.t }

let factor fs fname =
  match Func_tbl.find fs.fs_tbl fname with
  | e -> e.cf
  | exception Not_found -> cost_factor fs.fs_build fname

let generate prog ~seed = prog.gen_trace (Bunshin_util.Rng.create seed)

let factor_trace ?jitter b body =
  let tbl = Func_tbl.create 64 in
  (* The factor is resolved once per function (a trace has ~1,000 Work ops
     over at most 120 functions), and its group costs once per code
     profile.  A baseline build's factor is 1.0 everywhere, and
     [c *. 1.0 = c], so it multiplies by nothing; without [jitter] neither
     does the second factor. *)
  let scaled = b.sanitizers <> [] and jittered = Option.is_some jitter in
  let costs = costs_by_profile b.sanitizers in
  let scale fname =
    match Func_tbl.find tbl fname with
    | e -> e
    | exception Not_found ->
      let e =
        {
          cf = (if scaled then factor_with costs b fname else 1.0);
          jf = (match jitter with Some j -> j fname | None -> 1.0);
        }
      in
      Func_tbl.add tbl fname e;
      e
  in
  let sys phase = List.map (fun s -> Trace.Sys s) (runtime_syscalls b.sanitizers phase) in
  (* One walk: rescale each Work op and, on the main body only ([top]),
     weave in the runtime's in-execution syscalls after every
     [metadata_syscall_interval] of factored, pre-jitter work.  Spawned and
     forked bodies are rescaled but not woven.  The main body ends on the
     exit marker and the post-exit phase, so nothing is appended to it. *)
  let extra = sys San.In_execution in
  let weaving = extra <> [] in
  let tail = Trace.Marker Trace.About_to_exit :: sys San.Post_exit in
  let acc = [| 0.0 |] in
  let[@tail_mod_cons] rec walk top = function
    | [] -> if top then tail else []
    | op :: rest -> (
      match op with
      | Trace.Work w when scaled || jittered ->
        let e = scale w.func in
        let c = if scaled then w.cost *. e.cf else w.cost in
        let op = Trace.Work { w with cost = (if jittered then c *. e.jf else c) } in
        if top && weaving then acc.(0) <- acc.(0) +. c;
        if top && weaving && acc.(0) >= metadata_syscall_interval then begin
          acc.(0) <- acc.(0) -. metadata_syscall_interval;
          op :: weave extra rest
        end
        else op :: walk top rest
      | Trace.Spawn sub ->
        let sub = walk false sub in
        Trace.Spawn sub :: walk top rest
      | Trace.Fork sub ->
        let sub = walk false sub in
        Trace.Fork sub :: walk top rest
      | Trace.Work _ | Trace.Idle _ | Trace.Sys _ | Trace.Sys_shared _ | Trace.Shared_read _
      | Trace.Lock _ | Trace.Unlock _ | Trace.Incr _ | Trace.Barrier _ | Trace.Marker _ ->
        op :: walk top rest)
  and[@tail_mod_cons] weave es rest =
    match es with [] -> walk true rest | e :: es -> e :: weave es rest
  in
  let trace = sys San.Pre_main @ (Trace.Marker Trace.Main_entered :: walk true body) in
  (trace, { fs_build = b; fs_tbl = tbl })

let build_trace b ~seed = fst (factor_trace b (generate b.prog ~seed))

let build_working_set b = b.prog.working_set *. San.group_ws_multiplier b.sanitizers

let build_ram_overhead b = San.group_ram_overhead b.sanitizers

(* The seed-0 workload's work per function and its total, generated the
   first time a sanitized build's overhead needs them. *)
type work_weights = ((string * float) list * float) Lazy.t

let work_weights prog =
  lazy
    (let weights = Trace.work_by_func (generate prog ~seed:0) in
     (weights, List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights))

let overhead_with ww b =
  (* Weight each function by its share of baseline work in the seed-0
     workload.  A baseline build's factors are all 1.0, so it has no
     overhead and no trace to generate. *)
  if b.sanitizers = [] then 0.0
  else begin
    let weights, total = Lazy.force ww in
    if total <= 0.0 then 0.0
    else begin
      let costs = costs_by_profile b.sanitizers in
      List.fold_left
        (fun acc (fname, w) -> acc +. (w /. total *. (factor_with costs b fname -. 1.0)))
        0.0 weights
    end
  end

let overhead_of_build b = overhead_with (work_weights b.prog) b
