module Rng = Bunshin_util.Rng
module Cost = Bunshin_sanitizer.Cost_model
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program

(* Per-benchmark calibration: instruction mix, heap churn, hotness
   concentration and working set.  These are the knobs that reproduce the
   evaluation's per-benchmark spread; they are stylized, not measured. *)
type row = {
  r_name : string;
  r_suite : Bench.suite;
  r_mem : float;      (* memory-access density *)
  r_arith : float;    (* integer/fp arithmetic density *)
  r_ptr : float;
  r_branch : float;
  r_alloc : float;    (* allocations per kilo-instruction *)
  r_funcs : int;
  r_hot : float;      (* share of time in the hottest function *)
  r_ws : float;       (* working set, cache-model units (~MB) *)
  r_units : int;
  r_unit_cost : float;
  r_sys_every : int;
  r_msan : bool;
}

let rows =
  let int_ = Bench.Spec_int and fp = Bench.Spec_fp in
  [
    { r_name = "perlbench"; r_suite = int_; r_mem = 0.28; r_arith = 0.28; r_ptr = 0.18;
      r_branch = 0.22; r_alloc = 8.0; r_funcs = 90; r_hot = 0.15; r_ws = 4.0;
      r_units = 1200; r_unit_cost = 25.0; r_sys_every = 48; r_msan = true };
    { r_name = "bzip2"; r_suite = int_; r_mem = 0.42; r_arith = 0.35; r_ptr = 0.08;
      r_branch = 0.12; r_alloc = 0.5; r_funcs = 30; r_hot = 0.25; r_ws = 3.0;
      r_units = 1040; r_unit_cost = 27.5; r_sys_every = 56; r_msan = true };
    { r_name = "gcc"; r_suite = int_; r_mem = 0.28; r_arith = 0.24; r_ptr = 0.22;
      r_branch = 0.24; r_alloc = 10.0; r_funcs = 120; r_hot = 0.12; r_ws = 6.0;
      r_units = 1360; r_unit_cost = 23.8; r_sys_every = 40; r_msan = false };
    { r_name = "mcf"; r_suite = int_; r_mem = 0.58; r_arith = 0.18; r_ptr = 0.14;
      r_branch = 0.06; r_alloc = 0.8; r_funcs = 24; r_hot = 0.30; r_ws = 9.0;
      r_units = 960; r_unit_cost = 30.0; r_sys_every = 72; r_msan = true };
    { r_name = "gobmk"; r_suite = int_; r_mem = 0.25; r_arith = 0.30; r_ptr = 0.13;
      r_branch = 0.30; r_alloc = 1.5; r_funcs = 80; r_hot = 0.15; r_ws = 3.0;
      r_units = 1120; r_unit_cost = 25.0; r_sys_every = 48; r_msan = true };
    { r_name = "hmmer"; r_suite = int_; r_mem = 0.52; r_arith = 0.35; r_ptr = 0.07;
      r_branch = 0.06; r_alloc = 0.6; r_funcs = 24; r_hot = 0.97; r_ws = 3.0;
      r_units = 1000; r_unit_cost = 28.8; r_sys_every = 64; r_msan = true };
    { r_name = "sjeng"; r_suite = int_; r_mem = 0.27; r_arith = 0.30; r_ptr = 0.13;
      r_branch = 0.28; r_alloc = 0.4; r_funcs = 45; r_hot = 0.20; r_ws = 2.0;
      r_units = 1080; r_unit_cost = 26.2; r_sys_every = 56; r_msan = true };
    { r_name = "libquantum"; r_suite = int_; r_mem = 0.46; r_arith = 0.45; r_ptr = 0.05;
      r_branch = 0.04; r_alloc = 0.5; r_funcs = 28; r_hot = 0.35; r_ws = 4.0;
      r_units = 920; r_unit_cost = 30.0; r_sys_every = 72; r_msan = true };
    { r_name = "h264ref"; r_suite = int_; r_mem = 0.42; r_arith = 0.38; r_ptr = 0.10;
      r_branch = 0.10; r_alloc = 1.2; r_funcs = 60; r_hot = 0.25; r_ws = 4.0;
      r_units = 1240; r_unit_cost = 25.0; r_sys_every = 48; r_msan = true };
    { r_name = "omnetpp"; r_suite = int_; r_mem = 0.33; r_arith = 0.22; r_ptr = 0.22;
      r_branch = 0.23; r_alloc = 9.0; r_funcs = 75; r_hot = 0.15; r_ws = 7.0;
      r_units = 1160; r_unit_cost = 25.0; r_sys_every = 48; r_msan = true };
    { r_name = "astar"; r_suite = int_; r_mem = 0.40; r_arith = 0.28; r_ptr = 0.18;
      r_branch = 0.14; r_alloc = 2.0; r_funcs = 32; r_hot = 0.25; r_ws = 5.0;
      r_units = 1000; r_unit_cost = 27.5; r_sys_every = 60; r_msan = true };
    { r_name = "xalancbmk"; r_suite = int_; r_mem = 0.45; r_arith = 0.60; r_ptr = 0.20;
      r_branch = 0.18; r_alloc = 8.0; r_funcs = 110; r_hot = 0.10; r_ws = 7.0;
      r_units = 1320; r_unit_cost = 23.8; r_sys_every = 44; r_msan = true };
    { r_name = "milc"; r_suite = fp; r_mem = 0.46; r_arith = 0.50; r_ptr = 0.06;
      r_branch = 0.05; r_alloc = 0.7; r_funcs = 40; r_hot = 0.30; r_ws = 7.0;
      r_units = 960; r_unit_cost = 28.8; r_sys_every = 64; r_msan = true };
    { r_name = "namd"; r_suite = fp; r_mem = 0.32; r_arith = 0.55; r_ptr = 0.06;
      r_branch = 0.06; r_alloc = 0.4; r_funcs = 35; r_hot = 0.30; r_ws = 4.0;
      r_units = 1040; r_unit_cost = 27.5; r_sys_every = 64; r_msan = true };
    { r_name = "dealII"; r_suite = fp; r_mem = 0.45; r_arith = 0.75; r_ptr = 0.12;
      r_branch = 0.10; r_alloc = 6.0; r_funcs = 95; r_hot = 0.15; r_ws = 6.0;
      r_units = 1200; r_unit_cost = 25.0; r_sys_every = 48; r_msan = true };
    { r_name = "soplex"; r_suite = fp; r_mem = 0.40; r_arith = 0.50; r_ptr = 0.10;
      r_branch = 0.08; r_alloc = 2.5; r_funcs = 55; r_hot = 0.20; r_ws = 5.0;
      r_units = 1080; r_unit_cost = 26.2; r_sys_every = 56; r_msan = true };
    { r_name = "povray"; r_suite = fp; r_mem = 0.27; r_arith = 0.50; r_ptr = 0.12;
      r_branch = 0.14; r_alloc = 4.0; r_funcs = 70; r_hot = 0.18; r_ws = 2.0;
      r_units = 1160; r_unit_cost = 25.0; r_sys_every = 52; r_msan = true };
    { r_name = "lbm"; r_suite = fp; r_mem = 0.62; r_arith = 0.30; r_ptr = 0.04;
      r_branch = 0.03; r_alloc = 0.2; r_funcs = 12; r_hot = 0.98; r_ws = 8.0;
      r_units = 880; r_unit_cost = 32.5; r_sys_every = 80; r_msan = true };
    { r_name = "sphinx3"; r_suite = fp; r_mem = 0.44; r_arith = 0.45; r_ptr = 0.08;
      r_branch = 0.08; r_alloc = 1.5; r_funcs = 48; r_hot = 0.25; r_ws = 5.0;
      r_units = 1040; r_unit_cost = 26.2; r_sys_every = 56; r_msan = true };
  ]

let profile_of_row r =
  {
    Cost.mem_op_density = r.r_mem;
    arith_density = r.r_arith;
    ptr_density = r.r_ptr;
    branch_density = r.r_branch;
    alloc_intensity = r.r_alloc;
  }

(* Hotness: the hottest function takes [r_hot]; the rest decay
   geometrically. *)
let func_weights r =
  let n = r.r_funcs in
  let rest = 1.0 -. r.r_hot in
  let ratio = 0.92 in
  let raw = List.init (n - 1) (fun i -> ratio ** float_of_int i) in
  let total = List.fold_left ( +. ) 0.0 raw in
  (Printf.sprintf "%s_hot" r.r_name, r.r_hot)
  :: List.mapi (fun i w -> (Printf.sprintf "%s_f%d" r.r_name i, rest *. w /. total)) raw

let bench_of_row r =
  let weights = func_weights r in
  let profile = profile_of_row r in
  let funcs =
    List.map (fun (name, _) -> { Program.fn_name = name; fn_profile = profile }) weights
  in
  let prog =
    {
      Program.name = r.r_name;
      funcs;
      working_set = r.r_ws;
      gen_trace =
        (fun rng ->
          Bench.cpu_trace ~funcs:weights ~units:r.r_units ~unit_cost:r.r_unit_cost
            ~syscall_every:r.r_sys_every rng);
    }
  in
  {
    Bench.name = r.r_name;
    suite = r.r_suite;
    threads = 1;
    prog;
    msan_compatible = r.r_msan;
    nxe_supported = true;
    unsupported_reason = None;
  }

let all = List.map bench_of_row rows

let names = List.map (fun b -> b.Bench.name) all

let find name =
  match List.find_opt (fun b -> b.Bench.name = name) all with
  | Some b -> b
  | None -> raise Not_found
