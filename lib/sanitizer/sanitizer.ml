module Sc = Bunshin_syscall.Syscall

type id =
  | Asan
  | Msan
  | Ubsan_sub of string
  | Softbound
  | Cets
  | Cpi
  | Cfi
  | Safecode
  | Stack_cookie

type region = Shadow_low | Shadow_high | Metadata_table | Safe_region | No_region

type phase = Pre_main | In_execution | Post_exit

type t = {
  id : id;
  sname : string;
  family : string;
  detects : Memory_error.t -> bool;
  protects_control_flow : bool;
  region : region;
  cost : Cost_model.t;
}

let name t = t.sname
let pp fmt t = Format.pp_print_string fmt t.sname

let conflict a b =
  (* Exclusive claims on the low address region are the modelled conflict:
     ASan reserves low memory as shadow while MSan makes it an inaccessible
     protected area. Metadata tables and safe regions are relocatable. *)
  a.id <> b.id && a.region = Shadow_low && b.region = Shadow_low

let collectively_enforceable sans =
  let rec pairwise = function
    | [] -> true
    | s :: rest -> List.for_all (fun s' -> not (conflict s s')) rest && pairwise rest
  in
  pairwise sans

let detects t e = t.detects e

(* ------------------------------------------------------------------ *)
(* Introduced syscalls (§3.3): pre-launch data collection, in-execution
   memory management, post-exit report generation. *)

let proc_self_scan =
  [ Sc.make "openat"; Sc.read (); Sc.read (); Sc.read (); Sc.close () ]

let shadow_setup = [ Sc.mmap (); Sc.mmap (); Sc.make "mprotect" ]

let report_write = [ Sc.write (); Sc.write () ]

let heavy_runtime_syscalls = function
  | Pre_main -> proc_self_scan @ shadow_setup
  | In_execution -> [ Sc.mmap (); Sc.munmap () ]
  | Post_exit -> report_write

let light_runtime_syscalls = function
  | Pre_main -> []
  | In_execution -> []
  | Post_exit -> [ Sc.write () ]

let introduced_syscalls t phase =
  match t.id with
  | Asan | Msan | Softbound | Cets -> heavy_runtime_syscalls phase
  | Ubsan_sub _ | Cpi | Cfi | Safecode | Stack_cookie -> light_runtime_syscalls phase

(* ------------------------------------------------------------------ *)
(* The mechanisms *)

let dominant_error_classes_asan = function
  | Memory_error.Out_of_bounds_write | Memory_error.Out_of_bounds_read
  | Memory_error.Use_after_free | Memory_error.Double_free -> true
  | Memory_error.Uninitialized_read | Memory_error.Undefined _ -> false

let asan =
  {
    id = Asan;
    sname = "ASan";
    family = "asan";
    detects = dominant_error_classes_asan;
    protects_control_flow = false;
    region = Shadow_low;
    cost =
      {
        Cost_model.check_cost = (fun p -> 2.7 *. p.Cost_model.mem_op_density);
        residual_cost = (fun p -> 0.04 +. (0.015 *. p.Cost_model.alloc_intensity));
        ws_multiplier = 1.3;
        ram_overhead = 2.0;
      };
  }

let msan =
  {
    id = Msan;
    sname = "MSan";
    family = "msan";
    detects =
      (function
       | Memory_error.Uninitialized_read -> true
       | Memory_error.Out_of_bounds_write | Memory_error.Out_of_bounds_read
       | Memory_error.Use_after_free | Memory_error.Double_free
       | Memory_error.Undefined _ -> false);
    protects_control_flow = false;
    region = Shadow_low;
    cost =
      {
        Cost_model.check_cost =
          (fun p -> (2.2 *. p.Cost_model.mem_op_density) +. (1.7 *. p.Cost_model.arith_density));
        residual_cost = (fun _ -> 0.10);
        ws_multiplier = 1.25;
        ram_overhead = 1.2;
      };
  }

let softbound =
  {
    id = Softbound;
    sname = "SoftBound";
    family = "softbound-cets";
    detects =
      (function
       | Memory_error.Out_of_bounds_write | Memory_error.Out_of_bounds_read -> true
       | Memory_error.Use_after_free | Memory_error.Double_free
       | Memory_error.Uninitialized_read | Memory_error.Undefined _ -> false);
    protects_control_flow = false;
    region = Metadata_table;
    cost =
      {
        Cost_model.check_cost =
          (fun p -> (1.2 *. p.Cost_model.mem_op_density) +. (1.4 *. p.Cost_model.ptr_density));
        residual_cost = (fun _ -> 0.06);
        ws_multiplier = 1.2;
        ram_overhead = 0.6;
      };
  }

let cets =
  {
    id = Cets;
    sname = "CETS";
    family = "softbound-cets";
    detects =
      (function
       | Memory_error.Use_after_free | Memory_error.Double_free -> true
       | Memory_error.Out_of_bounds_write | Memory_error.Out_of_bounds_read
       | Memory_error.Uninitialized_read | Memory_error.Undefined _ -> false);
    protects_control_flow = false;
    region = Metadata_table;
    cost =
      {
        Cost_model.check_cost =
          (fun p -> (0.7 *. p.Cost_model.mem_op_density) +. (0.9 *. p.Cost_model.ptr_density));
        residual_cost = (fun p -> 0.03 +. (0.008 *. p.Cost_model.alloc_intensity));
        ws_multiplier = 1.15;
        ram_overhead = 0.4;
      };
  }

let cpi =
  {
    id = Cpi;
    sname = "CPI";
    family = "cpi";
    detects = (fun _ -> false);
    protects_control_flow = true;
    region = Safe_region;
    cost =
      {
        Cost_model.check_cost = (fun p -> 0.5 *. p.Cost_model.ptr_density);
        residual_cost = (fun _ -> 0.01);
        ws_multiplier = 1.05;
        ram_overhead = 0.05;
      };
  }

let cfi =
  {
    id = Cfi;
    sname = "CFI";
    family = "cfi";
    detects = (fun _ -> false);
    protects_control_flow = true;
    region = No_region;
    cost =
      {
        Cost_model.check_cost = (fun p -> 0.3 *. p.Cost_model.ptr_density);
        residual_cost = (fun _ -> 0.005);
        ws_multiplier = 1.0;
        ram_overhead = 0.02;
      };
  }

let safecode =
  {
    id = Safecode;
    sname = "SAFECode";
    family = "safecode";
    detects =
      (function
       | Memory_error.Out_of_bounds_write | Memory_error.Out_of_bounds_read -> true
       | Memory_error.Use_after_free | Memory_error.Double_free
       | Memory_error.Uninitialized_read | Memory_error.Undefined _ -> false);
    protects_control_flow = false;
    region = Metadata_table;
    cost =
      {
        Cost_model.check_cost = (fun p -> 1.5 *. p.Cost_model.mem_op_density);
        residual_cost = (fun _ -> 0.05);
        ws_multiplier = 1.2;
        ram_overhead = 0.5;
      };
  }

let stack_cookie =
  {
    id = Stack_cookie;
    sname = "stack-cookie";
    family = "stack-cookie";
    detects =
      (function
       | Memory_error.Out_of_bounds_write -> true
       | Memory_error.Out_of_bounds_read | Memory_error.Use_after_free
       | Memory_error.Double_free | Memory_error.Uninitialized_read
       | Memory_error.Undefined _ -> false);
    protects_control_flow = true;
    region = No_region;
    cost =
      {
        Cost_model.check_cost = (fun p -> 0.05 *. p.Cost_model.branch_density);
        residual_cost = (fun _ -> 0.002);
        ws_multiplier = 1.0;
        ram_overhead = 0.0;
      };
  }

(* ------------------------------------------------------------------ *)
(* UBSan sub-sanitizers.

   Weights are total overhead at the typical profile; each is <= 40% and
   individually enforcing all of them sums to ~268%, while the combined
   build shares one metadata/reporting residual and lands at ~228% —
   the O_synergy gain of the appendix. *)

type driver = Arith | Mem | Ptrs | Branch

let ubsan_table : (string * float * driver * (Memory_error.t -> bool)) list =
  let ub u = function Memory_error.Undefined u' -> u = u' | _ -> false in
  let never _ = false in
  let oob = function
    | Memory_error.Out_of_bounds_read | Memory_error.Out_of_bounds_write -> true
    | _ -> false
  in
  [
    ("signed-integer-overflow", 0.40, Arith, ub Memory_error.Signed_overflow);
    ("bounds", 0.35, Mem, oob);
    ("object-size", 0.30, Mem, oob);
    ("shift", 0.25, Arith, ub Memory_error.Shift_out_of_range);
    ("null", 0.20, Mem, ub Memory_error.Null_dereference);
    ("pointer-overflow", 0.20, Ptrs, never);
    ("vptr", 0.15, Mem, never);
    ("integer-divide-by-zero", 0.12, Arith, ub Memory_error.Div_by_zero);
    ("float-cast-overflow", 0.12, Arith, never);
    ("alignment", 0.10, Mem, ub Memory_error.Pointer_misalignment);
    ("enum", 0.08, Arith, never);
    ("bool", 0.07, Arith, ub Memory_error.Invalid_bool);
    ("function", 0.07, Ptrs, never);
    ("vla-bound", 0.06, Branch, never);
    ("return", 0.05, Branch, never);
    ("nonnull-attribute", 0.05, Ptrs, never);
    ("builtin", 0.04, Branch, never);
    ("float-divide-by-zero", 0.04, Arith, ub Memory_error.Div_by_zero);
    ("unreachable", 0.03, Branch, ub Memory_error.Unreachable_reached);
  ]

let ubsan_shared_residual = 0.022

let driver_value d (p : Cost_model.code_profile) =
  match d with
  | Arith -> p.Cost_model.arith_density
  | Mem -> p.Cost_model.mem_op_density
  | Ptrs -> p.Cost_model.ptr_density
  | Branch -> p.Cost_model.branch_density

let make_ubsan_sub (nm, weight, drv, det) =
  let base = driver_value drv Cost_model.typical_profile in
  {
    id = Ubsan_sub nm;
    sname = "ubsan:" ^ nm;
    family = "ubsan";
    detects = det;
    protects_control_flow = false;
    region = No_region;
    cost =
      {
        Cost_model.check_cost =
          (fun p -> (weight -. ubsan_shared_residual) *. (driver_value drv p /. base));
        residual_cost = (fun _ -> ubsan_shared_residual);
        ws_multiplier = 1.02;
        ram_overhead = 0.05;
      };
  }

let ubsan_subs = List.map make_ubsan_sub ubsan_table
let find_ubsan_sub n = List.find_opt (fun s -> s.id = Ubsan_sub n) ubsan_subs

let all = [ asan; msan; softbound; cets; cpi; cfi; safecode; stack_cookie ] @ ubsan_subs

(* ------------------------------------------------------------------ *)
(* Group costs *)

let group_check_cost sans profile =
  List.fold_left (fun acc s -> acc +. s.cost.Cost_model.check_cost profile) 0.0 sans

(* Residuals are shared within a family: members of one family pay the
   maximum residual once; distinct families add up. *)
let by_family sans worth =
  let families = List.sort_uniq compare (List.map (fun s -> s.family) sans) in
  List.fold_left
    (fun acc fam ->
      let members = List.filter (fun s -> s.family = fam) sans in
      let worst = List.fold_left (fun m s -> Float.max m (worth s)) 0.0 members in
      acc +. worst)
    0.0 families

let group_residual sans profile = by_family sans (fun s -> s.cost.Cost_model.residual_cost profile)

let group_cost sans profile = group_check_cost sans profile +. group_residual sans profile

(* RAM is additive across enforced mechanisms: each sub-sanitizer's
   metadata occupies its own space (§5.7: "the memory overhead of each
   variant is the sum of all enforced sub-sanitizers' overhead"). *)
let group_ram_overhead sans =
  List.fold_left (fun acc s -> acc +. s.cost.Cost_model.ram_overhead) 0.0 sans

let group_ws_multiplier sans =
  let families = List.sort_uniq compare (List.map (fun s -> s.family) sans) in
  List.fold_left
    (fun acc fam ->
      let members = List.filter (fun s -> s.family = fam) sans in
      let worst =
        List.fold_left (fun m s -> Float.max m s.cost.Cost_model.ws_multiplier) 1.0 members
      in
      acc *. worst)
    1.0 families

let coverage_row err =
  List.filter_map (fun s -> if s.detects err then Some s.sname else None)
    [ softbound; asan; cets; msan; safecode; stack_cookie ]
  @ List.filter_map
      (fun s -> if s.detects err then Some s.sname else None)
      ubsan_subs
