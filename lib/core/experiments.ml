module M = Bunshin_machine.Machine
module San = Bunshin_sanitizer.Sanitizer
module Cost = Bunshin_sanitizer.Cost_model
module Program = Bunshin_program.Program
module Profile = Bunshin_profile.Profile
module Variant = Bunshin_variant.Variant
module Nxe = Bunshin_nxe.Nxe
module Bench = Bunshin_workloads.Bench
module Server = Bunshin_workloads.Server
module Load = Bunshin_workloads.Load
module Stats = Bunshin_util.Stats

let train_seed = 1
let ref_seed = 2

(* 4-core / 8-hardware-thread Xeon E5-1620 with a 10 MB shared LLC: running
   N program copies in parallel evicts each other's lines, the dominant
   component of the NXE's efficiency cost on CPU-bound programs. *)
let desktop = { M.default_config with cores = 8; llc_capacity = 10.0; miss_penalty = 0.28 }

(* 12-core Xeon E5-2658 with a shared LLC small enough that co-running
   variants evict each other — the Fig. 5 mechanism. *)
let server12 =
  { M.default_config with cores = 12; llc_capacity = 12.0; miss_penalty = 0.35 }

(* Diversified variants never run cycle-identical; a few percent of compute
   skew is what lockstep waits actually wait on. *)
let variant_jitter = 0.05

let solo_time ?(machine_config = desktop) build ~seed =
  (Profile.measure ~machine_config build ~seed).Profile.total_time

let nxe_run ?config ?(machine_config = desktop) ?on_machine ~seed builds =
  Nxe.run_builds ?config ~machine_config ?on_machine ~jitter:variant_jitter ~seed builds

(* ------------------------------------------------------------------ *)
(* §5.2 NXE efficiency: synchronize N identical baseline binaries. *)

type efficiency = { ef_bench : string; ef_strict : float; ef_selective : float }

let nxe_efficiency bench =
  let build = Program.baseline bench.Bench.prog in
  let solo = solo_time build ~seed:ref_seed in
  let builds = [ build; build; build ] in
  let time config = (nxe_run ~config ~seed:ref_seed builds).Nxe.total_time in
  {
    ef_bench = bench.Bench.name;
    ef_strict = Stats.overhead ~baseline:solo ~measured:(time Nxe.default_config);
    ef_selective = Stats.overhead ~baseline:solo ~measured:(time Nxe.selective);
  }

(* ------------------------------------------------------------------ *)
(* §5.2 server latency (Table 2). *)

type server_latency = { sl_base : float; sl_strict : float; sl_selective : float }

let server_requests ~file_kb = if file_kb >= 512 then 30 else 150

let server_latency kind ~file_kb ~connections =
  (* Table 2's metric is per-request processing time.  Server workers are
     mostly wire-bound (1 Gb/s link), so the right measure is the CPU the
     serving variant spends per request — for the NXE, the leader's CPU,
     which includes all its synchronization work. *)
  let requests = server_requests ~file_kb in
  let bench = Server.make kind ~file_kb ~connections ~requests in
  let build = Program.baseline bench.Bench.prog in
  let per cpu = cpu /. float_of_int requests in
  let solo_cpu =
    let m = M.create ~config:desktop () in
    let proc = Profile.exec_build m build ~seed:ref_seed in
    M.run m;
    M.proc_cpu_time m proc
  in
  let builds = [ build; build; build ] in
  let leader_cpu config =
    match (nxe_run ~config ~seed:ref_seed builds).Nxe.variant_cpu with
    | leader :: _ -> leader
    | [] -> 0.0
  in
  {
    sl_base = per solo_cpu;
    sl_strict = per (leader_cpu Nxe.default_config);
    sl_selective = per (leader_cpu Nxe.selective);
  }

(* ------------------------------------------------------------------ *)
(* §5.2 scalability (Figure 5). *)

let scalability bench =
  let build = Program.baseline bench.Bench.prog in
  let solo = solo_time ~machine_config:server12 build ~seed:ref_seed in
  List.map
    (fun n ->
      let builds = List.init n (fun _ -> build) in
      let r = nxe_run ~machine_config:server12 ~seed:ref_seed builds in
      (n, Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time))
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* Check distribution (§5.4 / Figure 6). *)

type distribution = {
  cd_bench : string;
  cd_full_overhead : float;
  cd_variant_overheads : float list;
  cd_bunshin_overhead : float;
}

let check_distribution ?(n = 3) ?(block_split = 1) bench =
  let prog = bench.Bench.prog in
  let sanitizer = San.asan in
  (* Figure 1 workflow: profile baseline and instrumented builds on the
     train workload, derive the overhead profile, partition, build. *)
  let base_build = Program.baseline prog in
  let full_build = Program.full [ sanitizer ] prog in
  let base_profile = Profile.measure ~machine_config:desktop base_build ~seed:train_seed in
  let full_profile = Profile.measure ~machine_config:desktop full_build ~seed:train_seed in
  let overhead_profile =
    Profile.overhead_by_func ~baseline:base_profile ~instrumented:full_profile
  in
  let plan = Variant.check_distribution ~n ~block_split ~sanitizer ~overhead_profile prog in
  let builds = Variant.builds plan in
  (* Measure on the ref workload. *)
  let solo = solo_time base_build ~seed:ref_seed in
  let full = solo_time full_build ~seed:ref_seed in
  let variant_overheads =
    List.map
      (fun b -> Stats.overhead ~baseline:solo ~measured:(solo_time b ~seed:ref_seed))
      builds
  in
  let r = nxe_run ~seed:ref_seed builds in
  {
    cd_bench = bench.Bench.name;
    cd_full_overhead = Stats.overhead ~baseline:solo ~measured:full;
    cd_variant_overheads = variant_overheads;
    cd_bunshin_overhead = Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time;
  }

(* ------------------------------------------------------------------ *)
(* Overhead attribution: where the group's time actually goes, and the
   max-dominates rule — under the NXE the group's slowdown tracks the
   slowest variant's solo overhead (lockstep converts skew into wait, not
   into extra work), never the sum of all variants' overheads. *)

let attribution_run ?(config = Nxe.default_config) ?(workload = "") ~seed builds =
  let collector = Profile.Collector.create (List.length builds) in
  if workload <> "" then Profile.Collector.set_workload collector workload;
  let report =
    Nxe.run_builds ~config ~machine_config:desktop ~profile:collector ~jitter:variant_jitter
      ~seed builds
  in
  (Profile.attribution collector, report)

type overhead_attribution = {
  oa_workload : string;
  oa_n : int;
  oa_attr : Profile.attribution;
  oa_report : Nxe.report;
  oa_solo_overheads : float list; (* each variant solo vs clean baseline *)
  oa_group_overhead : float;      (* the N-variant group vs clean baseline *)
  oa_max_solo : float;
  oa_sum_solo : float;
  oa_max_tracks_group : bool;     (* group closer to max than to sum *)
}

let overhead_attribution ?(n = 3) ?(config = Nxe.default_config) bench =
  let prog = bench.Bench.prog in
  (* Same Figure-1 workflow as check_distribution: train-profile, derive
     the overhead profile, partition checks across n variants. *)
  let base_build = Program.baseline prog in
  let full_build = Program.full [ San.asan ] prog in
  let base_profile = Profile.measure ~machine_config:desktop base_build ~seed:train_seed in
  let full_profile = Profile.measure ~machine_config:desktop full_build ~seed:train_seed in
  let overhead_profile =
    Profile.overhead_by_func ~baseline:base_profile ~instrumented:full_profile
  in
  let plan = Variant.check_distribution ~n ~sanitizer:San.asan ~overhead_profile prog in
  let builds = Variant.builds plan in
  let solo = solo_time base_build ~seed:ref_seed in
  let solo_overheads =
    List.map
      (fun b -> Stats.overhead ~baseline:solo ~measured:(solo_time b ~seed:ref_seed))
      builds
  in
  let attr, report =
    attribution_run ~config ~workload:bench.Bench.name ~seed:ref_seed builds
  in
  let group = Stats.overhead ~baseline:solo ~measured:report.Nxe.total_time in
  let max_solo = List.fold_left Float.max 0.0 solo_overheads in
  let sum_solo = List.fold_left ( +. ) 0.0 solo_overheads in
  {
    oa_workload = bench.Bench.name;
    oa_n = n;
    oa_attr = attr;
    oa_report = report;
    oa_solo_overheads = solo_overheads;
    oa_group_overhead = group;
    oa_max_solo = max_solo;
    oa_sum_solo = sum_solo;
    oa_max_tracks_group = Float.abs (group -. max_solo) <= Float.abs (group -. sum_solo);
  }

(* ------------------------------------------------------------------ *)
(* Sanitizer distribution on UBSan (§5.5 / Figure 7). *)

let ubsan_distribution ?(n = 3) bench =
  let prog = bench.Bench.prog in
  (* Profile each sub-sanitizer individually (no instrumentation pass
     needed, §4.1), then distribute the units. *)
  let base_build = Program.baseline prog in
  let base = solo_time base_build ~seed:train_seed in
  let units =
    List.map
      (fun sub ->
        let t = solo_time (Program.full [ sub ] prog) ~seed:train_seed in
        ([ sub ], Stats.overhead ~baseline:base ~measured:t))
      San.ubsan_subs
  in
  let plan =
    match Variant.sanitizer_distribution ~n ~units prog with
    | Ok plan -> plan
    | Error e -> invalid_arg ("Experiments.ubsan_distribution: " ^ e)
  in
  let builds = Variant.builds plan in
  let solo = solo_time base_build ~seed:ref_seed in
  let full = solo_time (Program.full San.ubsan_subs prog) ~seed:ref_seed in
  let variant_overheads =
    List.map
      (fun b -> Stats.overhead ~baseline:solo ~measured:(solo_time b ~seed:ref_seed))
      builds
  in
  let r = nxe_run ~seed:ref_seed builds in
  {
    cd_bench = bench.Bench.name;
    cd_full_overhead = Stats.overhead ~baseline:solo ~measured:full;
    cd_variant_overheads = variant_overheads;
    cd_bunshin_overhead = Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time;
  }

(* ------------------------------------------------------------------ *)
(* Unifying ASan, MSan, UBSan (§5.6 / Figure 8). *)

type unify = {
  un_bench : string;
  un_asan : float;
  un_msan : float;
  un_ubsan : float;
  un_bunshin : float;
  un_extra_over_max : float;
}

let unify_sanitizers bench =
  if not bench.Bench.msan_compatible then None
  else begin
    let prog = bench.Bench.prog in
    let solo = solo_time (Program.baseline prog) ~seed:ref_seed in
    let builds =
      [
        Program.full [ San.asan ] prog;
        Program.full [ San.msan ] prog;
        Program.full San.ubsan_subs prog;
      ]
    in
    let times = List.map (fun b -> solo_time b ~seed:ref_seed) builds in
    let ohs = List.map (fun t -> Stats.overhead ~baseline:solo ~measured:t) times in
    let r = nxe_run ~seed:ref_seed builds in
    let bunshin = Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time in
    match ohs with
    | [ a; m; u ] ->
      Some
        {
          un_bench = bench.Bench.name;
          un_asan = a;
          un_msan = m;
          un_ubsan = u;
          un_bunshin = bunshin;
          un_extra_over_max = bunshin -. Stats.maximum ohs;
        }
    | _ -> None
  end

(* ------------------------------------------------------------------ *)
(* §5.3 syscall gap in selective mode, 2-variant ASan distribution. *)

let syscall_gap bench =
  let prog = bench.Bench.prog in
  let base_build = Program.baseline prog in
  let full_build = Program.full [ San.asan ] prog in
  let bp = Profile.measure ~machine_config:desktop base_build ~seed:train_seed in
  let fp = Profile.measure ~machine_config:desktop full_build ~seed:train_seed in
  let overhead_profile = Profile.overhead_by_func ~baseline:bp ~instrumented:fp in
  let plan = Variant.check_distribution ~n:2 ~sanitizer:San.asan ~overhead_profile prog in
  let r = nxe_run ~config:Nxe.selective ~seed:ref_seed (Variant.builds plan) in
  r.Nxe.avg_syscall_gap

(* ------------------------------------------------------------------ *)
(* §5.7 background load (Figure 9) and single core. *)

let loaded_config = desktop

let load_sensitivity bench =
  let build = Program.baseline bench.Bench.prog in
  let attach level m = Load.spawn_background m ~level ~tasks:8 ~working_set:0.8 () in
  let solo_under level =
    let m = M.create ~config:loaded_config () in
    attach level m;
    ignore (Profile.exec_build m build ~seed:ref_seed);
    M.run m;
    (M.stats m).M.total_time
  in
  List.map
    (fun level ->
      let solo = solo_under level in
      let r =
        nxe_run ~machine_config:loaded_config ~on_machine:(attach level) ~seed:ref_seed
          [ build; build ]
      in
      (level, Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time))
    [ 0.02; 0.5; 0.99 ]

type asap_comparison = {
  ac_bench : string;
  ac_budget : float;
  ac_asap_overhead : float;
  ac_asap_coverage : float;
  ac_bunshin_overhead : float;
  ac_bunshin_coverage : float;
}

let asap_comparison bench =
  let budget = 0.5 in
  let prog = bench.Bench.prog in
  let base_build = Program.baseline prog in
  let full_build = Program.full [ San.asan ] prog in
  let bp = Profile.measure ~machine_config:desktop base_build ~seed:train_seed in
  let fp = Profile.measure ~machine_config:desktop full_build ~seed:train_seed in
  let oh_profile = Profile.overhead_by_func ~baseline:bp ~instrumented:fp in
  (* ASAP: prune to the budget, run the single binary. *)
  let kept = Bunshin_variant.Asap.keep_set ~budget ~overhead_profile:oh_profile in
  let asap_build = Program.variant [ San.asan ] ~checked:kept prog in
  let solo = solo_time base_build ~seed:ref_seed in
  let asap_time = solo_time asap_build ~seed:ref_seed in
  (* Bunshin: distribute everything over 2 variants. *)
  let plan =
    Variant.check_distribution ~n:2 ~sanitizer:San.asan ~overhead_profile:oh_profile prog
  in
  let r = nxe_run ~seed:ref_seed (Variant.builds plan) in
  let nfuncs = List.length prog.Program.funcs in
  {
    ac_bench = bench.Bench.name;
    ac_budget = budget;
    ac_asap_overhead = Stats.overhead ~baseline:solo ~measured:asap_time;
    ac_asap_coverage = float_of_int (List.length kept) /. float_of_int nfuncs;
    ac_bunshin_overhead = Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time;
    ac_bunshin_coverage = 1.0;
  }

let robustness () =
  let benches =
    Bunshin_workloads.Spec.all
    @ Bunshin_workloads.Multithreaded.supported
    @ [
        Server.make Server.Lighttpd ~file_kb:1 ~connections:64 ~requests:100;
        Server.make Server.Nginx ~file_kb:1 ~connections:64 ~requests:100;
      ]
  in
  List.map
    (fun b ->
      let build = Program.baseline b.Bench.prog in
      match nxe_run ~seed:ref_seed [ build; build; build ] with
      | r -> (b.Bench.name, r.Nxe.outcome = `All_finished)
      | exception M.Deadlock _ ->
        (* A racy program can wedge the synchronized group outright. *)
        (b.Bench.name, false))
    benches

(* The 5.1 exclusions, demonstrated: running an unsupported PARSEC member
   under the engine ends in a false alert (or a wedged group), because its
   data races make syscall arguments schedule-dependent. *)
let unsupported_demo () =
  let racy =
    List.filter (fun b -> not b.Bench.nxe_supported) Bunshin_workloads.Multithreaded.parsec
  in
  List.filter_map
    (fun b ->
      (* raytrace/freqmine do not even build/run under the toolchain; only
         the runnable-but-racy members demonstrate divergence. *)
      if b.Bench.name = "raytrace" || b.Bench.name = "freqmine" then None
      else
        let build = Program.baseline b.Bench.prog in
        let problem =
          match nxe_run ~seed:ref_seed [ build; build; build ] with
          | r -> r.Nxe.outcome <> `All_finished
          | exception M.Deadlock _ -> true
        in
        Some (b.Bench.name, problem))
    racy

let single_core_overhead bench =
  let build = Program.baseline bench.Bench.prog in
  let one_core = { desktop with cores = 1 } in
  let solo = solo_time ~machine_config:one_core build ~seed:ref_seed in
  let r = nxe_run ~machine_config:one_core ~seed:ref_seed [ build; build ] in
  Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time

(* ------------------------------------------------------------------ *)
(* High-throughput serving: an IR-backed request source with the
   variants compiled ONCE and shared by every pool group *)

module Serve = Bunshin_serve.Serve
module Ast = Bunshin_ir.Ast
module Builder = Bunshin_ir.Builder
module Interp = Bunshin_ir.Interp
module Bridge = Bunshin_attack.Bridge

(* A small request handler in the IR: hash the request id through a
   chain of arithmetic (the "application logic") between an input and an
   output syscall, so every request is a distinct syscall stream. *)
let serve_ir_kernel () =
  let b = Builder.create "serve_kernel" in
  Builder.start_func b ~name:"main" ~params:[ "rid" ];
  Builder.call_void b "print" [ Ast.Reg "rid" ];
  let v = ref (Ast.Reg "rid") in
  for _ = 1 to 24 do
    v := Builder.mul b !v (Builder.cst 2654435761);
    v := Builder.add b !v (Builder.cst 12345)
  done;
  Builder.call_void b "print" [ !v ];
  Builder.ret b (Some !v);
  Builder.finish b

let serve_ir_source ?(n = 3) () =
  if n < 1 then invalid_arg "Experiments.serve_ir_source: n must be >= 1";
  let modul = serve_ir_kernel () in
  let compiles = ref 0 in
  (* Precompile each variant here, once; the source closure only ever
     REUSES [compiled] — the counter stays at n no matter how many
     requests or groups the pool runs. *)
  let compiled =
    List.init n (fun _ ->
        incr compiles;
        Interp.compile modul)
  in
  let names = List.init n (fun i -> Printf.sprintf "ir-v%d" i) in
  let src =
    {
      Serve.src_names = names;
      src_request =
        (fun ~req_id ->
          List.map
            (fun pm ->
              Bridge.trace_of_run
                (Interp.run_compiled pm ~entry:"main" ~args:[ Int64.of_int req_id ]))
            compiled);
    }
  in
  (src, compiles)
