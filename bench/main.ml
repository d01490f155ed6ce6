(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5).  Each section prints the measured series next to the
   numbers the paper reports, so the shape comparison is immediate.

   Usage:
     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig6            # one section
     dune exec bench/main.exe -- list            # section names
     dune exec bench/main.exe -- interp --quick  # fast smoke of the
                                                 # interpreter microbench
     dune exec bench/main.exe -- diff nxe        # one perf gate, in its
                                                 # baseline's mode
     dune exec bench/main.exe -- gates           # every perf gate, each in
                                                 # its baseline's mode *)

open Bunshin
module E = Experiments

let pct = Stats.pct
let pct_opt = function Some v -> pct v | None -> "-"
let section title = Printf.printf "\n=== %s ===\n\n%!" title

(* ------------------------------------------------------------------ *)
(* Table 1: memory-error taxonomy and defenses *)

let table1 () =
  section "Table 1: taxonomy of memory errors and modelled defenses";
  let t =
    Table.create
      [ ("Memory error", Table.Left); ("Main causes", Table.Left); ("Defenses", Table.Left) ]
  in
  let rows =
    [
      Memory_error.Out_of_bounds_write;
      Memory_error.Use_after_free;
      Memory_error.Uninitialized_read;
      Memory_error.Undefined Memory_error.Div_by_zero;
    ]
  in
  List.iter
    (fun err ->
      Table.add_row t
        [
          Memory_error.name err;
          String.concat ", " (Memory_error.main_causes err);
          String.concat ", " (Sanitizer.coverage_row err);
        ])
    rows;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figures 3 & 4: NXE efficiency *)

let fig3 () =
  section "Figure 3: NXE efficiency on SPEC2006 (3 identical variants)";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("strict", Table.Right); ("selective", Table.Right) ]
  in
  let results = List.map (fun b -> E.nxe_efficiency b) Spec.all in
  List.iter
    (fun r -> Table.add_row t [ r.E.ef_bench; pct r.E.ef_strict; pct r.E.ef_selective ])
    results;
  Table.add_sep t;
  let avg f = Stats.mean (List.map f results) in
  Table.add_row t
    [ "average"; pct (avg (fun r -> r.E.ef_strict)); pct (avg (fun r -> r.E.ef_selective)) ];
  Table.add_row t [ "paper avg"; "8.1%"; "5.3%" ];
  Table.print t

let fig4 () =
  section "Figure 4: NXE efficiency on SPLASH-2x and PARSEC (4 threads)";
  let t =
    Table.create
      [
        ("benchmark", Table.Left); ("suite", Table.Left); ("strict", Table.Right);
        ("selective", Table.Right);
      ]
  in
  let results = List.map (fun b -> (b, E.nxe_efficiency b)) Multithreaded.supported in
  List.iter
    (fun (b, r) ->
      Table.add_row t
        [ r.E.ef_bench; Bench.suite_name b.Bench.suite; pct r.E.ef_strict;
          pct r.E.ef_selective ])
    results;
  Table.add_sep t;
  let avg f = Stats.mean (List.map (fun (_, r) -> f r) results) in
  Table.add_row t
    [ "average"; "-"; pct (avg (fun r -> r.E.ef_strict)); pct (avg (fun r -> r.E.ef_selective)) ];
  Table.add_row t [ "paper avg"; "-"; "15.7%"; "13.8%" ];
  Table.print t;
  Printf.printf "Unsupported PARSEC members (as in 5.1):\n";
  List.iter
    (fun b ->
      match b.Bench.unsupported_reason with
      | Some reason -> Printf.printf "  %-13s %s\n" b.Bench.name reason
      | None -> ())
    Multithreaded.parsec

(* ------------------------------------------------------------------ *)
(* Table 2: server latency *)

let table2 () =
  section "Table 2: lighttpd/nginx processing time per request (us)";
  let t =
    Table.create
      [
        ("config", Table.Left); ("conn", Table.Right); ("base", Table.Right);
        ("strict", Table.Right); ("s-oh", Table.Right); ("selective", Table.Right);
        ("sel-oh", Table.Right); ("paper base/strict/sel", Table.Left);
      ]
  in
  let paper =
    [
      (Server.Lighttpd, 1, 64, 10.3, 11.9, 11.8);
      (Server.Lighttpd, 1, 512, 8.71, 10.5, 10.1);
      (Server.Lighttpd, 1, 1024, 8.48, 10.4, 10.1);
      (Server.Lighttpd, 1024, 64, 974., 994., 992.);
      (Server.Lighttpd, 1024, 512, 959., 972., 970.);
      (Server.Lighttpd, 1024, 1024, 955., 964., 961.);
      (Server.Nginx, 1, 64, 9.81, 11.6, 11.2);
      (Server.Nginx, 1, 512, 8.46, 10.3, 9.88);
      (Server.Nginx, 1, 1024, 8.20, 10.2, 9.63);
      (Server.Nginx, 1024, 64, 950., 967., 964.);
      (Server.Nginx, 1024, 512, 985., 999., 996.);
      (Server.Nginx, 1024, 1024, 979., 998., 995.);
    ]
  in
  let small_strict = ref [] and small_sel = ref [] in
  let large_strict = ref [] and large_sel = ref [] in
  List.iter
    (fun (kind, file_kb, conns, pb, ps, psel) ->
      let r = E.server_latency kind ~file_kb ~connections:conns in
      let oh a b = (a -. b) /. b in
      let os = oh r.E.sl_strict r.E.sl_base and osel = oh r.E.sl_selective r.E.sl_base in
      if file_kb = 1 then begin
        small_strict := os :: !small_strict;
        small_sel := osel :: !small_sel
      end
      else begin
        large_strict := os :: !large_strict;
        large_sel := osel :: !large_sel
      end;
      Table.add_row t
        [
          Printf.sprintf "%s %dKB" (Server.kind_name kind) file_kb;
          string_of_int conns;
          Printf.sprintf "%.2f" r.E.sl_base;
          Printf.sprintf "%.2f" r.E.sl_strict;
          pct os;
          Printf.sprintf "%.2f" r.E.sl_selective;
          pct osel;
          Printf.sprintf "%.4g / %.4g / %.4g" pb ps psel;
        ])
    paper;
  Table.print t;
  Printf.printf "Ave (1KB):  strict %s, selective %s   (paper: 20.56%%, 16.4%%)\n"
    (pct (Stats.mean !small_strict))
    (pct (Stats.mean !small_sel));
  Printf.printf "Ave (1MB):  strict %s, selective %s   (paper: 1.57%%, 1.31%%)\n"
    (pct (Stats.mean !large_strict))
    (pct (Stats.mean !large_sel))

(* ------------------------------------------------------------------ *)
(* Figure 5: scalability 2..8 variants *)

let fig5 () =
  section "Figure 5: scalability, 2-8 variants on the 12-core machine";
  let benches = [ "perlbench"; "bzip2"; "gcc"; "sjeng" ] in
  let t =
    Table.create
      ((("n", Table.Left) :: List.map (fun b -> (b, Table.Right)) benches)
      @ [ ("average", Table.Right) ])
  in
  let per_bench = List.map (fun b -> (b, E.scalability (Spec.find b))) benches in
  let ns = [ 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun n ->
      let row = List.map (fun (_, series) -> List.assoc n series) per_bench in
      Table.add_row t ((string_of_int n :: List.map pct row) @ [ pct (Stats.mean row) ]))
    ns;
  Table.print t;
  Printf.printf "paper: 0.9%% at n=2 rising to 21%% at n=8 (LLC pressure)\n"

(* ------------------------------------------------------------------ *)
(* 5.3: syscall distance (attack window) *)

let window () =
  section "Syscall gap in selective mode (attack window, 5.3)";
  let cpu = [ "bzip2"; "mcf"; "hmmer"; "sjeng"; "milc" ] in
  let cpu_gaps = List.map (fun b -> E.syscall_gap (Spec.find b)) cpu in
  List.iter2 (fun b g -> Printf.printf "  %-12s gap %.1f\n" b g) cpu cpu_gaps;
  let server_gap kind =
    let requests = 150 in
    let bench = Server.make kind ~file_kb:1 ~connections:64 ~requests in
    let base = Program.baseline bench.Bench.prog in
    let r = E.nxe_run ~config:Nxe.selective ~seed:E.ref_seed [ base; base ] in
    r.Nxe.avg_syscall_gap
  in
  let lg = server_gap Server.Lighttpd and ng = server_gap Server.Nginx in
  Printf.printf "  %-12s gap %.1f\n" "lighttpd" lg;
  Printf.printf "  %-12s gap %.1f\n" "nginx" ng;
  Printf.printf "CPU-intensive avg %.1f (paper ~5);  IO-intensive avg %.1f (paper ~1)\n"
    (Stats.mean cpu_gaps) (Stats.mean [ lg; ng ]);
  (* "Attacking Bunshin": how much of a malicious payload a compromised
     leader completes before the monitor aborts. *)
  Printf.printf "\nattack-window exploitation (compromised leader, 16-syscall payload):\n";
  List.iter
    (fun w ->
      Printf.printf "  %-9s %-6s payload: %2d executed, detected: %b\n" w.Window.wr_mode
        (match w.Window.wr_payload with Window.Reads -> "read" | Window.Writes -> "write")
        w.Window.wr_executed w.Window.wr_detected)
    (Window.summary ())

(* ------------------------------------------------------------------ *)
(* Table 3: RIPE *)

let table3 () =
  section "Table 3: RIPE benchmark outcomes";
  let t =
    Table.create
      [
        ("Config", Table.Left); ("Succeed", Table.Right); ("Probabilistic", Table.Right);
        ("Failed", Table.Right); ("Not possible", Table.Right);
      ]
  in
  let row name env =
    let s, p, f, n = Ripe.table env in
    Table.add_row t
      [ name; string_of_int s; string_of_int p; string_of_int f; string_of_int n ]
  in
  row "Default" Ripe.Vanilla;
  row "ASan" Ripe.With_asan;
  row "Bunshin" (Ripe.With_bunshin 2);
  Table.print t;
  Printf.printf "paper: 114/16/720/2990 -> 8/0/842/2990 -> 8/0/842/2990\n";
  Printf.printf "surviving attacks identical under ASan and Bunshin: %b\n"
    (Ripe.surviving_ids Ripe.With_asan = Ripe.surviving_ids (Ripe.With_bunshin 2));
  (* Micro-RIPE: the structural core of the matrix as real IR programs. *)
  Printf.printf "\nmicro-RIPE (executable attack programs through the real pipeline):\n";
  let t =
    Table.create
      [
        ("combination", Table.Left); ("vanilla", Table.Left); ("ASan", Table.Left);
        ("Bunshin", Table.Left); ("cookie", Table.Left); ("CFI", Table.Left);
      ]
  in
  List.iter
    (fun c ->
      let o = Ripe_ir.evaluate c in
      let s b = if b then "yes" else "-" in
      Table.add_row t
        [
          Format.asprintf "%a" Ripe_ir.pp_combo c;
          s o.Ripe_ir.ro_vanilla_succeeds;
          s o.Ripe_ir.ro_asan_detects;
          s o.Ripe_ir.ro_bunshin_detects;
          s o.Ripe_ir.ro_cookie_detects;
          s o.Ripe_ir.ro_cfi_detects;
        ])
    Ripe_ir.combos;
  Table.print t;
  Printf.printf
    "the struct-func-ptr rows are the intra-object survivors behind the 8 in the big matrix\n"

(* ------------------------------------------------------------------ *)
(* Table 4: real-world CVEs *)

let table4 () =
  section "Table 4: real-world programs and CVEs under 2-variant Bunshin";
  let t =
    Table.create
      [
        ("Program", Table.Left); ("CVE", Table.Left); ("Exploit", Table.Left);
        ("Sanitizer", Table.Left); ("Detect", Table.Left); ("benign clean", Table.Left);
      ]
  in
  List.iter
    (fun case ->
      let v = Cve.evaluate case in
      Table.add_row t
        [
          case.Cve.c_program;
          case.Cve.c_cve;
          case.Cve.c_exploit;
          case.Cve.c_sanitizer;
          (if v.Cve.v_bunshin_detects then "Yes" else "NO");
          (if v.Cve.v_benign_clean then "yes" else "NO");
        ])
    Cve.cases;
  Table.print t;
  Printf.printf "paper: all five detected\n"

(* ------------------------------------------------------------------ *)
(* Figure 6: check distribution on ASan *)

let distribution_table title results ~paper_full ~paper_n =
  let t =
    Table.create
      [
        ("benchmark", Table.Left); ("full", Table.Right); ("v1", Table.Right);
        ("v2", Table.Right); ("v3", Table.Right); ("bunshin", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let v i = List.nth_opt r.E.cd_variant_overheads i in
      Table.add_row t
        [
          r.E.cd_bench; pct r.E.cd_full_overhead; pct_opt (v 0); pct_opt (v 1);
          pct_opt (v 2); pct r.E.cd_bunshin_overhead;
        ])
    results;
  Table.add_sep t;
  let avg f = Stats.mean (List.map f results) in
  Table.add_row t
    [
      "average"; pct (avg (fun r -> r.E.cd_full_overhead)); "-"; "-"; "-";
      pct (avg (fun r -> r.E.cd_bunshin_overhead));
    ];
  Table.add_row t [ "paper avg"; paper_full; "-"; "-"; "-"; paper_n ];
  Printf.printf "%s\n" title;
  Table.print t

let fig6 () =
  section "Figure 6: check distribution on ASan (3 variants)";
  let outliers = [ "hmmer"; "lbm" ] in
  let normal = List.filter (fun b -> not (List.mem b.Bench.name outliers)) Spec.all in
  let results = List.map (fun b -> E.check_distribution ~n:3 b) normal in
  distribution_table "regular benchmarks:" results ~paper_full:"107%" ~paper_n:"47.1%";
  let out_results = List.map (fun n -> E.check_distribution ~n:3 (Spec.find n)) outliers in
  distribution_table "outliers (single hot function, no distribution):" out_results
    ~paper_full:"(high)" ~paper_n:"(~= full)";
  let two = List.map (fun b -> E.check_distribution ~n:2 b) normal in
  Printf.printf "2-variant average: full %s -> bunshin %s   (paper: 107%% -> 65.6%%)\n"
    (pct (Stats.mean (List.map (fun r -> r.E.cd_full_overhead) two)))
    (pct (Stats.mean (List.map (fun r -> r.E.cd_bunshin_overhead) two)))

(* ------------------------------------------------------------------ *)
(* Figure 7: sanitizer distribution on UBSan *)

let fig7 () =
  section "Figure 7: sanitizer distribution on UBSan's 19 subs (3 variants)";
  let results = List.map (fun b -> E.ubsan_distribution ~n:3 b) Spec.all in
  distribution_table "all benchmarks:" results ~paper_full:"228%" ~paper_n:"94.5%";
  let two = List.map (fun b -> E.ubsan_distribution ~n:2 b) Spec.all in
  Printf.printf "2-variant average: full %s -> bunshin %s   (paper: 228%% -> 129%%)\n"
    (pct (Stats.mean (List.map (fun r -> r.E.cd_full_overhead) two)))
    (pct (Stats.mean (List.map (fun r -> r.E.cd_bunshin_overhead) two)))

(* ------------------------------------------------------------------ *)
(* Figure 8: unifying ASan + MSan + UBSan *)

let fig8 () =
  section "Figure 8: unifying ASan, MSan and UBSan under the NXE";
  let t =
    Table.create
      [
        ("benchmark", Table.Left); ("ASan", Table.Right); ("MSan", Table.Right);
        ("UBSan", Table.Right); ("bunshin", Table.Right); ("extra over max", Table.Right);
      ]
  in
  let results = List.filter_map E.unify_sanitizers Spec.all in
  List.iter
    (fun u ->
      Table.add_row t
        [
          u.E.un_bench; pct u.E.un_asan; pct u.E.un_msan; pct u.E.un_ubsan;
          pct u.E.un_bunshin; pct u.E.un_extra_over_max;
        ])
    results;
  Table.add_sep t;
  Table.add_row t
    [
      "average";
      pct (Stats.mean (List.map (fun u -> u.E.un_asan) results));
      pct (Stats.mean (List.map (fun u -> u.E.un_msan) results));
      pct (Stats.mean (List.map (fun u -> u.E.un_ubsan) results));
      pct (Stats.mean (List.map (fun u -> u.E.un_bunshin) results));
      pct (Stats.mean (List.map (fun u -> u.E.un_extra_over_max) results));
    ];
  Table.add_row t [ "paper avg"; "-"; "-"; "-"; "278%"; "4.99%" ];
  Table.print t;
  Printf.printf "gcc excluded: cannot run under MSan (as in the paper)\n"

(* ------------------------------------------------------------------ *)
(* Figure 9: background load *)

let fig9 () =
  section "Figure 9: 2-variant NXE under background load (stress-ng model)";
  let benches = [ "bzip2"; "mcf"; "milc"; "astar"; "omnetpp"; "gcc" ] in
  let all = List.map (fun name -> (name, E.load_sensitivity (Spec.find name))) benches in
  let levels = List.map fst (snd (List.hd all)) in
  let t =
    Table.create
      (("benchmark", Table.Left)
      :: List.map (fun l -> (Printf.sprintf "%.0f%% load" (l *. 100.), Table.Right)) levels)
  in
  List.iter
    (fun (name, series) -> Table.add_row t (name :: List.map (fun (_, oh) -> pct oh) series))
    all;
  Table.add_sep t;
  let avg_at l = Stats.mean (List.map (fun (_, series) -> List.assoc l series) all) in
  Table.add_row t ("average" :: List.map (fun l -> pct (avg_at l)) levels);
  Table.add_row t ("paper avg" :: [ "8.1%"; "10.23%"; "13.46%" ]);
  Table.print t

(* ------------------------------------------------------------------ *)
(* 5.7: single core *)

let single_core () =
  section "Single-core synchronization overhead (5.7)";
  let benches = [ "bzip2"; "sjeng"; "milc" ] in
  let ohs = List.map (fun b -> E.single_core_overhead (Spec.find b)) benches in
  List.iter2 (fun b oh -> Printf.printf "  %-8s %s\n" b (pct oh)) benches ohs;
  Printf.printf "average %s   (paper: 103.1%%)\n" (pct (Stats.mean ohs))

(* ------------------------------------------------------------------ *)
(* §5.7: memory consumption *)

let memory () =
  section "Memory consumption (5.7): what distribution can and cannot split";
  let prog = (Spec.find "bzip2").Bench.prog in
  let ram b = Program.build_ram_overhead b in
  (* Check distribution on ASan: every variant keeps the whole shadow. *)
  Printf.printf "ASan check distribution (shadow is per-variant):\n";
  List.iter
    (fun n ->
      let funcs = List.map (fun f -> f.Program.fn_name) prog.Program.funcs in
      let per = (List.length funcs + n - 1) / n in
      let variants =
        List.init n (fun i ->
            let checked = List.filteri (fun j _ -> j / per = i) funcs in
            Program.variant [ Sanitizer.asan ] ~checked prog)
      in
      let per_variant = List.map ram variants in
      Printf.printf "  N=%d: per-variant RAM +%s each; fleet total ~%.1fx baseline\n" n
        (pct (Stats.mean per_variant))
        (List.fold_left (fun acc r -> acc +. 1.0 +. r) 0.0 per_variant))
    [ 1; 2; 3 ];
  (* Sanitizer distribution on UBSan: each variant links only its group. *)
  Printf.printf "\nUBSan sanitizer distribution (memory splits with the subs):\n";
  let full = ram (Program.full Sanitizer.ubsan_subs prog) in
  Printf.printf "  all 19 subs in one build: +%s\n" (pct full);
  List.iter
    (fun n ->
      match Variant.sanitizer_distribution ~n
              ~units:(List.map (fun s -> ([ s ], Sanitizer.group_cost [ s ] Cost_model.typical_profile))
                        Sanitizer.ubsan_subs)
              prog
      with
      | Error e -> Printf.printf "  N=%d: %s\n" n e
      | Ok plan ->
        let rams = List.map ram (Variant.builds plan) in
        Printf.printf "  N=%d: per-variant RAM +%s (max), +%s (mean)\n" n
          (pct (Stats.maximum rams)) (pct (Stats.mean rams)))
    [ 2; 3 ];
  Printf.printf "paper: base memory ~linear in N; ASan's shadow applies per variant;\n";
  Printf.printf "       sanitizer distribution also distributes memory overhead\n"

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out *)

let ablations () =
  section "Ablation: partition algorithm (3-way split of gcc's overhead profile)";
  let bench = Spec.find "gcc" in
  let prog = bench.Bench.prog in
  let base = Profile.measure (Program.baseline prog) ~seed:E.train_seed in
  let inst = Profile.measure (Program.full [ Sanitizer.asan ] prog) ~seed:E.train_seed in
  let profile = Profile.overhead_by_func ~baseline:base ~instrumented:inst in
  let items =
    List.filter_map
      (fun (f, w) -> if w > 0.0 then Some { Partition.label = f; weight = w } else None)
      profile
  in
  let t =
    Table.create
      [ ("algorithm", Table.Left); ("makespan", Table.Right); ("imbalance", Table.Right) ]
  in
  List.iter
    (fun (name, algo) ->
      let r = algo 3 items in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f" (Partition.makespan r);
          Printf.sprintf "%.1f" (Partition.imbalance r);
        ])
    [
      ("round-robin", Partition.round_robin);
      ("greedy LPT", Partition.lpt);
      ("Karmarkar-Karp", Partition.karmarkar_karp);
      ("best (KK+polish)", Partition.best);
    ];
  Table.print t;

  section "Ablation: ring-buffer capacity (selective mode, 2 variants, bzip2)";
  let build = Program.baseline (Spec.find "bzip2").Bench.prog in
  let t =
    Table.create [ ("capacity", Table.Right); ("time", Table.Right); ("max gap", Table.Right) ]
  in
  List.iter
    (fun cap ->
      let r =
        E.nxe_run
          ~config:{ Nxe.selective with Nxe.ring_capacity = cap }
          ~seed:E.ref_seed [ build; build ]
      in
      Table.add_row t
        [
          string_of_int cap; Printf.sprintf "%.0f" r.Nxe.total_time;
          string_of_int r.Nxe.max_syscall_gap;
        ])
    [ 1; 4; 16; 64; 256 ];
  Table.print t;

  section "Ablation: weak determinism on/off (barnes, 3 variants)";
  let mt = Multithreaded.find "barnes" in
  let b = Program.baseline mt.Bench.prog in
  let time wd =
    (E.nxe_run
       ~config:{ Nxe.default_config with Nxe.weak_determinism = wd }
       ~seed:E.ref_seed [ b; b; b ])
      .Nxe.total_time
  in
  let on = time true and off = time false in
  Printf.printf
    "  on  %.0f us\n  off %.0f us\n  ordering cost %s (paper: ~8.5%% extra on MT suites)\n" on
    off
    (pct ((on -. off) /. off));

  section "Ablation: lockstep mode vs attack window (mcf)";
  let gap_of config =
    let mcf = Program.baseline (Spec.find "mcf").Bench.prog in
    let r = E.nxe_run ~config ~seed:E.ref_seed [ mcf; mcf ] in
    (r.Nxe.total_time, r.Nxe.avg_syscall_gap)
  in
  let ts, gs = gap_of Nxe.default_config in
  let tsel, gsel = gap_of Nxe.selective in
  Printf.printf "  strict:    time %.0f, avg gap %.2f\n" ts gs;
  Printf.printf "  selective: time %.0f, avg gap %.2f (faster, wider window)\n" tsel gsel

(* ------------------------------------------------------------------ *)
(* §2.3: ASAP (selective protection) vs Bunshin (distribution) *)

let asap () =
  section "ASAP vs Bunshin (2.3): same budget, opposite security";
  let t =
    Table.create
      [
        ("benchmark", Table.Left); ("budget", Table.Right); ("ASAP oh", Table.Right);
        ("ASAP coverage", Table.Right); ("Bunshin oh (2v)", Table.Right);
        ("Bunshin coverage", Table.Right);
      ]
  in
  List.iter
    (fun name ->
      let r = E.asap_comparison (Spec.find name) in
      Table.add_row t
        [
          r.E.ac_bench; pct r.E.ac_budget; pct r.E.ac_asap_overhead; pct r.E.ac_asap_coverage;
          pct r.E.ac_bunshin_overhead; pct r.E.ac_bunshin_coverage;
        ])
    [ "bzip2"; "gcc"; "mcf"; "hmmer" ];
  Table.print t;
  (* The security half of the argument, on the real pipeline: ASAP's cost
     ranking prunes the hot parser checks that guard CVE-2013-2028. *)
  let case = List.hd Cve.cases in
  let inst = Instrument.apply_exn [ Sanitizer.asan ] case.Cve.c_modul in
  (* In nginx the chunked parser is hot: ASAP (cheapest-first) drops it. *)
  let profile = [ (case.Cve.c_vuln_func, 100.0); ("ngx_http_process_request", 5.0); ("main", 1.0) ] in
  let kept = Bunshin_variant.Asap.keep_set ~budget:0.5 ~overhead_profile:profile in
  let pruned =
    Slicer.remove_checks
      ~in_funcs:(List.filter (fun f -> not (List.mem f kept)) (List.map fst profile))
      inst
  in
  let asap_run = Interp.run pruned ~entry:"main" ~args:case.Cve.c_exploit_args in
  let v = Cve.evaluate case in
  Printf.printf "CVE-2013-2028 under a 50%% budget:\n";
  Printf.printf "  ASAP keeps checks in: [%s]\n" (String.concat "; " kept);
  Printf.printf "  ASAP detects the exploit:    %b\n"
    (match asap_run.Interp.outcome with Interp.Detected _ -> true | _ -> false);
  Printf.printf "  Bunshin detects the exploit: %b\n" v.Cve.v_bunshin_detects

(* ------------------------------------------------------------------ *)
(* §5.1: NXE robustness sweep *)

let robustness () =
  section "NXE robustness (5.1): 3 identical variants, strict lockstep";
  let results = E.robustness () in
  let ok = List.filter snd results and bad = List.filter (fun (_, b) -> not b) results in
  Printf.printf "%d/%d benchmarks run with no false alert\n" (List.length ok)
    (List.length results);
  List.iter (fun (n, _) -> Printf.printf "  FALSE ALERT: %s\n" n) bad;
  Printf.printf "paper: no false positives on SPEC, SPLASH-2x, nginx, lighttpd\n";
  Printf.printf "\nand the 5.1 exclusions, demonstrated (racy members fail under the engine):\n";
  List.iter
    (fun (n, problem) ->
      Printf.printf "  %-13s %s\n" n
        (if problem then "false alert / wedged, as expected" else "UNEXPECTEDLY CLEAN"))
    (E.unsupported_demo ())

(* ------------------------------------------------------------------ *)
(* §6: basic-block-granularity ablation (the hmmer/lbm fix) *)

let bb_granularity () =
  section "Ablation (6): function- vs basic-block-level check distribution";
  let t =
    Table.create
      [
        ("benchmark", Table.Left); ("full ASan", Table.Right);
        ("func-level (3v)", Table.Right); ("block-level k=8 (3v)", Table.Right);
      ]
  in
  List.iter
    (fun name ->
      let bench = Spec.find name in
      let f = E.check_distribution ~n:3 bench in
      let b = E.check_distribution ~n:3 ~block_split:8 bench in
      Table.add_row t
        [
          name; pct f.E.cd_full_overhead; pct f.E.cd_bunshin_overhead;
          pct b.E.cd_bunshin_overhead;
        ])
    [ "hmmer"; "lbm"; "bzip2" ];
  Table.print t;
  Printf.printf
    "the single-hot-function outliers distribute once the unit is finer than a function\n"

(* ------------------------------------------------------------------ *)
(* Layout diversification (2.2's disjoint-layout NVX defense) *)

let nvariant () =
  section "Layout diversification: write-what-where vs disjoint layouts";
  let v = Nvariant.evaluate () in
  Printf.printf "exploit crafted against variant A's layout:\n";
  Printf.printf "  hijacks variant A:            %b\n" v.Nvariant.nv_hijacked_a;
  Printf.printf "  hijacks variant B:            %b\n" v.Nvariant.nv_hijacked_b;
  Printf.printf "  behaviour diverges:           %b\n" v.Nvariant.nv_diverged;
  Printf.printf "  monitor detects:              %b\n" v.Nvariant.nv_detected;
  Printf.printf "  benign input runs clean:      %b\n" v.Nvariant.nv_benign_clean;
  Printf.printf "control (both variants share one layout): attack escapes = %b\n"
    (Nvariant.single_layout_escapes ())

(* ------------------------------------------------------------------ *)
(* Telemetry: syscall-gap and lockstep-wait distributions (the histogram
   refinement of the single avg_syscall_gap scalar), plus the metrics dump *)

let telemetry_section () =
  section "Telemetry: syscall-gap / lockstep-wait histograms (bzip2)";
  let build = Program.baseline (Spec.find "bzip2").Bench.prog in
  let print_hist indent (name, h) =
    Printf.printf "%s%-18s" indent name;
    List.iter
      (fun (b, c) ->
        if c > 0 then
          if Float.is_finite b then Printf.printf "  <=%g:%d" b c
          else Printf.printf "  inf:%d" c)
      h;
    print_newline ()
  in
  List.iter
    (fun (label, config, n) ->
      let r = E.nxe_run ~config ~seed:E.ref_seed (List.init n (fun _ -> build)) in
      Printf.printf "%s, N=%d (avg gap %.2f, max %d):\n" label n r.Nxe.avg_syscall_gap
        r.Nxe.max_syscall_gap;
      List.iter (print_hist "  ") r.Nxe.histograms)
    [
      ("strict", Nxe.default_config, 2);
      ("strict", Nxe.default_config, 3);
      ("selective", Nxe.selective, 2);
      ("selective", Nxe.selective, 3);
    ];
  Printf.printf "\nmetrics dump of a traced strict N=2 run:\n";
  let sink = Telemetry.create () in
  ignore
    (E.nxe_run
       ~config:{ Nxe.default_config with Nxe.telemetry = Some sink }
       ~seed:E.ref_seed [ build; build ]);
  print_string (Telemetry.metrics_to_text sink)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the heavy kernels of the stack *)

let bechamel_section () =
  section "Bechamel micro-benchmarks (one Test.make per reproduced artifact)";
  let open Bechamel in
  let items =
    List.init 64 (fun i ->
        { Partition.label = string_of_int i; weight = float_of_int (1 + (i * 7 mod 23)) })
  in
  let small_build = Program.baseline (Spec.find "bzip2").Bench.prog in
  let tests =
    [
      Test.make ~name:"table3_ripe_classify"
        (Staged.stage (fun () -> ignore (Ripe.table Ripe.With_asan)));
      Test.make ~name:"table4_cve_nginx"
        (Staged.stage (fun () -> ignore (Cve.evaluate (List.hd Cve.cases))));
      Test.make ~name:"fig6_partition_kk"
        (Staged.stage (fun () -> ignore (Partition.karmarkar_karp 3 items)));
      Test.make ~name:"fig6_partition_best"
        (Staged.stage (fun () -> ignore (Partition.best 3 items)));
      Test.make ~name:"fig3_nxe_3variants"
        (Staged.stage (fun () ->
             ignore (E.nxe_run ~seed:E.ref_seed [ small_build; small_build; small_build ])));
      Test.make ~name:"profiler_measure"
        (Staged.stage (fun () -> ignore (Profile.measure small_build ~seed:E.ref_seed)));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.25 in
    let cfg = Benchmark.cfg ~limit:200 ~quota ~kde:(Some 10) () in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-24s %12.0f ns/run\n" name est
        | _ -> Printf.printf "  %-24s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)
(* Interpreter fast path: precompiled engine vs the reference oracle *)

let quick_mode = ref false

(* Synthetic kernels stressing the four hot shapes of the interpreter:
   straight-line arithmetic in a loop, allocator traffic, call frames, and
   phi merges.  Built as raw AST so register/phi wiring is explicit. *)

let kblock label instrs term = { Ir.b_label = label; b_instrs = instrs; b_term = term }

let kmodule name funcs = { Ir.m_name = name; m_globals = []; m_funcs = funcs }

let kloop ~name ~body ~extra_head ~extra_funcs ~ret =
  (* main(n): i counts 0..n-1 through a phi; [body] defines %acc2 and %i2. *)
  kmodule name
    (extra_funcs
    @ [
        {
          Ir.f_name = "main";
          f_params = [ "n" ];
          f_blocks =
            [
              kblock "entry" [] (Ir.Br "head");
              kblock "head"
                ([
                   Ir.Phi ("i", [ ("entry", Ir.Int 0L); ("body", Ir.Reg "i2") ]);
                   Ir.Phi ("acc", [ ("entry", Ir.Int 0L); ("body", Ir.Reg "acc2") ]);
                 ]
                @ extra_head
                @ [ Ir.Cmp ("c", Ir.Slt, Ir.Reg "i", Ir.Reg "n") ])
                (Ir.CondBr (Ir.Reg "c", "body", "exit"));
              kblock "body" body (Ir.Br "head");
              kblock "exit" [] (Ir.Ret (Some ret));
            ];
        };
      ])

let kernel_hot_loop () =
  kloop ~name:"hot_loop" ~extra_head:[] ~extra_funcs:[] ~ret:(Ir.Reg "acc")
    ~body:
      [
        Ir.Bin ("t", Ir.Mul, Ir.Reg "i", Ir.Int 3L);
        Ir.Bin ("t2", Ir.Xor, Ir.Reg "acc", Ir.Reg "t");
        Ir.Bin ("acc2", Ir.Add, Ir.Reg "t2", Ir.Int 1L);
        Ir.Bin ("i2", Ir.Add, Ir.Reg "i", Ir.Int 1L);
      ]

let kernel_alloc_heavy () =
  kloop ~name:"alloc_heavy" ~extra_head:[] ~extra_funcs:[] ~ret:(Ir.Reg "acc")
    ~body:
      [
        Ir.Call (Some "p", "malloc", [ Ir.Int 8L ]);
        Ir.Gep ("q", Ir.Reg "p", Ir.Int 3L);
        Ir.Store (Ir.Reg "i", Ir.Reg "q");
        Ir.Load ("v", Ir.Reg "q");
        Ir.Bin ("acc2", Ir.Add, Ir.Reg "acc", Ir.Reg "v");
        Ir.Call (None, "free", [ Ir.Reg "p" ]);
        Ir.Bin ("i2", Ir.Add, Ir.Reg "i", Ir.Int 1L);
      ]

let kernel_call_heavy () =
  let work =
    {
      Ir.f_name = "work";
      f_params = [ "a"; "b" ];
      f_blocks =
        [
          kblock "entry"
            [
              Ir.Bin ("s", Ir.Add, Ir.Reg "a", Ir.Reg "b");
              Ir.Bin ("t", Ir.Mul, Ir.Reg "s", Ir.Int 2L);
            ]
            (Ir.Ret (Some (Ir.Reg "t")));
        ];
    }
  in
  kloop ~name:"call_heavy" ~extra_head:[] ~extra_funcs:[ work ] ~ret:(Ir.Reg "acc")
    ~body:
      [
        Ir.Call (Some "r", "work", [ Ir.Reg "i"; Ir.Reg "acc" ]);
        Ir.Call (Some "ok", "__bunshin_add_ok", [ Ir.Reg "r"; Ir.Int 1L ]);
        Ir.Bin ("acc2", Ir.Add, Ir.Reg "r", Ir.Reg "ok");
        Ir.Bin ("i2", Ir.Add, Ir.Reg "i", Ir.Int 1L);
      ]

let kernel_phi_heavy () =
  let nphi = 8 in
  let x k = Printf.sprintf "x%d" k and y k = Printf.sprintf "y%d" k in
  let extra_head =
    List.init nphi (fun k ->
        Ir.Phi (x k, [ ("entry", Ir.Int (Int64.of_int k)); ("body", Ir.Reg (y k)) ]))
  in
  let rotations =
    List.init nphi (fun k -> Ir.Bin (y k, Ir.Add, Ir.Reg (x ((k + 1) mod nphi)), Ir.Int 1L))
  in
  kloop ~name:"phi_heavy" ~extra_head ~extra_funcs:[] ~ret:(Ir.Reg (x 1))
    ~body:
      (rotations
      @ [
          Ir.Bin ("acc2", Ir.Add, Ir.Reg "acc", Ir.Reg (x 0));
          Ir.Bin ("i2", Ir.Add, Ir.Reg "i", Ir.Int 1L);
        ])

type interp_measure = { im_ns_per_step : float; im_steps_per_s : float }

(* Best-of-[batches]: the minimum per-step time over repeated batches, the
   usual microbenchmark defense against scheduler and GC noise.  Each batch
   starts from a full major collection, so a kernel that triggers major
   collections of its own (alloc_heavy) is not timed at whatever GC phase
   the previous batch, or the other engine's garbage, left behind. *)
let interp_measure ~batches ~runs run1 =
  ignore (run1 ());
  let best = ref infinity in
  for _ = 1 to batches do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let steps = ref 0 in
    for _ = 1 to runs do
      steps := !steps + (run1 ()).Interp.steps
    done;
    let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
    let per = dt /. float_of_int !steps in
    if per < !best then best := per
  done;
  { im_ns_per_step = !best *. 1e9; im_steps_per_s = 1.0 /. !best }

(* Returns the versioned perf-gate JSON (Gate.emit_json) without touching
   the baseline file — `diff' mode needs a fresh in-memory run to compare
   against the baseline it has already loaded. *)
let interp_data () =
  section "Interpreter fast path: precompiled engine vs reference oracle";
  let quick = !quick_mode in
  let n = if quick then 2_000 else 50_000 in
  let batches = if quick then 2 else 5 in
  let runs = if quick then 1 else 2 in
  let kernels =
    [
      ("hot_loop", kernel_hot_loop ());
      ("alloc_heavy", kernel_alloc_heavy ());
      ("call_heavy", kernel_call_heavy ());
      ("phi_heavy", kernel_phi_heavy ());
    ]
  in
  let t =
    Table.create
      [
        ("kernel", Table.Left); ("steps/run", Table.Right); ("ref ns/step", Table.Right);
        ("fast ns/step", Table.Right); ("fast steps/s", Table.Right); ("speedup", Table.Right);
      ]
  in
  let results =
    List.map
      (fun (name, m) ->
        let args = [ Int64.of_int n ] in
        (* Default fuel is 1M steps; these kernels legitimately run longer. *)
        let config = { Interp.default_config with fuel = 1_000_000_000 } in
        let pm = Interp.compile m in
        let fast () = Interp.run_compiled ~config pm ~entry:"main" ~args in
        let reference () = Interp.run_reference ~config m ~entry:"main" ~args in
        (* Smoke-level differential check: the two engines must agree on
           the whole run record before their timings mean anything. *)
        let rf = fast () and rr = reference () in
        if rf <> rr then begin
          Printf.eprintf "interp bench: fast/reference divergence on %s\n" name;
          exit 1
        end;
        let f = interp_measure ~batches ~runs fast in
        let r = interp_measure ~batches ~runs reference in
        let speedup = f.im_steps_per_s /. r.im_steps_per_s in
        Table.add_row t
          [
            name; string_of_int rf.Interp.steps; Printf.sprintf "%.0f" r.im_ns_per_step;
            Printf.sprintf "%.0f" f.im_ns_per_step;
            Printf.sprintf "%.2e" f.im_steps_per_s; Printf.sprintf "%.1fx" speedup;
          ];
        (name, rf.Interp.steps, f, r, speedup))
      kernels
  in
  Table.print t;
  let suites =
    List.map
      (fun (name, steps, f, r, speedup) ->
        ( name,
          [
            ("steps_per_run", float_of_int steps);
            ("fast_ns_per_step", f.im_ns_per_step);
            ("fast_steps_per_s", f.im_steps_per_s);
            ("reference_ns_per_step", r.im_ns_per_step);
            ("reference_steps_per_s", r.im_steps_per_s);
            ("speedup", speedup);
          ] ))
      results
  in
  Gate.emit_json ~section:"interp" ~quick suites

let write_bench_json file doc =
  let oc = open_out file in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let interp_section () = write_bench_json "BENCH_interp.json" (interp_data ())

(* ------------------------------------------------------------------ *)
(* NXE lockstep hot path: synchronized-syscalls/sec (wall clock) for 2-8
   variants on syscall-dense workloads.  The simulated times and syscall
   counts are deterministic and pinned exactly by the gate; the wall-clock
   rates are gated against a baseline regenerated on the same machine
   (like the interpreter section). *)

(* Pre-change reference (record-per-slot ring, string-keyed registries,
   per-follower wakeup calls, record-based event heap), measured by
   building the pre-change tree with this same bench file and running the
   full matrix on the CI container: `speedup_vs_prechange` reports how
   much faster the current engine is against those fixed marks.
   Wall-clock, so only meaningful on comparable hardware and only printed
   by the full bench (quick mode uses shorter server workloads, which
   would skew the ratio); the committed BENCH_nxe.json gate is what
   catches regressions.  The pre-change allocation rates for the same
   rows were 3640.7 (bzip2), 1100.8 (dense), 947.6 (dense_sel), 951.3
   (lighttpd) and 1552.3 (nginx) minor words per synchronized syscall —
   4.3-6.5x the flat-ring engine's. *)
let nxe_prechange_syncs_per_s =
  [
    ("bzip2_n2", 1.71e5);
    ("bzip2_n3", 1.05e5);
    ("bzip2_dense_n2", 3.89e5);
    ("bzip2_dense_n3", 2.52e5);
    ("bzip2_dense_sel_n2", 4.80e5);
    ("bzip2_dense_sel_n3", 3.00e5);
    ("lighttpd_n2", 3.92e5);
    ("lighttpd_n3", 2.87e5);
    ("nginx_n2", 2.74e5);
    ("nginx_n3", 1.76e5);
  ]

type nxe_measure = {
  nm_synced : int;
  nm_total_time : float; (* simulated us, deterministic *)
  nm_syncs_per_s : float; (* wall clock *)
  nm_minor_words_per_sync : float;
}

(* Run a workload, then rerun it: the rerun's minor words are the host
   allocation of one whole run, registration included (a single run, not
   best-of, so the figure is an honest per-run one).  A first run that
   [aborted] (a false divergence) or a rerun that is not the [same] ends
   the bench. *)
let run_and_rerun ~section ~aborted ~same run1 =
  let r0 = run1 () in
  if aborted r0 then begin
    Printf.eprintf "%s bench: workload aborted (false divergence)\n" section;
    exit 1
  end;
  let mw0 = Gc.minor_words () in
  let r1 = run1 () in
  let mwords = Gc.minor_words () -. mw0 in
  if not (same r0 r1) then begin
    Printf.eprintf "%s bench: non-deterministic run\n" section;
    exit 1
  end;
  (r0, mwords)

let nxe_measure ~batches ~runs traces config =
  let names = List.mapi (fun i _ -> Printf.sprintf "v%d" i) traces in
  let run1 () = Nxe.run_traces ~config ~names traces in
  let r0, mwords =
    run_and_rerun ~section:"nxe"
      ~aborted:(fun r -> match r.Nxe.outcome with `All_finished -> false | `Aborted _ -> true)
      ~same:(fun a b ->
        a.Nxe.synced_syscalls = b.Nxe.synced_syscalls && a.Nxe.total_time = b.Nxe.total_time)
      run1
  in
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to runs do
      ignore (run1 ())
    done;
    let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
    let per = dt /. float_of_int runs in
    if per < !best then best := per
  done;
  {
    nm_synced = r0.Nxe.synced_syscalls;
    nm_total_time = r0.Nxe.total_time;
    nm_syncs_per_s = float_of_int r0.Nxe.synced_syscalls /. !best;
    nm_minor_words_per_sync =
      (if r0.Nxe.synced_syscalls = 0 then 0.0
       else mwords /. float_of_int r0.Nxe.synced_syscalls);
  }

(* Syscall-dense bzip2: the spec row's instruction mix and function set,
   but with a syscall every other work unit — the publish/fetch/vote loop
   is the workload, not the compute between syscalls. *)
let nxe_dense_trace () =
  let r_funcs =
    let b = Spec.find "bzip2" in
    List.map (fun f -> (f.Program.fn_name, 1.0)) b.Bench.prog.Program.funcs
  in
  let rng = Rng.create 0xb21b2 in
  Bench.cpu_trace ~funcs:r_funcs ~units:3000 ~unit_cost:2.0 ~syscall_every:2 rng

(* The traces the nxe and net sections run: bzip2 at the reference
   seed, the syscall-dense bzip2, and lighttpd and nginx serving 64
   connections, 60 requests in quick mode and 160 otherwise. *)
let lockstep_traces ~quick =
  let baseline (b : Bench.t) =
    Program.build_trace (Program.baseline b.Bench.prog) ~seed:E.ref_seed
  in
  let server kind =
    baseline (Server.make kind ~file_kb:1 ~connections:64 ~requests:(if quick then 60 else 160))
  in
  (baseline (Spec.find "bzip2"), nxe_dense_trace (), server Server.Lighttpd, server Server.Nginx)

let nxe_data () =
  section "NXE lockstep: synchronized-syscalls/sec, 2-8 variants";
  let quick = !quick_mode in
  let batches = if quick then 2 else 4 in
  let runs = if quick then 1 else 3 in
  let bzip2, dense, lighttpd, nginx = lockstep_traces ~quick in
  let ns = if quick then [ 2; 3 ] else [ 2; 3; 4; 6; 8 ] in
  let workloads =
    [
      ("bzip2", bzip2, Nxe.default_config);
      ("bzip2_dense", dense, Nxe.default_config);
      ("bzip2_dense_sel", dense, Nxe.selective);
      ("lighttpd", lighttpd, Nxe.default_config);
      ("nginx", nginx, Nxe.default_config);
    ]
  in
  let t =
    Table.create
      [
        ("workload", Table.Left); ("n", Table.Right); ("synced", Table.Right);
        ("sim us", Table.Right); ("syncs/s", Table.Right); ("w/sync", Table.Right);
        ("vs pre", Table.Right);
      ]
  in
  let suites = ref [] in
  List.iter
    (fun (wname, trace, config) ->
      List.iter
        (fun n ->
          let m = nxe_measure ~batches ~runs (List.init n (fun _ -> trace)) config in
          let sname = Printf.sprintf "%s_n%d" wname n in
          (* Allocation budget: the hot path is supposed to be free of
             per-event allocation, so a synchronized syscall on the dense
             and server workloads must stay under a fixed per-variant
             word budget (measured 39-65n words/sync, asserted at 120n for
             headroom).  The sparse bzip2 rows are excluded: with only 90
             syncs the per-sync quotient is dominated by trace
             registration, not the sync path. *)
          if wname <> "bzip2" && m.nm_minor_words_per_sync > 120.0 *. float_of_int n
          then begin
            Printf.eprintf
              "nxe bench: allocation budget exceeded on %s: %.1f minor words/sync (budget %.0f)\n"
              sname m.nm_minor_words_per_sync
              (120.0 *. float_of_int n);
            exit 1
          end;
          let speedup =
            if quick then None
            else
              match List.assoc_opt sname nxe_prechange_syncs_per_s with
              | Some pre when pre > 0.0 -> Some (m.nm_syncs_per_s /. pre)
              | _ -> None
          in
          Table.add_row t
            [
              wname; string_of_int n; string_of_int m.nm_synced;
              Printf.sprintf "%.0f" m.nm_total_time;
              Printf.sprintf "%.2e" m.nm_syncs_per_s;
              Printf.sprintf "%.1f" m.nm_minor_words_per_sync;
              (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-");
            ];
          let metrics =
            [
              ("synced_syscalls", float_of_int m.nm_synced);
              ("sim_total_time_us", m.nm_total_time);
              ("syncs_per_s", m.nm_syncs_per_s);
              ("minor_words_per_sync", m.nm_minor_words_per_sync);
            ]
            @ (match speedup with Some s -> [ ("speedup_vs_prechange", s) ] | None -> [])
          in
          suites := (sname, metrics) :: !suites)
        ns)
    workloads;
  Table.print t;
  Gate.emit_json ~section:"nxe" ~quick (List.rev !suites)

let nxe_section () = write_bench_json "BENCH_nxe.json" (nxe_data ())

(* ------------------------------------------------------------------ *)
(* Distributed NXE: the DMON / dMVX trade-off curve — bytes on the wire
   and run-time overhead of naive full-remote-lockstep vs selective
   cross-checking vs selective + local result replication, at 2-4 nodes.
   Everything in the table is simulated (wire bytes, message counts,
   simulated wall time): one seed, one bit-stable schedule, so the gate
   pins the whole table tightly.  The overhead column is the distributed
   run's simulated wall time against the same fleet packed onto a single
   node (no wire).  The JSON adds one host count per case, the
   co-simulation's minor words per synchronized syscall. *)

let net_modes =
  [
    ("naive", Cluster.Full_remote_lockstep);
    ("sel", Cluster.Selective);
    ("repl", Cluster.Selective_replicated);
  ]

(* The host allocation is per synchronized syscall, as in the nxe
   section. *)
let net_run ~variants ~nodes ~ship trace =
  let traces = List.init variants (fun _ -> trace) in
  let names = List.mapi (fun i _ -> Printf.sprintf "v%d" i) traces in
  let config = { Cluster.default_config with nodes; ship } in
  let run1 () = Cluster.run_traces ~config ~names traces in
  let r, mwords =
    run_and_rerun ~section:"net"
      ~aborted:(fun r ->
        match r.Cluster.outcome with `All_finished -> false | `Aborted _ -> true)
      ~same:(fun a b ->
        a.Cluster.bytes_on_wire = b.Cluster.bytes_on_wire
        && a.Cluster.msgs_on_wire = b.Cluster.msgs_on_wire
        && a.Cluster.total_time = b.Cluster.total_time)
      run1
  in
  let synced = r.Cluster.synced_syscalls in
  (r, if synced = 0 then 0.0 else mwords /. float_of_int synced)

(* Verdict parity: the same injected argument divergence must produce a
   structurally identical alert in all three ship modes and in the local
   engine, and the filed incidents must agree once wall times are
   stripped — this is the acceptance bar for remote cross-checking. *)
let net_verdict_parity () =
  let mk rogue =
    List.concat
      (List.init 12 (fun i ->
           [
             Trace.Work { func = "serve"; cost = 5.0 };
             Trace.Sys
               (Syscall.write
                  ~args:[ 1L; (if rogue && i = 7 then 999L else Int64.of_int i) ]
                  ());
           ]))
  in
  let names = [ "v0"; "v1" ] in
  let traces = [ mk false; mk true ] in
  let abort section = function
    | `Aborted a -> a
    | `All_finished ->
      Printf.eprintf "net bench: injected divergence not detected (%s)\n" section;
      exit 1
  in
  let verdicts =
    List.map
      (fun (mname, ship) ->
        let config = { Cluster.default_config with nodes = 2; ship } in
        let r = Cluster.run_traces ~config ~names traces in
        ( mname,
          abort mname r.Cluster.outcome,
          Option.map Cluster.incident_signature r.Cluster.incident ))
      net_modes
  in
  (match verdicts with
   | (_, alert, sig0) :: rest ->
     List.iter
       (fun (mname, a, s) ->
         if a <> alert || s <> sig0 then begin
           Printf.eprintf "net bench: ship mode %s disagrees on the verdict\n" mname;
           exit 1
         end)
       rest;
     let local = Nxe.run_traces ~config:Nxe.default_config ~names traces in
     if abort "local" local.Nxe.outcome <> alert then begin
       Printf.eprintf "net bench: cluster verdict differs from the local engine\n";
       exit 1
     end;
     Printf.printf
       "verdict parity: argument divergence at pos %d blames v%d identically in all \
        three modes and locally (incident signatures match)\n"
       alert.Nxe.al_position alert.Nxe.al_variant
   | [] -> ())

let net_data () =
  section "Distributed NXE: wire traffic vs overhead (naive / selective / +replication)";
  let quick = !quick_mode in
  let variants = 4 in
  let bzip2, dense, lighttpd, nginx = lockstep_traces ~quick in
  let workloads =
    [ ("bzip2", bzip2); ("bzip2_dense", dense); ("lighttpd", lighttpd); ("nginx", nginx) ]
  in
  let ns = if quick then [ 2; 3 ] else [ 2; 3; 4 ] in
  let t =
    Table.create
      [
        ("workload", Table.Left); ("nodes", Table.Right); ("mode", Table.Left);
        ("synced", Table.Right); ("bytes", Table.Right); ("msgs", Table.Right);
        ("vs naive", Table.Right); ("repl", Table.Right); ("sim us", Table.Right);
        ("overhead", Table.Right);
      ]
  in
  let suites = ref [] in
  List.iter
    (fun (wname, trace) ->
      let solo, _ = net_run ~variants ~nodes:1 ~ship:Cluster.Selective_replicated trace in
      List.iter
        (fun nodes ->
          let naive_bytes = ref 0 in
          List.iter
            (fun (mname, ship) ->
              let r, words_per_sync = net_run ~variants ~nodes ~ship trace in
              if ship = Cluster.Full_remote_lockstep then
                naive_bytes := r.Cluster.bytes_on_wire;
              let reduction =
                float_of_int !naive_bytes
                /. float_of_int (max 1 r.Cluster.bytes_on_wire)
              in
              (* The dMVX claim this section exists to reproduce: on a
                 syscall-dense read-mostly workload, selective checking
                 plus local result replication must cut wire traffic by
                 at least 5x against full remote lockstep. *)
              if
                wname = "bzip2_dense"
                && ship = Cluster.Selective_replicated
                && reduction < 5.0
              then begin
                Printf.eprintf
                  "net bench: selective+replication only reduced dense wire bytes \
                   %.1fx vs naive at %d nodes (need >= 5x)\n"
                  reduction nodes;
                exit 1
              end;
              let overhead =
                100.0 *. ((r.Cluster.total_time /. solo.Cluster.total_time) -. 1.0)
              in
              Table.add_row t
                [
                  wname; string_of_int nodes; mname;
                  string_of_int r.Cluster.synced_syscalls;
                  string_of_int r.Cluster.bytes_on_wire;
                  string_of_int r.Cluster.msgs_on_wire;
                  (if ship = Cluster.Full_remote_lockstep then "-"
                   else Printf.sprintf "%.1fx" reduction);
                  string_of_int r.Cluster.replicated_results;
                  Printf.sprintf "%.0f" r.Cluster.total_time;
                  pct (overhead /. 100.0);
                ];
              suites :=
                ( Printf.sprintf "%s_n%d_%s" wname nodes mname,
                  [
                    ("synced_syscalls", float_of_int r.Cluster.synced_syscalls);
                    ("bytes_on_wire", float_of_int r.Cluster.bytes_on_wire);
                    ("msgs_on_wire", float_of_int r.Cluster.msgs_on_wire);
                    ("replicated_results", float_of_int r.Cluster.replicated_results);
                    ("sim_total_time_us", r.Cluster.total_time);
                    ("overhead_pct", overhead);
                    ("minor_words_per_sync", words_per_sync);
                  ] )
                :: !suites)
            net_modes)
        ns)
    workloads;
  Table.print t;
  print_newline ();
  net_verdict_parity ();
  Gate.emit_json ~section:"net" ~quick (List.rev !suites)

let net_section () = write_bench_json "BENCH_net.json" (net_data ())

(* ------------------------------------------------------------------ *)
(* Overhead attribution: the profiler's numbers are pure simulated-machine
   time, hence deterministic — the perf gate on this section uses tight
   thresholds and a committed baseline. *)

let profile_data () =
  section "Overhead attribution: per-phase accounting and straggler analysis";
  let n = 3 in
  let oa = E.overhead_attribution ~n (Spec.find "bzip2") in
  let attr = oa.E.oa_attr in
  let max_phase_err (a : Profile.attribution) =
    List.fold_left
      (fun acc v ->
        if v.Profile.va_thread_time <= 0.0 then acc
        else
          Float.max acc
            (Float.abs (v.Profile.va_phase_sum -. v.Profile.va_thread_time)
            /. v.Profile.va_thread_time))
      0.0 a.Profile.at_variants
  in
  let straggler_wait (a : Profile.attribution) =
    List.fold_left
      (fun acc v -> acc +. v.Profile.va_straggler_wait)
      0.0 a.Profile.at_variants
  in
  print_string (Profile.attribution_to_text attr);
  Printf.printf
    "\nmax-vs-sum: solo overheads max %s sum %s, group %s -> max %s group slowdown\n"
    (pct oa.E.oa_max_solo) (pct oa.E.oa_sum_solo) (pct oa.E.oa_group_overhead)
    (if oa.E.oa_max_tracks_group then "tracks" else "DOES NOT track");
  let server = Server.make Server.Lighttpd ~file_kb:1 ~connections:16 ~requests:40 in
  let sattr, _ =
    E.attribution_run ~workload:"lighttpd" ~seed:E.ref_seed
      (List.init n (fun _ -> Program.baseline server.Bench.prog))
  in
  Printf.printf "\nlighttpd: %d sync points over %.0f us, phase error %.4f%%\n"
    sattr.Profile.at_sync_points sattr.Profile.at_total_time
    (100.0 *. max_phase_err sattr);
  (* Host allocation of one profile run: the minor words of measuring
     bzip2's ASan build, after a warm-up run.  A deterministic count, so it
     is pinned tightly; it covers building, costing and executing the
     trace. *)
  let asan = Program.full [ Sanitizer.asan ] (Spec.find "bzip2").Bench.prog in
  let profile_run () = ignore (Profile.measure ~machine_config:E.desktop asan ~seed:E.ref_seed) in
  profile_run ();
  let mw0 = Gc.minor_words () in
  profile_run ();
  let minor_words_per_run = Gc.minor_words () -. mw0 in
  Printf.printf "bzip2 ASan profile run: %.0f minor words\n" minor_words_per_run;
  Gate.emit_json ~section:"profile" ~quick:!quick_mode
    [
      ( "bzip2",
        [
          ("total_time_us", attr.Profile.at_total_time);
          ("sync_points", float_of_int attr.Profile.at_sync_points);
          ("group_overhead_pct", 100.0 *. oa.E.oa_group_overhead);
          ("max_solo_pct", 100.0 *. oa.E.oa_max_solo);
          ("straggler_wait_us", straggler_wait attr);
          ("phase_err_pct", 100.0 *. max_phase_err attr);
          ("minor_words_per_run", minor_words_per_run);
        ] );
      ( "lighttpd",
        [
          ("total_time_us", sattr.Profile.at_total_time);
          ("sync_points", float_of_int sattr.Profile.at_sync_points);
          ("straggler_wait_us", straggler_wait sattr);
          ("phase_err_pct", 100.0 *. max_phase_err sattr);
        ] );
    ]

let profile_section () = write_bench_json "BENCH_profile.json" (profile_data ())

(* ------------------------------------------------------------------ *)
(* SLO & causal tracing: windowed rendezvous tail latency, burn rate and
   critical-path attribution on single-node and clustered runs.  Every
   number is simulated time, hence deterministic and tightly gated.  The
   section also enforces two structural guarantees of the tracing layer:
   attaching a sink, whose recorder is the tracer, must leave the run's
   report untouched (spot check here, full bit-identity in the golden
   tests), and the NXE hot path must stay inside the PR-7 allocation
   budget with the sink attached. *)

let slo_quantile_ps = [ 50.0; 95.0; 99.0; 99.9 ]

let slo_cause_shares paths =
  let attrs = Trace_ctx.attribute paths in
  let share pred =
    List.fold_left
      (fun acc a -> if pred a.Trace_ctx.ca_cause then acc +. a.Trace_ctx.ca_share else acc)
      0.0 attrs
  in
  ( share (function Trace_ctx.Straggler _ -> true | _ -> false),
    share (function
      | Trace_ctx.Link_serialization | Trace_ctx.Link_latency | Trace_ctx.Link_retransmit ->
        true
      | _ -> false) )

let slo_data () =
  section "SLO monitor: windowed rendezvous tail latency and critical-path attribution";
  let quick = !quick_mode in
  let requests = if quick then 40 else 120 in
  let t =
    Table.create
      [
        ("workload", Table.Left); ("nodes", Table.Right); ("rdv", Table.Right);
        ("p50", Table.Right); ("p99", Table.Right); ("live p99", Table.Right);
        ("burn", Table.Right); ("straggler", Table.Right); ("link", Table.Right);
      ]
  in
  let suites = ref [] in
  let measure ~sname ~nodes ~slo_limit run_with =
    (* Identical run minus the sink: the schedule and counts the tracer
       claims to merely observe. *)
    let base_synced, base_time, _ = run_with None in
    let sink = Telemetry.create () in
    let tc = Telemetry.recorder sink in
    let mw0 = Gc.minor_words () in
    let synced, total_time, n = run_with (Some sink) in
    let mwords = Gc.minor_words () -. mw0 in
    if synced <> base_synced || total_time <> base_time then begin
      Printf.eprintf "slo bench: tracer perturbed the run on %s (%d/%f vs %d/%f)\n" sname
        synced total_time base_synced base_time;
      exit 1
    end;
    (* PR-7 budget with the sink attached (same bar as the nxe bench;
       single-node only — cluster runs allocate in the net layer). *)
    if nodes = 1 && synced > 100 && mwords /. float_of_int synced > 120.0 *. float_of_int n
    then begin
      Printf.eprintf "slo bench: allocation budget exceeded on %s with tracing: %.1f w/sync\n"
        sname
        (mwords /. float_of_int synced);
      exit 1
    end;
    let samples = Trace_ctx.rendezvous_samples tc in
    let lats = Array.of_list (List.map snd samples) in
    let exact =
      match Stats.percentiles lats slo_quantile_ps with
      | [ a; b; c; d ] -> (a, b, c, d)
      | _ -> (0.0, 0.0, 0.0, 0.0)
    in
    let p50, p95, p99, p999 = exact in
    let w = Telemetry.Slo.window ~sub_windows:8 ~sub_us:2000.0 () in
    List.iter (fun (t1, lat) -> Telemetry.Slo.observe w ~now:t1 lat) samples;
    let now = match List.rev samples with (t1, _) :: _ -> t1 | [] -> 0.0 in
    let live_p99 = Telemetry.Slo.quantile w ~now 99.0 in
    (* The live quantile reads the ring's surviving sub-windows, the
       exact one those same samples post-hoc: agreement within one log
       bucket (the acceptance bound, also pinned as a unit test).
       Membership mirrors the ring: absolute sub-window index within
       [sub_windows] of the newest. *)
    let cur = int_of_float (now /. 2000.0) in
    let tail =
      List.filter (fun (t1, _) -> int_of_float (t1 /. 2000.0) > cur - 8) samples
    in
    let tail_p99 =
      match Stats.percentiles (Array.of_list (List.map snd tail)) [ 99.0 ] with
      | [ v ] -> v
      | _ -> 0.0
    in
    if
      Float.abs (live_p99 -. tail_p99)
      > Telemetry.Slo.bucket_width_at w (Float.max live_p99 tail_p99)
    then begin
      Printf.eprintf "slo bench: live p99 %.2f disagrees with exact %.2f on %s\n" live_p99
        tail_p99 sname;
      exit 1
    end;
    let target = { Telemetry.Slo.slo_quantile = 99.0; slo_limit_us = slo_limit } in
    let burn = Telemetry.Slo.burn_rate w ~now target in
    let straggler_share, link_share = slo_cause_shares (Trace_ctx.critical_paths tc) in
    Table.add_row t
      [
        sname; string_of_int nodes; string_of_int (List.length samples);
        Printf.sprintf "%.2f" p50; Printf.sprintf "%.2f" p99;
        Printf.sprintf "%.2f" live_p99; Printf.sprintf "%.2f" burn;
        pct straggler_share; pct link_share;
      ];
    suites :=
      ( Printf.sprintf "%s_n%d" sname nodes,
        [
          ("rendezvous", float_of_int (List.length samples));
          ("p50_us", p50);
          ("p95_us", p95);
          ("p99_us", p99);
          ("p999_us", p999);
          ("live_p99_us", live_p99);
          ("burn_rate", burn);
          ("straggler_share_pct", 100.0 *. straggler_share);
          ("link_share_pct", 100.0 *. link_share);
        ] )
      :: !suites
  in
  let dense_trace = nxe_dense_trace () in
  measure ~sname:"bzip2_dense" ~nodes:1 ~slo_limit:12.0 (fun telemetry ->
      let config = { Nxe.selective with telemetry } in
      let names = List.init 3 (Printf.sprintf "v%d") in
      let r = Nxe.run_traces ~config ~names (List.init 3 (fun _ -> dense_trace)) in
      (r.Nxe.synced_syscalls, r.Nxe.total_time, 3));
  let server = Server.make Server.Lighttpd ~file_kb:1 ~connections:16 ~requests in
  let server_trace = Program.build_trace (Program.baseline server.Bench.prog) ~seed:E.ref_seed in
  measure ~sname:"lighttpd" ~nodes:1 ~slo_limit:(Server.slo_target_us Server.Lighttpd)
    (fun telemetry ->
      let config = { Nxe.selective with telemetry } in
      let names = List.init 3 (Printf.sprintf "v%d") in
      let r = Nxe.run_traces ~config ~names (List.init 3 (fun _ -> server_trace)) in
      (r.Nxe.synced_syscalls, r.Nxe.total_time, 3));
  measure ~sname:"lighttpd" ~nodes:4 ~slo_limit:(Server.slo_target_us Server.Lighttpd)
    (fun telemetry ->
      let config = { Cluster.default_config with nodes = 4; ship = Cluster.Selective } in
      let engine = { Nxe.default_config with telemetry } in
      let names = List.init 3 (Printf.sprintf "v%d") in
      let r = Cluster.run_traces ~config ~engine ~names (List.init 3 (fun _ -> server_trace)) in
      (r.Cluster.synced_syscalls, r.Cluster.total_time, 3));
  Table.print t;
  Gate.emit_json ~section:"slo" ~quick (List.rev !suites)

let slo_section () = write_bench_json "BENCH_slo.json" (slo_data ())

(* ------------------------------------------------------------------ *)
(* Serving front-end: the throughput-latency curve of an NXE group pool
   under open-loop load.  Offered load is swept as multiples of the
   pool's capacity knee (pool / mean service time); past the knee the
   bounded admission queue must turn overload into rejections, not into
   an unbounded latency collapse.  Arrivals are seeded and every number
   is simulated time, so the whole curve is deterministic: counts are
   pinned exactly, latencies to JSON rounding.  The section also
   re-checks neutrality structurally: pooled group reports must be
   bit-identical to solo replays of the same requests. *)

let serve_data () =
  section "Serving: NXE group pool under open-loop load (admission control)";
  let quick = !quick_mode in
  let requests = if quick then 150 else 400 in
  let t =
    Table.create
      [
        ("workload", Table.Left); ("x knee", Table.Right); ("offered", Table.Right);
        ("thrpt", Table.Right); ("done", Table.Right); ("rej%", Table.Right);
        ("p50", Table.Right); ("p99", Table.Right); ("p999", Table.Right);
        ("batch/wake", Table.Right); ("grps", Table.Right); ("w/req", Table.Right);
      ]
  in
  let suites = ref [] in
  let run_kind kind mults =
    let src =
      Serve.jittered ~jitter:0.3 ~seed:43
        (Serve.server_source ~n:3 kind ~file_kb:1 ~connections:16)
    in
    let config = { Serve.default_config with seed = 42 } in
    let service = (Serve.solo_report ~config src ~req_id:0).Nxe.total_time in
    let knee = float_of_int config.Serve.pool_capacity *. 1e6 /. service in
    List.iter
      (fun mult ->
        let keep = mult >= 2.0 in
        let config = { config with Serve.keep_reports = keep } in
        (* Allocation per offered request: a deterministic count, so each
           group run's fixed cost is pinned, not only its per-sync cost. *)
        let mw0 = Gc.minor_words () in
        let r = Serve.run ~config src ~offered_rps:(mult *. knee) ~requests in
        let words_per_request = (Gc.minor_words () -. mw0) /. float_of_int requests in
        (* Conservation is structural (Serve.run faults on a double or
           missing resolution); neutrality is re-proven here on the
           saturated point: every retained pooled report must be
           bit-identical to a solo replay. *)
        if keep then
          List.iteri
            (fun i (rid, rep) ->
              if i mod 50 = 0
                 && Nxe.report_signature rep
                    <> Nxe.report_signature (Serve.solo_report ~config src ~req_id:rid)
              then begin
                Printf.eprintf "serve bench: pooled report for request %d differs from solo\n"
                  rid;
                exit 1
              end)
            r.Serve.sv_reports;
        let batch_factor =
          float_of_int r.Serve.sv_poll_events
          /. float_of_int (max 1 r.Serve.sv_poll_wakeups)
        in
        Table.add_row t
          [
            Server.kind_name kind; Printf.sprintf "%.2f" mult;
            Printf.sprintf "%.0f" r.Serve.sv_offered_rps;
            Printf.sprintf "%.0f" r.Serve.sv_throughput_rps;
            string_of_int r.Serve.sv_completed;
            Printf.sprintf "%.1f" (100.0 *. r.Serve.sv_rejection_rate);
            Printf.sprintf "%.1f" r.Serve.sv_p50; Printf.sprintf "%.1f" r.Serve.sv_p99;
            Printf.sprintf "%.1f" r.Serve.sv_p999; Printf.sprintf "%.1f" batch_factor;
            string_of_int r.Serve.sv_peak_groups; Printf.sprintf "%.0f" words_per_request;
          ];
        suites :=
          ( Printf.sprintf "%s_x%g" (Server.kind_name kind) mult,
            [
              ("completed", float_of_int r.Serve.sv_completed);
              ("rejected", float_of_int r.Serve.sv_rejected);
              ("sim_makespan_us", r.Serve.sv_makespan);
              ("p50_us", r.Serve.sv_p50);
              ("p99_us", r.Serve.sv_p99);
              ("p999_us", r.Serve.sv_p999);
              ("rejection_rate_pct", 100.0 *. r.Serve.sv_rejection_rate);
              ("batch_factor", batch_factor);
              ("peak_groups", float_of_int r.Serve.sv_peak_groups);
              ("minor_words_per_request", words_per_request);
            ] )
          :: !suites)
      mults
  in
  run_kind Server.Lighttpd [ 0.5; 1.0; 2.0; 4.0 ];
  run_kind Server.Nginx [ 0.5; 2.0 ];
  Table.print t;
  Gate.emit_json ~section:"serve" ~quick (List.rev !suites)

let serve_section () = write_bench_json "BENCH_serve.json" (serve_data ())

(* ------------------------------------------------------------------ *)
(* Perf-regression gates: `diff SECTION' and `gates' re-run a section in
   memory and compare it against the committed BENCH_SECTION.json
   baseline. *)

(* The attribution numbers are simulated time (deterministic), so their
   gate is tight.  The interpreter numbers are wall-clock on whatever
   machine runs the gate, so only regenerated-locally baselines make
   sense there, with tolerances wide enough for scheduler noise; the
   step counts are deterministic and pinned exactly. *)
let gate_specs =
  [
    ( "interp",
      interp_data,
      [
        Gate.threshold ~tolerance:0.0 "steps_per_run";
        Gate.threshold ~tolerance:1.0 "fast_ns_per_step";
        Gate.threshold ~direction:Gate.Higher_is_better ~tolerance:0.6 "speedup";
      ] );
    ( "profile",
      profile_data,
      [
        Gate.threshold ~tolerance:0.01 "total_time_us";
        Gate.threshold ~tolerance:0.0 "sync_points";
        Gate.threshold ~tolerance:0.05 "group_overhead_pct";
        Gate.threshold ~tolerance:0.05 "max_solo_pct";
        Gate.threshold ~tolerance:0.05 "straggler_wait_us";
        Gate.threshold ~tolerance:0.0 "phase_err_pct";
        (* A deterministic count, pinned exactly (the tolerance is JSON
           rendering slack only). *)
        Gate.threshold ~tolerance:0.001 "minor_words_per_run";
      ] );
    ( "nxe",
      nxe_data,
      [
        (* Synced counts and simulated times are deterministic: pinned
           (the sim-time tolerance only covers JSON rendering rounding).
           The sync rate is wall clock — 0.6 matches the interp gate's
           wall tolerance; the allocation rate is a deterministic count
           of the program's minor words, pinned exactly (JSON rendering
           slack only). *)
        Gate.threshold ~tolerance:0.0 "synced_syscalls";
        Gate.threshold ~tolerance:0.01 "sim_total_time_us";
        Gate.threshold ~direction:Gate.Higher_is_better ~tolerance:0.6 "syncs_per_s";
        Gate.threshold ~tolerance:0.001 "minor_words_per_sync";
      ] );
    ( "net",
      net_data,
      [
        (* Bytes, message counts and synced slots are exact integers of a
           bit-stable schedule, pinned; the simulated times carry only
           JSON rounding slack. *)
        Gate.threshold ~tolerance:0.0 "synced_syscalls";
        Gate.threshold ~tolerance:0.0 "bytes_on_wire";
        Gate.threshold ~tolerance:0.0 "msgs_on_wire";
        Gate.threshold ~tolerance:0.01 "sim_total_time_us";
        Gate.threshold ~tolerance:0.01 "overhead_pct";
        (* The host pin: a deterministic count of the co-simulation's minor
           words, pinned like nxe's minor_words_per_sync. *)
        Gate.threshold ~tolerance:0.001 "minor_words_per_sync";
      ] );
    ( "slo",
      slo_data,
      [
        (* All simulated: rendezvous counts are exact, latency quantiles
           and attribution shares carry only JSON rounding slack. *)
        Gate.threshold ~tolerance:0.0 "rendezvous";
        Gate.threshold ~tolerance:0.01 "p50_us";
        Gate.threshold ~tolerance:0.01 "p99_us";
        Gate.threshold ~tolerance:0.01 "p999_us";
        Gate.threshold ~tolerance:0.01 "live_p99_us";
        Gate.threshold ~tolerance:0.01 "burn_rate";
        Gate.threshold ~tolerance:0.01 "straggler_share_pct";
        Gate.threshold ~tolerance:0.01 "link_share_pct";
      ] );
    ( "serve",
      serve_data,
      [
        (* The whole serving curve is simulated and seeded: request
           accounting (conservation) is exact integers, latency
           quantiles and the makespan carry only JSON rounding slack.
           The batching factor is higher-is-better — a regression there
           means the epoll-style coalescing stopped amortizing. *)
        Gate.threshold ~tolerance:0.0 "completed";
        Gate.threshold ~tolerance:0.0 "rejected";
        Gate.threshold ~tolerance:0.0 "peak_groups";
        Gate.threshold ~tolerance:0.01 "sim_makespan_us";
        Gate.threshold ~tolerance:0.01 "p50_us";
        Gate.threshold ~tolerance:0.01 "p99_us";
        Gate.threshold ~tolerance:0.01 "p999_us";
        Gate.threshold ~tolerance:0.01 "rejection_rate_pct";
        Gate.threshold ~direction:Gate.Higher_is_better ~tolerance:0.01 "batch_factor";
        (* A deterministic count, pinned like nxe's minor_words_per_sync. *)
        Gate.threshold ~tolerance:0.001 "minor_words_per_request";
      ] );
  ]

(* The baseline [j] with every suite metric multiplied by [factor] — the
   injected-regression self-test (0.8 makes the fresh run look 25% slower
   than baseline on lower-is-better metrics). *)
let scale_baseline factor j =
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let quick = match Json.member "quick" j with Some (Json.Bool b) -> b | _ -> false in
  let suites =
    match Json.member "suites" j with
    | Some (Json.Arr l) ->
      List.filter_map
        (function
          | Json.Obj fields ->
            let name =
              match List.assoc_opt "name" fields with Some (Json.Str s) -> s | _ -> ""
            in
            let metrics =
              List.filter_map
                (function
                  | k, Json.Num v when k <> "name" -> Some (k, v *. factor)
                  | _ -> None)
                fields
            in
            Some (name, metrics)
          | _ -> None)
        l
    | _ -> []
  in
  Gate.emit_json ~section:(str "section") ~quick suites

(* One gate: read the baseline BEFORE re-running its section (so a section
   that writes its own file never compares against itself), run the
   section once in the mode the baseline's "quick" field records, and
   require a pass against the baseline and a failure against the baseline
   scaled by 0.8 (an injected 25% regression), so the gate is shown able
   to fail. *)
let check_gate (section, data, thresholds) =
  let file = "BENCH_" ^ section ^ ".json" in
  Printf.printf "\n== gate %s vs %s\n%!" section file;
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e -> Error (Printf.sprintf "cannot read baseline %s: %s" file e)
  | baseline -> (
    match Json.parse baseline with
    | Error e -> Error (Printf.sprintf "malformed baseline %s: %s" file e)
    | Ok j -> (
      quick_mode := Json.member "quick" j = Some (Json.Bool true);
      let fresh = data () in
      let against baseline = Gate.compare_json ~thresholds ~baseline ~fresh in
      match (against baseline, against (scale_baseline 0.8 j)) with
      | Error e, _ | _, Error e -> Error e
      | Ok r, Ok injected ->
        print_string (Gate.result_to_text r);
        if not (Gate.passed r) then Error "regressed against the baseline"
        else if Gate.passed injected then
          Error "self-test: an injected 25% regression was NOT detected"
        else begin
          print_endline "self-test: injected 25% regression detected";
          Ok ()
        end))

(* `diff SECTION': one gate; exits 1 if it failed. *)
let diff_mode section =
  match List.find_opt (fun (name, _, _) -> name = section) gate_specs with
  | None ->
    Printf.eprintf "diff: no perf gate for section %s (gated: %s)\n" section
      (String.concat ", " (List.map (fun (n, _, _) -> n) gate_specs));
    exit 2
  | Some spec -> (
    match check_gate spec with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "gate FAILED: %s: %s\n" section e;
      exit 1)

(* `gates': every entry of [gate_specs] against its committed
   BENCH_<section>.json.  Every section runs; the exit status is non-zero
   if any gate failed. *)
let gates_mode () =
  let failed =
    List.filter_map
      (fun ((section, _, _) as spec) ->
        match check_gate spec with
        | Ok () -> None
        | Error e -> Some (section ^ ": " ^ e))
      gate_specs
  in
  if failed <> [] then begin
    List.iter (Printf.eprintf "gate FAILED: %s\n") failed;
    exit 1
  end;
  Printf.printf "\nall %d gates passed\n" (List.length gate_specs)

(* ------------------------------------------------------------------ *)
(* Forensics: the incident report behind every Table 3/4 detection — the
   blamed variant, blame basis, mismatch class, and attributed check site. *)

let forensics_section () =
  section "Forensics: blame attribution for the attack-suite detections";
  let basis_str = function
    | Forensics.Majority k -> Printf.sprintf "majority %d" k
    | Forensics.Tie -> "tie"
    | Forensics.Tie_broken_by_detection -> "tie/detection"
  in
  let mismatch_str = function
    | Forensics.Argument_mismatch -> "argument"
    | Forensics.Sequence_mismatch -> "sequence"
    | Forensics.Premature_exit -> "premature exit"
    | Forensics.Fault_isolation -> "fault isolation"
  in
  let site_str = function
    | None -> "-"
    | Some cs ->
      Printf.sprintf "%s #%d in %s" cs.Forensics.cs_pass cs.Forensics.cs_check_id
        cs.Forensics.cs_func
  in
  let t =
    Table.create
      [
        ("Case", Table.Left); ("Blamed", Table.Left); ("Basis", Table.Left);
        ("Mismatch", Table.Left); ("Check site", Table.Left);
      ]
  in
  let missing = ref 0 in
  List.iter
    (fun case ->
      let v = Cve.evaluate case in
      match v.Cve.v_incident with
      | None ->
        incr missing;
        Table.add_row t [ case.Cve.c_program; "-"; "-"; "-"; "-" ]
      | Some inc ->
        Table.add_row t
          [
            case.Cve.c_program;
            Printf.sprintf "v%d" inc.Forensics.inc_blamed;
            basis_str inc.Forensics.inc_basis;
            mismatch_str inc.Forensics.inc_mismatch;
            site_str inc.Forensics.inc_check_site;
          ])
    Cve.cases;
  Table.print t;
  let ripe_detected, ripe_with_incident, ripe_with_site =
    List.fold_left
      (fun (d, i, s) combo ->
        let o = Ripe_ir.evaluate combo in
        if not o.Ripe_ir.ro_bunshin_detects then (d, i, s)
        else
          match o.Ripe_ir.ro_incident with
          | None -> (d + 1, i, s)
          | Some inc ->
            (d + 1, i + 1, s + if inc.Forensics.inc_check_site <> None then 1 else 0))
      (0, 0, 0) Ripe_ir.combos
  in
  Printf.printf
    "\nRIPE-IR: %d detected combos, %d with incidents, %d with attributed check sites\n"
    ripe_detected ripe_with_incident ripe_with_site;
  if !missing > 0 then
    Printf.printf "WARNING: %d CVE detection(s) lack an incident\n" !missing

(* ------------------------------------------------------------------ *)
(* Fault tolerance: seeded chaos sweep across recovery policies *)

let faults_section () =
  section "Fault tolerance: seeded chaos sweep (stall/die/delay/corrupt x policy)";
  let units = 24 in
  let trace =
    List.concat
      (List.init units (fun i ->
           [
             Trace.Work { func = "serve"; cost = 5.0 };
             Trace.Sys (Syscall.read ~args:[ 3L; Int64.of_int i ] ());
           ]))
  in
  let n = 3 in
  let coverage = [ [ "asan"; "ubsan" ]; [ "asan"; "msan" ]; [ "msan"; "lowfat" ] ] in
  let names = List.init n (Printf.sprintf "v%d") in
  let policies =
    [ ("abort", Nxe.Abort_on_fault); ("quarantine", Nxe.Quarantine); ("restart", Nxe.Restart_once) ]
  in
  let seeds = if !quick_mode then [ 1; 3 ] else [ 1; 2; 3; 5; 8; 13 ] in
  let t =
    Table.create
      [
        ("seed", Table.Right); ("injection", Table.Left); ("policy", Table.Left);
        ("outcome", Table.Left); ("quarantined", Table.Left); ("cov loss", Table.Left);
        ("exec", Table.Right); ("time us", Table.Right);
      ]
  in
  List.iter
    (fun seed ->
      let faults = Faults.plan ~seed ~variants:n ~syscalls:units () in
      let inj =
        String.concat "; " (List.map Faults.describe faults.Faults.p_injections)
      in
      List.iter
        (fun (pname, policy) ->
          let config =
            { Nxe.default_config with
              fault_policy =
                { Nxe.policy; heartbeat_timeout = 100.0; restart_backoff = 50.0 } }
          in
          let r =
            Nxe.run_traces ~config ~faults ~coverage ~names (List.init n (fun _ -> trace))
          in
          let outcome =
            match r.Nxe.outcome with
            | `All_finished -> "finished"
            | `Aborted a -> Printf.sprintf "aborted (v%d)" a.Nxe.al_variant
          in
          let quarantined =
            match Nxe.quarantined_variants r with
            | [] -> "-"
            | l -> String.concat "," (List.map (Printf.sprintf "v%d") l)
          in
          let loss =
            match r.Nxe.coverage_loss with [] -> "-" | l -> String.concat "," l
          in
          Table.add_row t
            [
              string_of_int seed; inj; pname; outcome; quarantined; loss;
              Printf.sprintf "%d/%d" r.Nxe.executed_syscalls units;
              Printf.sprintf "%.0f" r.Nxe.total_time;
            ])
        policies)
    seeds;
  Table.print t;
  print_newline ();
  print_endline
    "Reading: corruption aborts under every policy (it is a divergence); stalls and";
  print_endline
    "deaths abort only under fail-stop — quarantine retires the victim and the";
  print_endline "survivors run the full stream (exec stays complete)."

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("table2", table2);
    ("fig5", fig5);
    ("window", window);
    ("table3", table3);
    ("table4", table4);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("single_core", single_core);
    ("asap", asap);
    ("memory", memory);
    ("robustness", robustness);
    ("bb_granularity", bb_granularity);
    ("nvariant", nvariant);
    ("ablations", ablations);
    ("telemetry", telemetry_section);
    ("forensics", forensics_section);
    ("faults", faults_section);
    ("bechamel", bechamel_section);
    ("interp", interp_section);
    ("profile", profile_section);
    ("nxe", nxe_section);
    ("net", net_section);
    ("slo", slo_section);
    ("serve", serve_section);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          quick_mode := true;
          false
        end
        else true)
      args
  in
  match args with
  | [ "list" ] -> List.iter (fun (n, _) -> print_endline n) sections
  | [ "diff"; section ] -> diff_mode section
  | "diff" :: _ ->
    Printf.eprintf "usage: diff SECTION\n";
    exit 2
  | [ "gates" ] -> gates_mode ()
  | [] ->
    let t0 = Unix.gettimeofday () in
    List.iter (fun (_, f) -> f ()) sections;
    Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
  | names -> (
    (* Every name is checked before any section runs. *)
    match List.find_opt (fun n -> not (List.mem_assoc n sections)) names with
    | Some n ->
      Printf.eprintf "unknown section %s (try 'list')\n" n;
      exit 2
    | None -> List.iter (fun n -> List.assoc n sections ()) names)
