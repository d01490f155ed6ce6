(* The bunshin command-line driver: profile a benchmark, generate a variant
   plan, run variants under the NXE, and replay the attack suites.

     bunshin list
     bunshin profile bzip2 --sanitizer asan
     bunshin generate bzip2 -n 3 --mode check
     bunshin run bzip2 -n 3 --mode ubsan --lockstep selective
     bunshin ripe
     bunshin cve *)

open Bunshin
open Cmdliner

let all_benches () = Spec.all @ Multithreaded.splash @ Multithreaded.parsec

let find_bench name =
  match List.find_opt (fun b -> b.Bench.name = name) (all_benches ()) with
  | Some b -> Ok b
  | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S (try `bunshin list')" name))

let bench_arg =
  let bconv =
    Arg.conv ((fun s -> find_bench s), fun fmt b -> Format.fprintf fmt "%s" b.Bench.name)
  in
  Arg.(required & pos 0 (some bconv) None & info [] ~docv:"BENCH" ~doc:"Benchmark name.")

let n_arg =
  Arg.(value & opt int 3 & info [ "n"; "variants" ] ~docv:"N" ~doc:"Number of variants.")

let block_split_arg =
  Arg.(value & opt int 1
       & info [ "block-split" ] ~docv:"K"
           ~doc:"Check-distribution granularity: 1 = whole functions; K > 1 splits each                  function into K block groups (the finer-grained mode of the paper's 6).")

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save" ] ~docv:"FILE" ~doc:"Write the overhead profile to FILE.")

let load_arg =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Reuse a saved instrumented-run profile instead of re-profiling.")

let sanitizer_arg =
  let parse = function
    | "asan" -> Ok Sanitizer.asan
    | "msan" -> Ok Sanitizer.msan
    | "softbound" -> Ok Sanitizer.softbound
    | "cets" -> Ok Sanitizer.cets
    | "cpi" -> Ok Sanitizer.cpi
    | s -> (
      match Sanitizer.find_ubsan_sub s with
      | Some sub -> Ok sub
      | None -> Error (`Msg ("unknown sanitizer " ^ s)))
  in
  let sconv = Arg.conv (parse, fun fmt s -> Format.fprintf fmt "%s" (Sanitizer.name s)) in
  Arg.(value & opt sconv Sanitizer.asan
       & info [ "sanitizer" ] ~docv:"SAN" ~doc:"Sanitizer for check distribution.")

type mode = Check | Ubsan | Unify

let mode_arg =
  let mconv =
    Arg.conv
      ( (function
         | "check" -> Ok Check
         | "ubsan" -> Ok Ubsan
         | "unify" -> Ok Unify
         | s -> Error (`Msg ("unknown mode " ^ s))),
        fun fmt m ->
          Format.fprintf fmt "%s"
            (match m with Check -> "check" | Ubsan -> "ubsan" | Unify -> "unify") )
  in
  Arg.(value & opt mconv Check
       & info [ "mode" ]
           ~doc:"Distribution mode: check (one sanitizer's checks over N variants), ubsan \
                 (19 sub-sanitizers over N), unify (ASan+MSan+UBSan).")

let lockstep_arg =
  let lconv =
    Arg.conv
      ( (function
         | "strict" -> Ok Nxe.default_config
         | "selective" -> Ok Nxe.selective
         | s -> Error (`Msg ("unknown lockstep mode " ^ s))),
        fun fmt c ->
          Format.fprintf fmt "%s"
            (match c.Nxe.mode with
             | Nxe.Strict_lockstep -> "strict"
             | Nxe.Selective_lockstep -> "selective") )
  in
  Arg.(value & opt lconv Nxe.default_config
       & info [ "lockstep" ] ~doc:"Lockstep mode: strict or selective.")

(* ------------------------------------------------------------------ *)
(* Causal-span reporting, shared by trace, cluster and slo *)

let spans_flag =
  Arg.(value & flag
       & info [ "spans" ]
           ~doc:"Attach a telemetry sink, whose span recorder is the tracer, and print \
                 the first span trees plus the critical-path attribution table (pure \
                 observation: the run's report is bit-identical either way).")

let spans_out_arg =
  Arg.(value & opt (some string) None
       & info [ "spans-out" ] ~docv:"FILE"
           ~doc:"Write every recorded causal span as a JSON array to FILE (implies \
                 the sink is attached).")

let write_file file contents =
  try Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc contents)
  with Sys_error e ->
    Printf.eprintf "cannot write %s: %s\n" file e;
    exit 1

(* An input file that cannot be read is a usage error: the top-level
   handler reports it as [bunshin: cannot read FILE: ...], exit status 2. *)
let read_file file =
  try In_channel.with_open_text file In_channel.input_all
  with Sys_error e -> invalid_arg ("cannot read " ^ e)

let span_report ?(trees = 3) ~label tc ~show ~spans_out =
  if show then begin
    let all_traces = Trace_ctx.traces tc in
    Printf.printf "spans: %d recorded (%d dropped) across %d traces\n" (Trace_ctx.used tc)
      (Trace_ctx.dropped tc) (List.length all_traces);
    let shown = ref 0 in
    List.iter
      (fun tr ->
        if !shown < trees then begin
          incr shown;
          print_string (Trace_ctx.tree_to_text tc tr)
        end)
      all_traces;
    print_string (Trace_ctx.attribution_to_text ~label (Trace_ctx.critical_paths tc))
  end;
  match spans_out with
  | Some file ->
    write_file file (Trace_ctx.spans_to_json tc);
    Printf.printf "wrote %s (%d spans)\n" file (Trace_ctx.used tc)
  | None -> ()

(* ------------------------------------------------------------------ *)

let plan_of ?(block_split = 1) ?profile_file ~mode ~n ~sanitizer bench =
  let prog = bench.Bench.prog in
  match mode with
  | Check ->
    let base = Profile.measure (Program.baseline prog) ~seed:Experiments.train_seed in
    let inst =
      match profile_file with
      | Some file -> (
        match Profile.of_string (read_file file) with
        | Ok p -> p
        | Error e -> invalid_arg (Printf.sprintf "--profile %s: %s" file e))
      | None -> Profile.measure (Program.full [ sanitizer ] prog) ~seed:Experiments.train_seed
    in
    let oh = Profile.overhead_by_func ~baseline:base ~instrumented:inst in
    Ok (Variant.check_distribution ~n ~block_split ~sanitizer ~overhead_profile:oh prog)
  | Ubsan ->
    let units =
      List.map
        (fun s -> ([ s ], Sanitizer.group_cost [ s ] Cost_model.typical_profile))
        Sanitizer.ubsan_subs
    in
    Variant.sanitizer_distribution ~n ~units prog
    |> Result.map_error (fun e -> `Msg e)
    |> Result.map Fun.id
    |> fun r -> (match r with Ok p -> Ok p | Error (`Msg e) -> Error (`Msg e))
  | Unify ->
    Variant.unify ~n [ [ Sanitizer.asan ]; [ Sanitizer.msan ]; Sanitizer.ubsan_subs ] prog
    |> Result.map_error (fun e -> `Msg e)

(* ------------------------------------------------------------------ *)
(* Commands *)

let list_cmd =
  let run () =
    let t = Table.create [ ("benchmark", Table.Left); ("suite", Table.Left);
                           ("threads", Table.Right); ("nxe", Table.Left) ] in
    List.iter
      (fun b ->
        Table.add_row t
          [
            b.Bench.name;
            Bench.suite_name b.Bench.suite;
            string_of_int b.Bench.threads;
            (match b.Bench.unsupported_reason with
             | None -> "supported"
             | Some r -> "unsupported: " ^ r);
          ])
      (all_benches ());
    Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List modelled benchmarks.") Term.(const run $ const ())

let profile_cmd =
  (* The attribution profiler also accepts the server workload models,
     which are not Spec benchmarks. *)
  let profile_bench_arg =
    let find name =
      match find_bench name with
      | Ok b -> Ok b
      | Error _ as e -> (
        match name with
        | "lighttpd" -> Ok (Server.make Server.Lighttpd ~file_kb:1 ~connections:16 ~requests:40)
        | "nginx" -> Ok (Server.make Server.Nginx ~file_kb:1 ~connections:16 ~requests:40)
        | _ -> e)
    in
    let bconv =
      Arg.conv ((fun s -> find s), fun fmt b -> Format.fprintf fmt "%s" b.Bench.name)
    in
    Arg.(required & pos 0 (some bconv) None
         & info [] ~docv:"BENCH" ~doc:"Benchmark name (also: lighttpd, nginx).")
  in
  let functions_flag =
    Arg.(value & flag
         & info [ "functions" ]
             ~doc:"Legacy per-function overhead profile (Figure 1, steps 1-2) instead of \
                   the per-phase overhead attribution.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the attribution as JSON.")
  in
  let collapsed_flag =
    Arg.(value & flag
         & info [ "collapsed" ]
             ~doc:"Emit collapsed stacks (workload;variant;phase weight) for flamegraph.pl \
                   or speedscope.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the report to FILE instead of stdout.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Also export a Chrome trace_event JSON of the profiled run.")
  in
  let quick_flag =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Attribution of N identical baseline variants only — skips the \
                   sanitizer pipeline and the solo overhead runs.")
  in
  let legacy bench sanitizer save =
    let prog = bench.Bench.prog in
    let base = Profile.measure (Program.baseline prog) ~seed:Experiments.train_seed in
    let inst = Profile.measure (Program.full [ sanitizer ] prog) ~seed:Experiments.train_seed in
    (match save with
     | Some file ->
       write_file file (Profile.to_string inst);
       Printf.printf "profile written to %s\n" file
     | None -> ());
    Printf.printf "%s under %s: total %.0f -> %.0f us (%s)\n\n" prog.Program.name
      (Sanitizer.name sanitizer) base.Profile.total_time inst.Profile.total_time
      (Stats.pct (Profile.total_overhead ~baseline:base ~instrumented:inst));
    let oh = Profile.overhead_by_func ~baseline:base ~instrumented:inst in
    let top = List.sort (fun (_, a) (_, b) -> compare b a) oh in
    Printf.printf "top check overheads (us on the train workload):\n";
    List.iteri
      (fun i (f, v) -> if i < 10 && v > 0.0 then Printf.printf "  %-20s %10.0f\n" f v)
      top
  in
  let run bench n config sanitizer save functions json collapsed out trace quick =
    if functions then legacy bench sanitizer save
    else begin
      let config =
        match trace with
        | None -> config
        | Some _ -> { config with Nxe.telemetry = Some (Telemetry.create ()) }
      in
      let attr, summary =
        if quick then begin
          let builds = List.init n (fun _ -> Program.baseline bench.Bench.prog) in
          let attr, r =
            Experiments.attribution_run ~config ~workload:bench.Bench.name
              ~seed:Experiments.ref_seed builds
          in
          (attr, Printf.sprintf "quick attribution: %d identical baseline variants, %.0f us\n"
                   n r.Nxe.total_time)
        end
        else begin
          let oa = Experiments.overhead_attribution ~n ~config bench in
          ( oa.Experiments.oa_attr,
            Printf.sprintf
              "max-vs-sum: solo overheads max %s sum %s, group %s -> max %s group slowdown\n"
              (Stats.pct oa.Experiments.oa_max_solo) (Stats.pct oa.Experiments.oa_sum_solo)
              (Stats.pct oa.Experiments.oa_group_overhead)
              (if oa.Experiments.oa_max_tracks_group then "tracks" else "DOES NOT track") )
        end
      in
      let body =
        if json then Profile.attribution_to_json attr
        else if collapsed then Profile.attribution_collapsed attr
        else Profile.attribution_to_text attr ^ "\n" ^ summary
      in
      (* Exporter self-check before anything touches the file: a truncated
         or malformed report must fail loudly, not downstream. *)
      if json then begin
        match Json.parse body with
        | Ok _ -> Printf.eprintf "profile JSON: valid (%d bytes)\n" (String.length body)
        | Error e ->
          Printf.eprintf "profile JSON: INVALID: %s\n" e;
          exit 1
      end;
      (match out with
       | None ->
         print_string body;
         if body <> "" && body.[String.length body - 1] <> '\n' then print_newline ()
       | Some file ->
         write_file file body;
         Printf.printf "attribution written to %s\n" file);
      match (trace, config.Nxe.telemetry) with
      | Some file, Some sink ->
        let tc = Telemetry.recorder sink in
        write_file file (Trace_ctx.to_chrome_json tc);
        Printf.printf "trace written to %s (%d events)\n" file (Trace_ctx.used tc)
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Overhead attribution: run N variants under the NXE and report each \
             variant's per-phase time decomposition (compute, sanitizer, publish, \
             fetch, lockstep wait, ...), the straggler at every sync point, and the \
             max-vs-sum overhead rule.  --functions selects the legacy per-function \
             profile that drives check distribution.")
    Term.(const run $ profile_bench_arg $ n_arg $ lockstep_arg $ sanitizer_arg $ save_arg
          $ functions_flag $ json_flag $ collapsed_flag $ out_arg $ trace_arg $ quick_flag)

let generate_cmd =
  let run bench n mode sanitizer block_split profile_file =
    match plan_of ~block_split ?profile_file ~mode ~n ~sanitizer bench with
    | Error (`Msg e) ->
      Printf.eprintf "error: %s\n" e;
      exit 1
    | Ok plan ->
      Format.printf "%a" Variant.pp_plan plan;
      Printf.printf "coverage complete: %b\n" (Variant.coverage_complete plan)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a variant plan (Figure 1, steps 3-4).")
    Term.(const run $ bench_arg $ n_arg $ mode_arg $ sanitizer_arg $ block_split_arg $ load_arg)

let run_cmd =
  let run bench n mode sanitizer block_split config =
    match plan_of ~block_split ~mode ~n ~sanitizer bench with
    | Error (`Msg e) ->
      Printf.eprintf "error: %s\n" e;
      exit 1
    | Ok plan ->
      let builds = Variant.builds plan in
      let solo =
        Experiments.solo_time (Program.baseline bench.Bench.prog) ~seed:Experiments.ref_seed
      in
      let r = Experiments.nxe_run ~config ~seed:Experiments.ref_seed builds in
      Printf.printf "baseline  %10.0f us\n" solo;
      Printf.printf "bunshin   %10.0f us  (%s overhead)\n" r.Nxe.total_time
        (Stats.pct (Stats.overhead ~baseline:solo ~measured:r.Nxe.total_time));
      Printf.printf "synced %d syscalls (%d locksteped), avg gap %.1f, order list %d\n"
        r.Nxe.synced_syscalls r.Nxe.lockstep_syscalls r.Nxe.avg_syscall_gap
        r.Nxe.order_list_length;
      (match r.Nxe.outcome with
       | `All_finished -> Printf.printf "outcome: all variants finished, no divergence\n"
       | `Aborted a ->
         Printf.printf "outcome: ABORT — variant %d diverged at %s (expected %s)\n"
           a.Nxe.al_variant a.Nxe.al_got a.Nxe.al_expected)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Generate variants and run them under the NXE.")
    Term.(const run $ bench_arg $ n_arg $ mode_arg $ sanitizer_arg $ block_split_arg $ lockstep_arg)

let ripe_cmd =
  let run () =
    let row name env =
      let s, p, f, n = Ripe.table env in
      Printf.printf "%-8s %5d %5d %5d %5d\n" name s p f n
    in
    Printf.printf "%-8s %5s %5s %5s %5s\n" "config" "succ" "prob" "fail" "n/a";
    row "default" Ripe.Vanilla;
    row "asan" Ripe.With_asan;
    row "bunshin" (Ripe.With_bunshin 2)
  in
  Cmd.v (Cmd.info "ripe" ~doc:"Replay the RIPE attack matrix (Table 3).")
    Term.(const run $ const ())

let cve_cmd =
  let run () =
    List.iter
      (fun case ->
        let v = Cve.evaluate case in
        Printf.printf "%-16s CVE-%-10s %-16s %-6s detect=%b benign-clean=%b\n"
          case.Cve.c_program case.Cve.c_cve case.Cve.c_exploit case.Cve.c_sanitizer
          v.Cve.v_bunshin_detects v.Cve.v_benign_clean)
      Cve.cases
  in
  Cmd.v (Cmd.info "cve" ~doc:"Replay the five CVE case studies (Table 4).")
    Term.(const run $ const ())

let forensics_cmd =
  let case_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"CASE"
             ~doc:"CVE case program name (e.g. nginx-1.4.0); default: all cases.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit each incident as JSON.")
  in
  let run config case json =
    let selected =
      match case with
      | None -> Cve.cases
      | Some name -> List.filter (fun c -> c.Cve.c_program = name) Cve.cases
    in
    if selected = [] then
      invalid_arg
        (Printf.sprintf "unknown case %S (try `bunshin cve' for the list)"
           (Option.value case ~default:""));
    List.iter
      (fun c ->
        let report =
          Bridge.run_ir_variants ~config ~entry:c.Cve.c_entry
            ~args:c.Cve.c_exploit_args (Cve.variants c)
        in
        match (report.Nxe.outcome, report.Nxe.incident) with
        | `All_finished, _ ->
          Printf.printf "%-16s CVE-%-10s no divergence (all variants finished)\n"
            c.Cve.c_program c.Cve.c_cve
        | `Aborted _, None ->
          (* run_traces files an incident with every abort; this is a bug. *)
          Printf.eprintf "%-16s CVE-%-10s aborted without an incident\n"
            c.Cve.c_program c.Cve.c_cve;
          exit 1
        | `Aborted _, Some inc ->
          if json then print_endline (Forensics.to_json inc)
          else begin
            Printf.printf "== %s CVE-%s (%s, %s) ==\n" c.Cve.c_program c.Cve.c_cve
              c.Cve.c_exploit c.Cve.c_sanitizer;
            print_string (Forensics.to_text inc);
            print_newline ()
          end)
      selected
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:"Run the CVE case studies' sliced variants under the NXE on their exploit \
             inputs and print the divergence incident report: per-variant flight-recorder \
             tapes, majority-vote blame, and the attributed sanitizer check site.")
    Term.(const run $ lockstep_arg $ case_arg $ json_arg)

let exec_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .bir IR file.")
  in
  let args_arg =
    Arg.(value & opt (list int) [] & info [ "args" ] ~docv:"ARGS" ~doc:"main's integer arguments.")
  in
  let sans_arg =
    Arg.(value & opt_all string []
         & info [ "sanitizer" ] ~docv:"SAN"
             ~doc:"Instrument with this sanitizer before running (repeatable).")
  in
  let run file args sans =
    let src = read_file file in
    match Ir_parser.parse src with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 1
    | Ok m -> (
      (match Verify.check m with
       | Ok () -> ()
       | Error e ->
         Printf.eprintf "verification failed:\n%s\n" e;
         exit 1);
      let resolve = function
        | "asan" -> Sanitizer.asan
        | "msan" -> Sanitizer.msan
        | "softbound" -> Sanitizer.softbound
        | "cets" -> Sanitizer.cets
        | "cfi" -> Sanitizer.cfi
        | "safecode" -> Sanitizer.safecode
        | "stack-cookie" -> Sanitizer.stack_cookie
        | s -> (
          match Sanitizer.find_ubsan_sub s with
          | Some sub -> sub
          | None ->
            Printf.eprintf "unknown sanitizer %s\n" s;
            exit 1)
      in
      let m =
        if sans = [] then m
        else
          match Instrument.apply (List.map resolve sans) m with
          | Ok m -> m
          | Error e ->
            Printf.eprintf "cannot instrument: %s\n" e;
            exit 1
      in
      let r =
        Interp.run_compiled (Interp.compile m) ~entry:"main"
          ~args:(List.map Int64.of_int args)
      in
      List.iter
        (function
          | Interp.Output v -> Printf.printf "print: %Ld\n" v
          | Interp.Syscall (name, a) ->
            Printf.printf "syscall: %s(%s)\n" name
              (String.concat ", " (List.map Int64.to_string a)))
        r.Interp.events;
      List.iter
        (fun h ->
          Printf.printf "silent hazard: %s\n"
            (Memory_error.name (Memory_error.of_hazard h)))
        r.Interp.hazards;
      match r.Interp.outcome with
      | Interp.Finished v ->
        Printf.printf "exit: %s\n" (Option.fold ~none:"void" ~some:Int64.to_string v)
      | Interp.Detected d ->
        Printf.printf "DETECTED: %s in %s\n" d.Interp.d_handler d.Interp.d_func;
        exit 2
      | Interp.Crashed _ ->
        Printf.printf "CRASHED\n";
        exit 3
      | Interp.Fuel_exhausted ->
        Printf.printf "fuel exhausted\n";
        exit 4)
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Parse, verify, optionally instrument, and run a .bir IR file.")
    Term.(const run $ file_arg $ args_arg $ sans_arg)

let window_cmd =
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-9s %-6s payload: %2d malicious syscalls executed, detected: %b\n"
          w.Window.wr_mode
          (match w.Window.wr_payload with Window.Reads -> "read" | Window.Writes -> "write")
          w.Window.wr_executed w.Window.wr_detected)
      (Window.summary ())
  in
  Cmd.v
    (Cmd.info "window" ~doc:"Measure the attack window a compromised leader gets (5.3).")
    Term.(const run $ const ())

let nvariant_cmd =
  let run () =
    let v = Nvariant.evaluate () in
    Printf.printf "write-what-where exploit against disjoint layouts:\n";
    Printf.printf "  hijacks A %b, hijacks B %b, diverges %b, detected %b\n"
      v.Nvariant.nv_hijacked_a v.Nvariant.nv_hijacked_b v.Nvariant.nv_diverged
      v.Nvariant.nv_detected;
    Printf.printf "  single shared layout: attack escapes = %b\n"
      (Nvariant.single_layout_escapes ())
  in
  Cmd.v
    (Cmd.info "nvariant" ~doc:"Layout-diversification defense demo (disjoint address spaces).")
    Term.(const run $ const ())

let trace_cmd =
  let bench_arg =
    let bconv =
      Arg.conv ((fun s -> find_bench s), fun fmt b -> Format.fprintf fmt "%s" b.Bench.name)
    in
    let default = match find_bench "bzip2" with Ok b -> b | Error _ -> assert false in
    Arg.(value & pos 0 bconv default
         & info [] ~docv:"BENCH" ~doc:"Benchmark to trace (default bzip2).")
  in
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Chrome trace_event output file.")
  in
  let metrics_out_arg =
    Arg.(value & opt string "metrics.json"
         & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Metrics dump output file.")
  in
  let metrics_flag =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Also print the flat metrics export (one metric per line) to stdout.")
  in
  let print_hist (name, h) =
    Printf.printf "  %-18s" name;
    List.iter
      (fun (b, c) ->
        if c > 0 then
          if Float.is_finite b then Printf.printf "  <=%g:%d" b c
          else Printf.printf "  inf:%d" c)
      h;
    print_newline ()
  in
  let nodes_arg =
    Arg.(value & opt int 1
         & info [ "nodes" ] ~docv:"K"
             ~doc:"Also run a distributed stage on K machine nodes — populates the \
                   net.* wire counters and the net_rtt_us histogram in the metrics \
                   export.")
  in
  let run bench n config nodes out metrics_file print_metrics spans spans_out =
    if nodes < 1 then invalid_arg "trace: --nodes must be >= 1";
    let sink = Telemetry.create () in
    let tc = Telemetry.recorder sink in
    let config = { config with Nxe.telemetry = Some sink } in
    (* Stage 1: the benchmark as N identical baseline builds under the NXE —
       populates the machine and nxe clock domains. *)
    let builds = List.init n (fun _ -> Program.baseline bench.Bench.prog) in
    let r = Experiments.nxe_run ~config ~seed:Experiments.ref_seed builds in
    Printf.printf "bench stage: %s x%d, %.0f us, synced %d syscalls (%d locksteped)\n"
      bench.Bench.name n r.Nxe.total_time r.Nxe.synced_syscalls r.Nxe.lockstep_syscalls;
    List.iter print_hist r.Nxe.histograms;
    (* Distributed stage: the same fleet spread over the requested nodes,
       so the per-link wire counters land in the same sink. *)
    if nodes > 1 then begin
      let cconfig = { Cluster.default_config with nodes } in
      let trace =
        Program.build_trace (Program.baseline bench.Bench.prog) ~seed:Experiments.ref_seed
      in
      let names = List.init n (fun i -> Printf.sprintf "v%d" i) in
      let cr =
        Cluster.run_traces ~config:cconfig ~engine:config ~names (List.init n (fun _ -> trace))
      in
      Printf.printf "cluster stage: %d nodes (%s), %.0f us, %d bytes in %d msgs on the wire\n"
        nodes
        (Cluster.mode_name cconfig.Cluster.ship)
        cr.Cluster.total_time cr.Cluster.bytes_on_wire cr.Cluster.msgs_on_wire;
      List.iter print_hist cr.Cluster.histograms
    end;
    (* Stage 2: a full-stack IR run (sanitized CVE module, benign input,
       two variants) — populates the per-variant interp domains. *)
    (match Cve.cases with
     | case :: _ ->
       let inst = Instrument.apply_exn [ Sanitizer.asan ] case.Cve.c_modul in
       let ir =
         Bridge.run_ir_variants ~config ~entry:case.Cve.c_entry ~args:case.Cve.c_benign
           [ inst; inst ]
       in
       Printf.printf "ir stage: %s (benign input), %.0f us, synced %d syscalls\n"
         case.Cve.c_program ir.Nxe.total_time ir.Nxe.synced_syscalls
     | [] -> ());
    let chrome = Trace_ctx.to_chrome_json tc in
    (* Exporter self-check: the emitted trace must actually be JSON, or
       chrome://tracing will reject the file with no useful message. *)
    (match Json.parse chrome with
     | Ok _ -> Printf.printf "trace JSON: valid (%d bytes)\n" (String.length chrome)
     | Error e ->
       Printf.eprintf "trace JSON: INVALID: %s\n" e;
       exit 1);
    write_file out chrome;
    write_file metrics_file (Telemetry.metrics_to_json sink);
    Printf.printf "wrote %s (%d events, %d dropped) and %s\n" out (Trace_ctx.used tc)
      (Trace_ctx.dropped tc) metrics_file;
    if print_metrics then print_string (Telemetry.metrics_to_text sink);
    span_report ~label:bench.Bench.name tc ~show:spans ~spans_out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a traced session and export a Chrome trace_event JSON (open in \
             chrome://tracing or Perfetto) plus a metrics dump.")
    Term.(const run $ bench_arg $ n_arg $ lockstep_arg $ nodes_arg $ out_arg
          $ metrics_out_arg $ metrics_flag $ spans_flag $ spans_out_arg)

let robustness_cmd =
  let run () =
    let results = Experiments.robustness () in
    List.iter
      (fun (n, clean) -> Printf.printf "%-16s %s\n" n (if clean then "clean" else "FALSE ALERT"))
      results;
    Printf.printf "--\nunsupported (racy) members:\n";
    List.iter
      (fun (n, problem) ->
        Printf.printf "%-16s %s\n" n (if problem then "fails as expected" else "unexpectedly clean"))
      (Experiments.unsupported_demo ())
  in
  Cmd.v
    (Cmd.info "robustness" ~doc:"The 5.1 robustness sweep: false-positive check on all suites.")
    Term.(const run $ const ())

let status_str = function
  | Nxe.Healthy -> "healthy"
  | Nxe.Quarantined { q_time; q_cause; q_restarts } ->
    Printf.sprintf "QUARANTINED at %.1fus (%s, %d restarts)" q_time
      (Nxe.cause_string q_cause) q_restarts
  | Nxe.Recovered { q_time; q_cause; r_time } ->
    Printf.sprintf "recovered at %.1fus (quarantined %.1fus, %s)" r_time q_time
      (Nxe.cause_string q_cause)

let print_incidents ~json incidents =
  List.iter
    (fun inc ->
      if json then print_endline (Forensics.to_json inc)
      else begin
        print_newline ();
        print_string (Forensics.to_text inc)
      end)
    incidents

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed.")
  in
  let count_arg =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"K" ~doc:"Number of injected faults.")
  in
  let policy_arg =
    let policy_conv =
      Arg.conv
        ( (function
           | "abort" -> Ok Nxe.Abort_on_fault
           | "quarantine" -> Ok Nxe.Quarantine
           | "restart" -> Ok Nxe.Restart_once
           | s -> Error (`Msg ("unknown policy " ^ s))),
          fun fmt p ->
            Format.fprintf fmt "%s"
              (match p with
               | Nxe.Abort_on_fault -> "abort"
               | Nxe.Quarantine -> "quarantine"
               | Nxe.Restart_once -> "restart") )
    in
    Arg.(value & opt policy_conv Nxe.Quarantine
         & info [ "policy" ]
             ~doc:"Benign-fault recovery: abort (fail-stop), quarantine (retire the \
                   variant, keep N-1 running), restart (one re-execution attempt).")
  in
  let heartbeat_arg =
    Arg.(value & opt float 100.0
         & info [ "heartbeat" ] ~docv:"US"
             ~doc:"Watchdog heartbeat timeout in machine-µs (inf disables it).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit fault incidents as JSON.")
  in
  let run config n seed count policy heartbeat json =
    let units = 24 in
    let trace =
      List.concat
        (List.init units (fun i ->
             [
               Trace.Work { func = "serve"; cost = 5.0 };
               Trace.Sys (Syscall.read ~args:[ 3L; Int64.of_int i ] ());
             ]))
    in
    (* Rotating two-label coverage sets: adjacent variants overlap, so a
       single quarantine usually costs nothing and a targeted one shows a
       real hole — both outcomes are reachable from the CLI. *)
    let pool = [| "asan"; "msan"; "ubsan"; "lowfat"; "softbound" |] in
    let label i = pool.(i mod Array.length pool) in
    let coverage = List.init n (fun i -> [ label i; label (i + 1) ]) in
    let faults = Faults.plan ~seed ~variants:n ~syscalls:units ~count () in
    Format.printf "%a@." Faults.pp_plan faults;
    let config =
      { config with
        Nxe.fault_policy =
          { Nxe.policy; heartbeat_timeout = heartbeat; restart_backoff = 50.0 } }
    in
    let names = List.init n (fun i -> Printf.sprintf "v%d" i) in
    let r = Nxe.run_traces ~config ~faults ~coverage ~names (List.init n (fun _ -> trace)) in
    (match r.Nxe.outcome with
     | `All_finished ->
       Printf.printf "outcome: all finished in %.1fus (%d/%d syscalls executed)\n"
         r.Nxe.total_time r.Nxe.executed_syscalls units
     | `Aborted a ->
       Printf.printf "outcome: ABORTED blaming v%d at %.1fus (%d/%d syscalls executed)\n"
         a.Nxe.al_variant r.Nxe.total_time r.Nxe.executed_syscalls units);
    List.iteri
      (fun i (name, s) ->
        Printf.printf "  %-4s %-24s %s\n" name
          (String.concat "+" (List.nth coverage i))
          (status_str s))
      (List.combine names r.Nxe.variant_status);
    (match r.Nxe.coverage_loss with
     | [] -> Printf.printf "coverage loss: none\n"
     | lost -> Printf.printf "coverage loss: %s\n" (String.concat ", " lost));
    print_incidents ~json (r.Nxe.fault_incidents @ Option.to_list r.Nxe.incident)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Chaos-test the NXE: run N identical variants with a seeded deterministic \
             fault plan (stalls, benign deaths, delays, corruptions) and report the \
             recovery verdict — per-variant status, sanitizer-coverage loss, and the \
             fault-isolation incidents.")
    Term.(const run $ lockstep_arg $ n_arg $ seed_arg $ count_arg $ policy_arg
          $ heartbeat_arg $ json_arg)

let cluster_cmd =
  let bench_arg =
    let find name =
      match find_bench name with
      | Ok b -> Ok b
      | Error _ as e -> (
        match name with
        | "lighttpd" -> Ok (Server.make Server.Lighttpd ~file_kb:1 ~connections:16 ~requests:40)
        | "nginx" -> Ok (Server.make Server.Nginx ~file_kb:1 ~connections:16 ~requests:40)
        | _ -> e)
    in
    let bconv = Arg.conv ((fun s -> find s), fun fmt b -> Format.fprintf fmt "%s" b.Bench.name) in
    let default = match find "bzip2" with Ok b -> b | Error _ -> assert false in
    Arg.(value & pos 0 bconv default
         & info [] ~docv:"BENCH" ~doc:"Benchmark name (also: lighttpd, nginx); default bzip2.")
  in
  let nodes_arg =
    Arg.(value & opt int 2 & info [ "nodes" ] ~docv:"K" ~doc:"Number of machine nodes.")
  in
  let ship_conv =
    Arg.conv
      ( (function
         | "naive" -> Ok Cluster.Full_remote_lockstep
         | "selective" -> Ok Cluster.Selective
         | "replicated" -> Ok Cluster.Selective_replicated
         | s -> Error (`Msg ("unknown ship mode " ^ s))),
        fun fmt s -> Format.fprintf fmt "%s" (Cluster.mode_name s) )
  in
  let ship_arg =
    Arg.(value & opt ship_conv Cluster.Selective_replicated
         & info [ "ship" ]
             ~doc:"Remote cross-checking mode: naive (every slot round-trips with raw \
                   buffers), selective (only security-sensitive syscalls round-trip), \
                   replicated (selective + read results served from the local replica).")
  in
  let compare_flag =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"Run all three ship modes and check they agree bit-for-bit on the \
                   divergence verdict and incident signature.")
  in
  let diverge_arg =
    Arg.(value & opt (some int) None
         & info [ "diverge" ] ~docv:"K"
             ~doc:"Perturb the last variant's K-th syscall argument — an injected \
                   compromise the remote check must catch.")
  in
  let chaos_arg =
    Arg.(value & opt (some int) None
         & info [ "chaos" ] ~docv:"SEED"
             ~doc:"Inject a seeded deterministic fault plan (stalls, benign deaths, \
                   delays, corruptions).")
  in
  let policy_arg =
    let cluster_policy_conv =
      Arg.conv
        ( (function
           | "abort" -> Ok Nxe.Abort_on_fault
           | "quarantine" -> Ok Nxe.Quarantine
           | s -> Error (`Msg ("unknown policy " ^ s ^ " (clusters support abort, quarantine)"))),
          fun fmt p ->
            Format.fprintf fmt "%s"
              (match p with Nxe.Quarantine -> "quarantine" | _ -> "abort") )
    in
    Arg.(value & opt cluster_policy_conv Nxe.Quarantine
         & info [ "policy" ] ~doc:"Benign-fault recovery on faults: abort or quarantine.")
  in
  let heartbeat_arg =
    Arg.(value & opt float 5000.0
         & info [ "heartbeat" ] ~docv:"US"
             ~doc:"Watchdog heartbeat timeout in machine-µs — must exceed the \
                   workload's longest syscall-free compute stretch.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit incidents as JSON.") in
  let report_one ~names ~syscalls ~json r =
    (match r.Cluster.outcome with
     | `All_finished ->
       Printf.printf "outcome: all finished in %.1fus (%d/%d syscalls executed)\n"
         r.Cluster.total_time r.Cluster.executed_syscalls syscalls
     | `Aborted a ->
       Printf.printf "outcome: ABORTED blaming v%d at channel %d pos %d (expected %s, got %s)\n"
         a.Nxe.al_variant a.Nxe.al_channel a.Nxe.al_position a.Nxe.al_expected a.Nxe.al_got);
    Printf.printf "placement:";
    List.iteri (fun v node -> Printf.printf " v%d->n%d" v node) r.Cluster.placement;
    print_newline ();
    List.iteri
      (fun i s -> Printf.printf "  %-4s %s\n" (List.nth names i) (status_str s))
      r.Cluster.variant_status;
    (match r.Cluster.coverage_loss with
     | [] -> ()
     | lost -> Printf.printf "coverage loss: %s\n" (String.concat ", " lost));
    Printf.printf
      "synced %d syscalls (%d locksteped, %d remote-checked, %d results replicated)\n"
      r.Cluster.synced_syscalls r.Cluster.lockstep_syscalls r.Cluster.remote_checked
      r.Cluster.replicated_results;
    let tf = r.Cluster.traffic in
    Printf.printf "wire: %d bytes in %d msgs\n" r.Cluster.bytes_on_wire r.Cluster.msgs_on_wire;
    Printf.printf "traffic: ship=%d batch=%d release=%d ack=%d flow=%d order=%d\n"
      tf.Cluster.tf_ship tf.Cluster.tf_batch tf.Cluster.tf_release tf.Cluster.tf_ack
      tf.Cluster.tf_flow tf.Cluster.tf_order;
    List.iter
      (fun (lname, st) ->
        Printf.printf "  link %-8s msgs=%d bytes=%d retransmits=%d\n" lname st.Net.s_msgs
          st.Net.s_bytes st.Net.s_retransmits)
      r.Cluster.link_stats;
    print_incidents ~json (r.Cluster.fault_incidents @ Option.to_list r.Cluster.incident)
  in
  let run bench n nodes ship compare diverge chaos policy heartbeat json spans spans_out =
    let sink =
      (* With --compare, three runs would interleave in one recorder; keep
         span capture to the single-run path. *)
      if (spans || spans_out <> None) && not compare then Some (Telemetry.create ())
      else None
    in
    let base = Program.build_trace (Program.baseline bench.Bench.prog) ~seed:Experiments.ref_seed in
    let syscalls =
      List.fold_left (fun a op -> match op with Trace.Sys _ -> a + 1 | _ -> a) 0 base
    in
    let traces =
      List.init n (fun i ->
          match diverge with Some k when i = n - 1 -> Trace.perturb_syscall ~k base | _ -> base)
    in
    let names = List.init n (fun i -> Printf.sprintf "v%d" i) in
    let faults = Option.map (fun seed -> Faults.plan ~seed ~variants:n ~syscalls ()) chaos in
    Option.iter (Format.printf "%a@." Faults.pp_plan) faults;
    let engine =
      { Nxe.default_config with
        telemetry = sink;
        fault_policy =
          (* The watchdog only matters when faults are injected; leave it
             off otherwise so a long syscall-free stretch is not a stall. *)
          (if chaos = None then Nxe.default_policy
           else { Nxe.policy; heartbeat_timeout = heartbeat; restart_backoff = 50.0 }) }
    in
    let run1 ship =
      Cluster.run_traces ~config:{ Cluster.default_config with nodes; ship } ~engine ?faults
        ~names traces
    in
    if not compare then begin
      Printf.printf "%s x%d on %d nodes, %s shipping\n" bench.Bench.name n nodes
        (Cluster.mode_name ship);
      report_one ~names ~syscalls ~json (run1 ship);
      Option.iter
        (fun sink ->
          span_report ~label:bench.Bench.name (Telemetry.recorder sink) ~show:spans ~spans_out)
        sink
    end
    else begin
      let all = [ Cluster.Full_remote_lockstep; Cluster.Selective; Cluster.Selective_replicated ] in
      let t =
        Table.create
          [
            ("mode", Table.Left); ("bytes", Table.Right); ("msgs", Table.Right);
            ("sim us", Table.Right); ("verdict", Table.Left);
          ]
      in
      let results =
        List.map
          (fun ship ->
            let r = run1 ship in
            let verdict =
              match r.Cluster.outcome with
              | `All_finished -> "clean"
              | `Aborted a ->
                Printf.sprintf "aborted: v%d at pos %d" a.Nxe.al_variant a.Nxe.al_position
            in
            Table.add_row t
              [
                Cluster.mode_name ship; string_of_int r.Cluster.bytes_on_wire;
                string_of_int r.Cluster.msgs_on_wire;
                Printf.sprintf "%.0f" r.Cluster.total_time; verdict;
              ];
            r)
          all
      in
      Table.print t;
      let signature r =
        ( (match r.Cluster.outcome with `All_finished -> None | `Aborted a -> Some a),
          Option.map Cluster.incident_signature r.Cluster.incident,
          List.map Cluster.incident_signature r.Cluster.fault_incidents )
      in
      match results with
      | first :: rest ->
        if List.for_all (fun r -> signature r = signature first) rest then
          print_endline
            "verdict parity: naive, selective and replicated agree (alerts and incident \
             signatures identical)"
        else begin
          print_endline "VERDICT MISMATCH between ship modes";
          exit 1
        end
      | [] -> ()
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run the fleet distributed over several machine nodes (the DMON/dMVX \
             architecture): ship the leader's syscall stream over deterministic \
             network links, cross-check remotely, and report the wire traffic. \
             --compare proves the three ship modes agree on the verdict.")
    Term.(const run $ bench_arg $ n_arg $ nodes_arg $ ship_arg $ compare_flag
          $ diverge_arg $ chaos_arg $ policy_arg $ heartbeat_arg $ json_arg
          $ spans_flag $ spans_out_arg)

let slo_cmd =
  let kind_arg =
    let kconv =
      Arg.conv
        ( (function
           | "lighttpd" -> Ok Server.Lighttpd
           | "nginx" -> Ok Server.Nginx
           | s -> Error (`Msg ("unknown server kind " ^ s ^ " (lighttpd, nginx)"))),
          fun fmt k -> Format.fprintf fmt "%s" (Server.kind_name k) )
    in
    Arg.(value & opt kconv Server.Lighttpd
         & info [ "kind" ] ~docv:"SERVER" ~doc:"Server workload: lighttpd or nginx.")
  in
  let nodes_arg =
    Arg.(value & opt int 1
         & info [ "nodes" ] ~docv:"K"
             ~doc:"Run the fleet on K machine nodes (selective shipping) instead of the \
                   single-host engine.")
  in
  let requests_arg =
    Arg.(value & opt int 40
         & info [ "requests" ] ~docv:"R" ~doc:"Total requests the server run serves.")
  in
  let file_kb_arg =
    Arg.(value & opt int 1 & info [ "file-kb" ] ~docv:"KB" ~doc:"Response size per request.")
  in
  let sub_windows_arg =
    Arg.(value & opt int 8
         & info [ "sub-windows" ] ~docv:"S" ~doc:"Sliding-window ring size (sub-histograms).")
  in
  let sub_us_arg =
    Arg.(value & opt float 2000.0
         & info [ "sub-us" ] ~docv:"US" ~doc:"Span of one sub-window, machine-µs.")
  in
  let prometheus_flag =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Dump the metrics registry (including the slo.* gauges) in Prometheus \
                   text exposition format to stdout.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the SLO summary as a JSON object.")
  in
  let run kind n nodes requests file_kb sub_windows sub_us prometheus json spans spans_out =
    if nodes < 1 then invalid_arg "slo: --nodes must be >= 1";
    let bench = Server.make kind ~file_kb ~connections:16 ~requests in
    let sink = Telemetry.create () in
    let tc = Telemetry.recorder sink in
    let label =
      Printf.sprintf "%s x%d (%s)" bench.Bench.name n
        (if nodes = 1 then "single node" else Printf.sprintf "%d nodes" nodes)
    in
    let engine = { Nxe.selective with telemetry = Some sink } in
    let total_time =
      if nodes = 1 then begin
        let builds = List.init n (fun _ -> Program.baseline bench.Bench.prog) in
        let r = Experiments.nxe_run ~config:engine ~seed:Experiments.ref_seed builds in
        r.Nxe.total_time
      end
      else begin
        let config = { Cluster.default_config with nodes; ship = Cluster.Selective } in
        let trace =
          Program.build_trace (Program.baseline bench.Bench.prog) ~seed:Experiments.ref_seed
        in
        let names = List.init n (fun i -> Printf.sprintf "v%d" i) in
        let r = Cluster.run_traces ~config ~engine ~names (List.init n (fun _ -> trace)) in
        r.Cluster.total_time
      end
    in
    let samples = Trace_ctx.rendezvous_samples tc in
    let w = Telemetry.Slo.window ~sub_windows ~sub_us () in
    List.iter (fun (t1, lat) -> Telemetry.Slo.observe w ~now:t1 lat) samples;
    let now = match List.rev samples with (t1, _) :: _ -> t1 | [] -> total_time in
    let qs = Telemetry.Slo.quantiles w ~now [ 50.0; 95.0; 99.0; 99.9 ] in
    let p50, p95, p99, p999 =
      match qs with [ a; b; c; d ] -> (a, b, c, d) | _ -> (0.0, 0.0, 0.0, 0.0)
    in
    let target =
      { Telemetry.Slo.slo_quantile = 99.0; slo_limit_us = Server.slo_target_us kind }
    in
    let breach = Telemetry.Slo.breach_fraction w ~now target in
    let burn = Telemetry.Slo.burn_rate w ~now target in
    Telemetry.Gauge.set (Telemetry.gauge sink "slo.rendezvous_p50_us") p50;
    Telemetry.Gauge.set (Telemetry.gauge sink "slo.rendezvous_p99_us") p99;
    Telemetry.Gauge.set (Telemetry.gauge sink "slo.breach_fraction") breach;
    Telemetry.Gauge.set (Telemetry.gauge sink "slo.burn_rate") burn;
    Telemetry.Counter.incr ~by:(List.length samples)
      (Telemetry.counter sink "slo.rendezvous_total");
    if json then
      Printf.printf
        "{\"workload\":%S,\"nodes\":%d,\"rendezvous\":%d,\"window_us\":%g,\"p50_us\":%g,\
         \"p95_us\":%g,\"p99_us\":%g,\"p999_us\":%g,\"slo_limit_us\":%g,\
         \"breach_fraction\":%g,\"burn_rate\":%g}\n"
        bench.Bench.name nodes (List.length samples)
        (Telemetry.Slo.span_us w) p50 p95 p99 p999 target.Telemetry.Slo.slo_limit_us breach
        burn
    else begin
      Printf.printf "%s: %d synchronized rendezvous in %.0f us\n" label (List.length samples)
        total_time;
      Printf.printf "windowed latency (last %.0f us): p50 %.2f  p95 %.2f  p99 %.2f  p999 %.2f us\n"
        (Telemetry.Slo.span_us w) p50 p95 p99 p999;
      Printf.printf "SLO: p99 <= %.1f us -> breach fraction %.4f, burn rate %.2f%s\n"
        target.Telemetry.Slo.slo_limit_us breach burn
        (if burn > 1.0 then "  (VIOLATING: budget burning too fast)" else "");
      print_string (Trace_ctx.attribution_to_text ~label (Trace_ctx.critical_paths tc))
    end;
    if prometheus then print_string (Telemetry.metrics_to_prometheus sink);
    span_report ~label tc ~show:spans ~spans_out
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:"Run a server workload under the NXE (or a cluster with --nodes), monitor \
             per-rendezvous latency through the sliding-window SLO monitor, and report \
             live tail percentiles, burn rate and the critical-path attribution.")
    Term.(const run $ kind_arg $ n_arg $ nodes_arg $ requests_arg $ file_kb_arg
          $ sub_windows_arg $ sub_us_arg $ prometheus_flag $ json_flag $ spans_flag
          $ spans_out_arg)

(* ------------------------------------------------------------------ *)
(* serve: open-loop load over a pool of NXE groups -> throughput-latency
   curve with admission control *)

let serve_cmd =
  let kind_arg =
    let kconv =
      Arg.conv
        ( (fun s ->
            match s with
            | "lighttpd" -> Ok Server.Lighttpd
            | "nginx" -> Ok Server.Nginx
            | s -> Error (`Msg (Printf.sprintf "unknown server %S (lighttpd|nginx)" s))),
          fun fmt k -> Format.fprintf fmt "%s" (Server.kind_name k) )
    in
    Arg.(value & opt kconv Server.Lighttpd
         & info [ "kind" ] ~docv:"SERVER" ~doc:"Server workload: lighttpd or nginx.")
  in
  let requests_arg =
    Arg.(value & opt int 300
         & info [ "requests" ] ~docv:"R" ~doc:"Requests per offered-load point.")
  in
  let pool_arg =
    Arg.(value & opt int 8 & info [ "pool" ] ~docv:"G" ~doc:"Max concurrent NXE groups.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"Q"
             ~doc:"Admission-queue capacity; arrivals beyond it are rejected (backpressure).")
  in
  let batch_arg =
    Arg.(value & opt int 4
         & info [ "batch" ] ~docv:"B" ~doc:"Max requests handed to a group per dispatch.")
  in
  let rps_arg =
    Arg.(value & opt (list float) []
         & info [ "rps" ] ~docv:"RPS,..."
             ~doc:"Offered-load points (requests/s).  Default: a geometric sweep around \
                   the pool's capacity knee.")
  in
  let file_kb_arg =
    Arg.(value & opt int 1 & info [ "file-kb" ] ~docv:"KB" ~doc:"Response size per request.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Arrival-process seed.")
  in
  let jitter_arg =
    Arg.(value & opt float 0.3
         & info [ "jitter" ] ~docv:"J"
             ~doc:"Per-request service-time jitter, uniform in [1-J, 1+J].")
  in
  let verify_arg =
    Arg.(value & opt int 3
         & info [ "verify" ] ~docv:"K"
             ~doc:"Replay K served requests solo and require the pooled group reports \
                   to be bit-identical (neutrality).")
  in
  let ir_flag =
    Arg.(value & flag
         & info [ "ir" ]
             ~doc:"Serve the IR request kernel: variants are Interp.compile'd once and \
                   shared by every group (compile-once reuse).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Also emit the curve as one JSON object.")
  in
  let run kind n requests pool queue batch rps_list file_kb seed jitter verify ir json =
    let src0, compiles =
      if ir then
        let s, c = Experiments.serve_ir_source ~n () in
        (s, Some c)
      else (Serve.server_source ~n kind ~file_kb ~connections:16, None)
    in
    let src = Serve.jittered ~jitter ~seed:(seed + 1) src0 in
    (* Size the sweep and the SLO from the workload itself: one solo run
       gives the mean-ish service time, the pool gives the capacity knee. *)
    let service = (Serve.solo_report src ~req_id:0).Nxe.total_time in
    let knee = float_of_int pool *. 1e6 /. service in
    let points =
      if rps_list <> [] then rps_list
      else List.map (fun f -> f *. knee) [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
    in
    let slo_limit = 6.0 *. service in
    let config =
      {
        Serve.default_config with
        pool_capacity = pool;
        queue_capacity = queue;
        batch;
        seed;
        keep_reports = true;
        slo = { Telemetry.Slo.slo_quantile = 99.0; slo_limit_us = slo_limit };
      }
    in
    Printf.printf "serve: %s x%d, %d requests/point, pool %d, queue %d, batch %d\n"
      (if ir then "ir-kernel" else Server.kind_name kind)
      n requests pool queue batch;
    Printf.printf "mean service %.1f us/request -> capacity knee ~%.0f rps (pool %d)\n" service
      knee pool;
    let reports = Serve.sweep ~config src ~offered_rps:points ~requests in
    let t =
      Table.create
        [
          ("offered rps", Table.Right); ("throughput", Table.Right); ("done", Table.Right);
          ("rej%", Table.Right); ("p50", Table.Right); ("p95", Table.Right);
          ("p99", Table.Right); ("p999", Table.Right); ("live p99", Table.Right);
          ("burn", Table.Right); ("grps", Table.Right); ("batch/wake", Table.Right);
        ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            Printf.sprintf "%.0f" r.Serve.sv_offered_rps;
            Printf.sprintf "%.0f" r.Serve.sv_throughput_rps;
            string_of_int r.Serve.sv_completed;
            Printf.sprintf "%.1f" (100.0 *. r.Serve.sv_rejection_rate);
            Printf.sprintf "%.1f" r.Serve.sv_p50;
            Printf.sprintf "%.1f" r.Serve.sv_p95;
            Printf.sprintf "%.1f" r.Serve.sv_p99;
            Printf.sprintf "%.1f" r.Serve.sv_p999;
            Printf.sprintf "%.1f" r.Serve.sv_live_p99;
            Printf.sprintf "%.2f" r.Serve.sv_burn_rate;
            string_of_int r.Serve.sv_peak_groups;
            Printf.sprintf "%.1f"
              (float_of_int r.Serve.sv_poll_events
              /. float_of_int (max 1 r.Serve.sv_poll_wakeups));
          ])
      reports;
    Table.print t;
    (match compiles with
     | Some c ->
       let total_served =
         List.fold_left (fun acc r -> acc + r.Serve.sv_completed + r.Serve.sv_faulted) 0 reports
       in
       let total_groups = List.fold_left (fun acc r -> acc + r.Serve.sv_groups_spawned) 0 reports in
       Printf.printf "precompiled variants: %d compiles shared across %d groups and %d requests\n"
         !c total_groups total_served
     | None -> ());
    (* Saturation: offered load beyond the knee must turn into rejections,
       not an unbounded latency collapse of the admitted requests. *)
    let unsat = List.filter (fun r -> r.Serve.sv_rejection_rate <= 0.01) reports in
    let sat = List.filter (fun r -> r.Serve.sv_rejection_rate > 0.01) reports in
    (match (List.rev unsat, List.rev sat) with
     | pre :: _, top :: _ ->
       Printf.printf
         "admission control: at %.0f rps admitted p99 is %.1f us (vs %.1f us pre-knee, \
          %.1fx) while %.1f%% of arrivals are rejected\n"
         top.Serve.sv_offered_rps top.Serve.sv_p99 pre.Serve.sv_p99
         (top.Serve.sv_p99 /. Float.max 1e-9 pre.Serve.sv_p99)
         (100.0 *. top.Serve.sv_rejection_rate)
     | _, [] -> Printf.printf "admission control: no point saturated (all rejection rates <= 1%%)\n"
     | [], _ -> Printf.printf "admission control: every point saturated; raise --pool or lower --rps\n");
    (* Neutrality: the pool is pure queueing around the engine. *)
    (if verify > 0 then
       match List.rev reports with
       | [] -> ()
       | top :: _ ->
         let reps = top.Serve.sv_reports in
         let total = List.length reps in
         let k = min verify total in
         if k > 0 then begin
           let step = max 1 (total / k) in
           let picks =
             List.filteri (fun i _ -> i mod step = 0) reps |> List.filteri (fun i _ -> i < k)
           in
           let ok =
             List.filter
               (fun (rid, rep) ->
                 Nxe.report_signature rep
                 = Nxe.report_signature (Serve.solo_report ~config src ~req_id:rid))
               picks
           in
           Printf.printf "neutrality: %d/%d pooled group reports bit-identical to solo replays\n"
             (List.length ok) (List.length picks);
           if List.length ok <> List.length picks then exit 1
         end);
    if json then begin
      let buf = Buffer.create 512 in
      Buffer.add_string buf "{\"points\":[";
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "{\"offered_rps\":%.1f,\"throughput_rps\":%.1f,\"completed\":%d,\
                \"rejected\":%d,\"rejection_rate\":%.4f,\"p50_us\":%.2f,\"p95_us\":%.2f,\
                \"p99_us\":%.2f,\"p999_us\":%.2f,\"breach_fraction\":%.4f,\
                \"burn_rate\":%.3f,\"peak_groups\":%d}"
               r.Serve.sv_offered_rps r.Serve.sv_throughput_rps r.Serve.sv_completed
               r.Serve.sv_rejected r.Serve.sv_rejection_rate r.Serve.sv_p50 r.Serve.sv_p95
               r.Serve.sv_p99 r.Serve.sv_p999 r.Serve.sv_breach_fraction r.Serve.sv_burn_rate
               r.Serve.sv_peak_groups))
        reports;
      Buffer.add_string buf "]}";
      print_endline (Buffer.contents buf)
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Shard an open-loop request stream across a pool of NXE groups and report the \
             throughput-latency curve: p50/p95/p99/p999 and the rejection rate at each \
             offered-load point, with bounded-queue admission control at saturation.")
    Term.(const run $ kind_arg $ n_arg $ requests_arg $ pool_arg $ queue_arg $ batch_arg
          $ rps_arg $ file_kb_arg $ seed_arg $ jitter_arg $ verify_arg $ ir_flag $ json_flag)

let main =
  Cmd.group
    (Cmd.info "bunshin" ~version:"1.0.0"
       ~doc:"N-version execution that composites security mechanisms through diversification.")
    [
      list_cmd; profile_cmd; generate_cmd; run_cmd; exec_cmd; ripe_cmd; cve_cmd;
      forensics_cmd; window_cmd; nvariant_cmd; robustness_cmd; trace_cmd; chaos_cmd;
      cluster_cmd; slo_cmd; serve_cmd;
    ]

(* Library entry points reject out-of-range arguments with
   [Invalid_argument]: report that as a usage error (exit status 2), not
   as a crash.  Anything else is still an internal error. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Invalid_argument msg ->
    Printf.eprintf "bunshin: %s\n" msg;
    exit 2
  | exception e ->
    Printf.eprintf "bunshin: internal error, uncaught exception:\n%s\n" (Printexc.to_string e);
    exit Cmd.Exit.internal_error
