(* Diversity defenses beyond sanitizers: what N-version execution buys even
   with no checks at all, and where selective protection falls short.

   1. Layout diversification (the N-variant systems lineage the paper
      builds on, 2.2): a write-what-where exploit needs an absolute
      address; disjoint layouts make one input unable to compromise both
      variants, and the divergence is the detection signal.
   2. The attack-window study (5.3 "Attacking Bunshin"): what a fully
      compromised leader can still do under each lockstep mode.
   3. ASAP vs Bunshin (2.3): fitting a budget by dropping hot checks
      leaves exactly the hot, attacker-reachable code unguarded.

   Run with: dune exec examples/diversity_defenses.exe *)

open Bunshin

let rule title = Printf.printf "\n--- %s ---\n\n" title

let () =
  rule "1. disjoint memory layouts";
  let v = Nvariant.evaluate () in
  Printf.printf "exploit built for variant A's layout:\n";
  Printf.printf "  takes over A: %b;  takes over B: %b;  diverges: %b -> detected: %b\n"
    v.Nvariant.nv_hijacked_a v.Nvariant.nv_hijacked_b v.Nvariant.nv_diverged
    v.Nvariant.nv_detected;
  Printf.printf "control with one shared layout: the same bytes own both variants (%b)\n"
    (Nvariant.single_layout_escapes ());

  rule "2. the attack window of a compromised leader";
  List.iter
    (fun w ->
      Printf.printf "  %-9s mode, %-5s payload: %2d of 16 malicious syscalls ran (detected: %b)\n"
        w.Window.wr_mode
        (match w.Window.wr_payload with Window.Reads -> "read" | Window.Writes -> "write")
        w.Window.wr_executed w.Window.wr_detected)
    (Window.summary ());
  Printf.printf "exfiltration (writes) never completes: the selected lockstep class.\n";

  rule "3. ASAP's budget vs Bunshin's distribution";
  let r = Experiments.asap_comparison (Spec.find "bzip2") in
  Printf.printf "bzip2, 50%% check budget:\n";
  Printf.printf "  ASAP:    %s overhead, %s of functions still checked\n"
    (Stats.pct r.Experiments.ac_asap_overhead)
    (Stats.pct r.Experiments.ac_asap_coverage);
  Printf.printf "  Bunshin: %s overhead, every check alive in some variant\n"
    (Stats.pct r.Experiments.ac_bunshin_overhead);
  let case = List.hd Cve.cases in
  let inst = Instrument.apply_exn [ Sanitizer.asan ] case.Cve.c_modul in
  let profile =
    [ (case.Cve.c_vuln_func, 100.0); ("ngx_http_process_request", 5.0); ("main", 1.0) ]
  in
  let kept = Asap.keep_set ~budget:0.5 ~overhead_profile:profile in
  let dropped = List.filter (fun f -> not (List.mem f kept)) (List.map fst profile) in
  let pruned = Slicer.remove_checks ~in_funcs:dropped inst in
  let asap_run = Interp.run pruned ~entry:"main" ~args:case.Cve.c_exploit_args in
  Printf.printf "  on CVE-%s: ASAP detects %b, Bunshin detects %b\n" case.Cve.c_cve
    (match asap_run.Interp.outcome with Interp.Detected _ -> true | _ -> false)
    (Cve.evaluate case).Cve.v_bunshin_detects
