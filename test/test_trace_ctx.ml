(* Tests for the causal-span recorder (lib/trace_ctx) and its engine
   integration: span-tree well-formedness over random cluster configs,
   cross-node connectivity, neutrality (attaching a recorder changes no
   report and no incident signature), and the critical-path attribution's
   straggler cross-check against the lib/profile collector. *)

module Trace = Bunshin_program.Trace
module Sc = Bunshin_syscall.Syscall
module Nxe = Bunshin_nxe.Nxe
module Cluster = Bunshin_cluster.Cluster
module Tx = Bunshin_trace_ctx.Trace_ctx
module Profile = Bunshin_profile.Profile
module Faults = Bunshin_faults.Faults

let work c = Trace.Work { func = "f"; cost = c }
let wr i = Trace.Sys (Sc.write ~args:[ 1L; Int64.of_int i ] ())
let names n = List.init n (fun i -> Printf.sprintf "v%d" i)

(* Variant [v] pays [base * (1 + skew*v)] of compute per synchronized
   write: [v = n-1] is the designed straggler. *)
let skewed_traces ?(units = 20) ?(base = 30.0) ?(skew = 0.4) n =
  List.init n (fun v ->
      List.concat
        (List.init units (fun i ->
             [ work (base *. (1.0 +. (skew *. float_of_int v))); wr i ])))

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

(* The dominant straggler according to the trace recorder: the first
   [Straggler] entry of the aggregated attribution (sorted by attributed
   time, descending); [-1] when no rendezvous was compute-bound. *)
let top_straggler_of_paths paths =
  let rec first = function
    | [] -> -1
    | { Tx.ca_cause = Tx.Straggler v; _ } :: _ -> v
    | _ :: rest -> first rest
  in
  first (Tx.attribute paths)

(* ------------------------------------------------------------------ *)
(* Single-host engine *)

let test_nxe_spans_well_formed () =
  let tc = Tx.create () in
  let n = 3 in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with Nxe.tracer = Some tc }
      ~names:(names n) (skewed_traces n)
  in
  Alcotest.(check bool) "finished" true (r.Nxe.outcome = `All_finished);
  ok_or_fail (Tx.well_formed tc);
  Alcotest.(check bool) "spans recorded" true (Tx.used tc > 0);
  Alcotest.(check int) "nothing dropped" 0 (Tx.dropped tc);
  (* Every synchronized syscall became one fully retired rendezvous tree. *)
  Alcotest.(check int) "one critical path per synced syscall"
    r.Nxe.synced_syscalls
    (List.length (Tx.critical_paths tc));
  (* A root closes only after the last follower's consume, so each tree
     holds both followers' Fetch spans. *)
  List.iter
    (fun tr ->
      Alcotest.(check int)
        (Printf.sprintf "trace %d: one fetch per follower" tr)
        (n - 1)
        (List.length (List.filter (fun s -> s.Tx.sp_kind = Tx.Fetch) (Tx.tree tc tr))))
    (Tx.traces tc)

(* v1 stalls before its third syscall, a write, so the leader cannot run
   past it; the watchdog quarantines it, and the leader then spawns a
   reader thread whose channel is created after the quarantine.  The
   survivors finish, and the retired victim holds no rendezvous root open,
   on either channel. *)
let check_quarantine_then_spawn base =
  let rd i = Trace.Sys (Sc.read ~args:[ 3L; Int64.of_int i ] ()) in
  let trace =
    [ work 5.0; rd 0; work 5.0; rd 1; work 5.0; wr 2; work 5.0 ]
    @ [ Trace.Spawn (List.concat (List.init 4 (fun i -> [ work 5.0; rd (10 + i) ]))) ]
  in
  let tc = Tx.create () in
  let config =
    {
      base with
      Nxe.tracer = Some tc;
      fault_policy =
        { Nxe.policy = Nxe.Quarantine; heartbeat_timeout = 100.0; restart_backoff = 50.0 };
    }
  in
  let faults = Faults.make [ { Faults.i_variant = 1; i_at = 2; i_kind = Faults.Stall } ] in
  let r = Nxe.run_traces ~config ~faults ~names:(names 3) [ trace; trace; trace ] in
  Alcotest.(check bool) "survivors finished" true (r.Nxe.outcome = `All_finished);
  let q_time =
    match List.nth r.Nxe.variant_status 1 with
    | Nxe.Quarantined q -> q.q_time
    | _ -> Alcotest.fail "v1 must end quarantined"
  in
  Alcotest.(check int) "two channels" 2 r.Nxe.channels;
  let roots = List.filter (fun s -> s.Tx.sp_kind = Tx.Rendezvous) (Tx.spans tc) in
  Alcotest.(check int) "one root per synced syscall" r.Nxe.synced_syscalls
    (List.length roots);
  List.iter
    (fun s ->
      if s.Tx.sp_chan = 1 then
        Alcotest.(check bool)
          (Printf.sprintf "root ch1@%d opened after the quarantine" s.Tx.sp_pos)
          true (s.Tx.sp_t0 >= q_time);
      Alcotest.(check bool)
        (Printf.sprintf "root ch%d@%d closed" s.Tx.sp_chan s.Tx.sp_pos)
        true (Float.is_finite s.Tx.sp_t1))
    roots

let test_nxe_roots_closed_after_quarantine () = check_quarantine_then_spawn Nxe.selective

(* Under strict lockstep the new channel must not wait for the victim:
   it starts with the victim already retired. *)
let test_nxe_strict_spawn_after_quarantine () =
  check_quarantine_then_spawn Nxe.default_config

(* Under selective lockstep the leader runs ahead of a follower through
   non-lockstep reads.  v1 stalls just before its second syscall, a read,
   so the leader releases reads v1 never consumes while v2 consumes them:
   each such slot waits only on v1.  Quarantining v1 must close those
   roots at once.  Under [Restart_once] the restarted v1 then refetches
   every slot from the start, and no root may be finished a second time:
   every root opened before the quarantine keeps the close time it had. *)
let check_roots_after_run_ahead policy =
  let rd i = Trace.Sys (Sc.read ~args:[ 3L; Int64.of_int i ] ()) in
  let trace =
    List.concat (List.init 5 (fun i -> [ work 5.0; rd i ])) @ [ work 5.0; wr 9; work 5.0 ]
  in
  let tc = Tx.create () in
  let config =
    {
      Nxe.selective with
      Nxe.tracer = Some tc;
      fault_policy = { Nxe.policy; heartbeat_timeout = 100.0; restart_backoff = 50.0 };
    }
  in
  let faults = Faults.make [ { Faults.i_variant = 1; i_at = 1; i_kind = Faults.Stall } ] in
  let r = Nxe.run_traces ~config ~faults ~names:(names 3) [ trace; trace; trace ] in
  Alcotest.(check bool) "survivors finished" true (r.Nxe.outcome = `All_finished);
  ok_or_fail (Tx.well_formed tc);
  let q_time =
    match r.Nxe.fault_incidents with
    | inc :: _ -> inc.Bunshin_forensics.Forensics.inc_time
    | [] -> Alcotest.fail "v1 must have been quarantined"
  in
  let roots = List.filter (fun s -> s.Tx.sp_kind = Tx.Rendezvous) (Tx.spans tc) in
  Alcotest.(check int) "one root per synced syscall" r.Nxe.synced_syscalls
    (List.length roots);
  let ran_ahead =
    List.filter (fun s -> s.Tx.sp_pos >= 1 && s.Tx.sp_pos <= 4 && s.Tx.sp_t0 < q_time) roots
  in
  Alcotest.(check bool) "the leader ran ahead of the stalled v1" true (ran_ahead <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "root ch%d@%d closed" s.Tx.sp_chan s.Tx.sp_pos)
        true (Float.is_finite s.Tx.sp_t1);
      if s.Tx.sp_pos <= 4 && s.Tx.sp_t0 < q_time then
        Alcotest.(check bool)
          (Printf.sprintf "root ch%d@%d closed by the quarantine (t1 %.3f, quarantine %.3f)"
             s.Tx.sp_chan s.Tx.sp_pos s.Tx.sp_t1 q_time)
          true (s.Tx.sp_t1 <= q_time))
    roots

let test_nxe_roots_closed_after_run_ahead () = check_roots_after_run_ahead Nxe.Quarantine
let test_nxe_roots_finished_once_on_restart () = check_roots_after_run_ahead Nxe.Restart_once

let test_nxe_report_neutral () =
  let n = 3 in
  let run tracer =
    Nxe.run_traces
      ~config:{ Nxe.selective with Nxe.tracer }
      ~names:(names n) (skewed_traces n)
  in
  let plain = run None in
  let tc = Tx.create () in
  let traced = run (Some tc) in
  Alcotest.(check bool) "report bit-identical with tracing on" true (plain = traced);
  Alcotest.(check bool) "recorder saw the run" true (Tx.used tc > 0)

let test_straggler_matches_profiler_single_node () =
  (* Same run, both observers attached: the profiler's most-frequent
     straggler and the critical-path attribution's dominant straggler
     must name the same variant (the designed one). *)
  let n = 3 in
  let tc = Tx.create () in
  let collector = Profile.Collector.create n in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with Nxe.tracer = Some tc }
      ~profile:collector ~names:(names n) (skewed_traces n)
  in
  Alcotest.(check bool) "finished" true (r.Nxe.outcome = `All_finished);
  let profiled = Profile.Collector.top_straggler collector in
  let traced = top_straggler_of_paths (Tx.critical_paths tc) in
  Alcotest.(check int) "designed straggler" (n - 1) profiled;
  Alcotest.(check int) "tracer agrees with profiler" profiled traced

(* ------------------------------------------------------------------ *)
(* Cluster: connectivity and neutrality *)

let test_cluster_trees_span_all_nodes () =
  let n = 3 in
  let tc = Tx.create () in
  let config = { Cluster.default_config with Cluster.nodes = 4; ship = Cluster.Selective } in
  let engine = { Nxe.default_config with tracer = Some tc } in
  let r = Cluster.run_traces ~config ~engine ~names:(names n) (skewed_traces n) in
  Alcotest.(check bool) "finished" true (r.Cluster.outcome = `All_finished);
  ok_or_fail (Tx.well_formed tc);
  let traces = Tx.traces tc in
  Alcotest.(check bool) "one trace per synced syscall" true
    (List.length traces = r.Cluster.synced_syscalls);
  (* Round-robin placement puts v0 on node 0, v1 on node 1, v2 on node 2:
     every rendezvous tree must connect exactly those three machines. *)
  List.iter
    (fun tr ->
      Alcotest.(check int)
        (Printf.sprintf "trace %d spans the occupied nodes" tr)
        3 (Tx.nodes_spanned tc tr))
    traces;
  (* And the wire shows up inside the trees as annotated link spans. *)
  let has_net_msg =
    List.exists
      (fun tr ->
        List.exists (fun s -> s.Tx.sp_kind = Tx.Net_msg) (Tx.tree tc tr))
      traces
  in
  Alcotest.(check bool) "link messages recorded in-tree" true has_net_msg

let test_cluster_report_neutral () =
  let n = 3 in
  let run tracer =
    let config = { Cluster.default_config with Cluster.nodes = 3; ship = Cluster.Selective } in
    Cluster.run_traces ~config ~engine:{ Nxe.default_config with tracer } ~names:(names n)
      (skewed_traces ~units:10 n)
  in
  let plain = run None in
  let tc = Tx.create () in
  let traced = run (Some tc) in
  Alcotest.(check bool) "cluster report bit-identical with tracing on" true
    (plain = traced);
  Alcotest.(check bool) "recorder saw the run" true (Tx.used tc > 0)

let test_cluster_incident_signature_neutral () =
  (* A remote argument divergence must produce the same verdict — same
     incident signature — whether or not the span recorder is attached. *)
  let leader = [ work 10.0; wr 42 ] in
  let follower = [ work 10.0; Trace.Sys (Sc.write ~args:[ 1L; 666L ] ()) ] in
  let run tracer =
    let config = { Cluster.default_config with Cluster.nodes = 2; ship = Cluster.Selective } in
    Cluster.run_traces ~config ~engine:{ Nxe.default_config with tracer } ~names:(names 2)
      [ leader; follower ]
  in
  let signature r =
    match r.Cluster.incident with
    | Some inc -> Cluster.incident_signature inc
    | None -> Alcotest.fail "divergence must attach forensics"
  in
  let plain = run None in
  let traced = run (Some (Tx.create ())) in
  Alcotest.(check bool) "both aborted" true
    (plain.Cluster.outcome <> `All_finished && traced.Cluster.outcome <> `All_finished);
  Alcotest.(check string) "incident signature identical with tracing on"
    (signature plain) (signature traced)

let test_cluster_straggler_matches_profiler () =
  (* The acceptance cross-check: with compute skew large enough to
     dominate the wire, the 4-node cluster's critical paths must blame
     the same variant the profiler names on a single-node run of the
     same fleet. *)
  let n = 3 in
  let traces () = skewed_traces ~units:12 ~base:100.0 ~skew:1.0 n in
  let collector = Profile.Collector.create n in
  let local =
    Nxe.run_traces ~config:Nxe.selective ~profile:collector ~names:(names n)
      (traces ())
  in
  Alcotest.(check bool) "local finished" true (local.Nxe.outcome = `All_finished);
  let tc = Tx.create () in
  let config = { Cluster.default_config with Cluster.nodes = 4; ship = Cluster.Selective } in
  let engine = { Nxe.default_config with tracer = Some tc } in
  let r = Cluster.run_traces ~config ~engine ~names:(names n) (traces ()) in
  Alcotest.(check bool) "cluster finished" true (r.Cluster.outcome = `All_finished);
  let profiled = Profile.Collector.top_straggler collector in
  let traced = top_straggler_of_paths (Tx.critical_paths tc) in
  Alcotest.(check int) "designed straggler" (n - 1) profiled;
  Alcotest.(check int) "cluster critical path names the profiler's straggler"
    profiled traced

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_cluster_spans_well_formed =
  QCheck.Test.make ~name:"trace_ctx: cluster span forest well-formed" ~count:30
    QCheck.(
      quad (int_range 1 4) (int_range 0 2) (int_range 2 4) (int_range 3 10))
    (fun (nodes, ship_ix, n, units) ->
      let ship =
        match ship_ix with
        | 0 -> Cluster.Full_remote_lockstep
        | 1 -> Cluster.Selective
        | _ -> Cluster.Selective_replicated
      in
      let batch_slots = 1 + ((units * n) mod 16) in
      let tc = Tx.create () in
      let config = { Cluster.default_config with Cluster.nodes; ship; batch_slots } in
      let r =
        Cluster.run_traces ~config ~engine:{ Nxe.default_config with tracer = Some tc }
          ~names:(names n)
          (skewed_traces ~units ~skew:(0.1 *. float_of_int (1 + (units mod 5))) n)
      in
      r.Cluster.outcome = `All_finished
      && Tx.well_formed tc = Ok ()
      && List.length (Tx.traces tc) = r.Cluster.synced_syscalls)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "trace_ctx"
    [
      ( "nxe",
        [
          Alcotest.test_case "spans well-formed" `Quick test_nxe_spans_well_formed;
          Alcotest.test_case "report neutral" `Quick test_nxe_report_neutral;
          Alcotest.test_case "roots closed after quarantine" `Quick
            test_nxe_roots_closed_after_quarantine;
          Alcotest.test_case "strict spawn after quarantine" `Quick
            test_nxe_strict_spawn_after_quarantine;
          Alcotest.test_case "roots closed after run-ahead quarantine" `Quick
            test_nxe_roots_closed_after_run_ahead;
          Alcotest.test_case "roots finished once on restart" `Quick
            test_nxe_roots_finished_once_on_restart;
          Alcotest.test_case "straggler matches profiler" `Quick
            test_straggler_matches_profiler_single_node;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "trees span all nodes" `Quick
            test_cluster_trees_span_all_nodes;
          Alcotest.test_case "report neutral" `Quick test_cluster_report_neutral;
          Alcotest.test_case "incident signature neutral" `Quick
            test_cluster_incident_signature_neutral;
          Alcotest.test_case "cluster straggler matches profiler" `Quick
            test_cluster_straggler_matches_profiler;
        ] );
      ("properties", qcheck [ prop_cluster_spans_well_formed ]);
    ]
