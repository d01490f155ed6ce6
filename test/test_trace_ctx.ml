(* Tests for the span recorder (lib/trace_ctx) and its engine
   integration: the nesting and critical-path rules on hand-built trees,
   the Chrome export, span-tree well-formedness over random cluster
   configs, cross-node connectivity, neutrality (attaching a sink changes
   no report and no incident signature), and the critical-path
   attribution's straggler cross-check against the lib/profile
   collector. *)

module Trace = Bunshin_program.Trace
module Nxe = Bunshin_nxe.Nxe
module Cluster = Bunshin_cluster.Cluster
module Tx = Bunshin_trace_ctx.Trace_ctx
module Tel = Bunshin_telemetry.Telemetry
module Profile = Bunshin_profile.Profile
module Faults = Bunshin_faults.Faults
module Json = Bunshin_util.Json

open Kit

(* Variant [v] pays [base * (1 + skew*v)] of compute per synchronized
   write: [v = n-1] is the designed straggler. *)
let skewed_traces ?(units = 20) ?(base = 30.0) ?(skew = 0.4) n =
  List.init n (fun v ->
      List.concat
        (List.init units (fun i ->
             [ work (base *. (1.0 +. (skew *. float_of_int v))); wr i ])))

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

(* A sink and its recorder: the tracer of every run the sink is attached
   to. *)
let traced () =
  let sink = Tel.create () in
  (sink, Tel.recorder sink)

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

(* The profiler's view of the same run: the variant that arrived last at
   the most rendezvous ([-1] when none was recorded). *)
let profiled_straggler collector =
  let best = ref (-1) and best_n = ref 0 in
  List.iter
    (fun va ->
      if va.Profile.va_straggler_count > !best_n then begin
        best := va.Profile.va_index;
        best_n := va.Profile.va_straggler_count
      end)
    (Profile.attribution collector).Profile.at_variants;
  !best

(* ------------------------------------------------------------------ *)
(* Hand-built trees *)

(* A rendezvous root on channel 0, slot [pos], open over [t0, t1]. *)
let root tc ~pos ~t0 ~t1 =
  Tx.record tc Tx.Rendezvous ~trace:(Tx.new_trace tc) ~parent:(-1) ~node:0 ~variant:(-1)
    ~chan:0 ~pos ~t0 ~t1

(* A link message under [parent] to [node], its delay all propagation. *)
let link tc ~parent ~node ~t0 ~t1 =
  let id = Tx.record_child tc Tx.Net_msg ~parent ~node ~variant:(-1) ~chan:(-1) ~pos:(-1) ~t0 ~t1 in
  Tx.annotate tc id ~a0:0.0 ~a1:(t1 -. t0) ~a2:0.0

let arrival tc ~parent ~node ~variant ~t1 =
  ignore
    (Tx.record_child tc Tx.Arrival ~parent ~node ~variant ~chan:0 ~pos:0 ~t0:0.0 ~t1)

let only_path tc =
  match Tx.critical_paths tc with
  | [ p ] -> p
  | ps -> Alcotest.failf "%d critical paths, want 1" (List.length ps)

let test_child_clamped () =
  let tc = Tx.create () in
  let r = root tc ~pos:0 ~t0:10.0 ~t1:100.0 in
  let early =
    Tx.record_child tc Tx.Arrival ~parent:r ~node:0 ~variant:1 ~chan:0 ~pos:0 ~t0:0.0 ~t1:50.0
  in
  Alcotest.(check (float 0.0)) "opening pulled up to the parent's" 10.0
    (Tx.span tc early).Tx.sp_t0;
  Alcotest.(check int) "a child outliving its closed parent is skipped" (-1)
    (Tx.record_child tc Tx.Arrival ~parent:r ~node:0 ~variant:2 ~chan:0 ~pos:0 ~t0:20.0
       ~t1:120.0);
  ok_or_fail (Tx.well_formed tc)

(* A remote straggler: v1 on node 1 arrives at 50, gated by a ship leg
   delivered at 20.  A release leg to the same node, delivered at 90 after
   the arrival, is no ship leg.  The chain's edges are v1's own 30 µs and
   the ship leg's 20 µs, so the larger one, the straggler, decides. *)
let test_arrival_nets_out_ship_leg () =
  let tc = Tx.create () in
  let r = root tc ~pos:0 ~t0:0.0 ~t1:100.0 in
  arrival tc ~parent:r ~node:1 ~variant:1 ~t1:50.0;
  link tc ~parent:r ~node:1 ~t0:0.0 ~t1:20.0;
  link tc ~parent:r ~node:1 ~t0:60.0 ~t1:90.0;
  let p = only_path tc in
  Alcotest.(check bool) "cause: straggler v1" true (p.Tx.pa_cause = Tx.Straggler 1);
  Alcotest.(check (float 1e-9)) "edge is the arrival net of its ship leg" 30.0 p.Tx.pa_edge_us;
  Alcotest.(check (float 1e-9)) "latency" 100.0 p.Tx.pa_latency

(* The same shape with a slow wire: the ship leg takes 40 of the
   arrival's 50 µs, so the link decides. *)
let test_slow_ship_leg_decides () =
  let tc = Tx.create () in
  let r = root tc ~pos:0 ~t0:0.0 ~t1:100.0 in
  arrival tc ~parent:r ~node:1 ~variant:1 ~t1:50.0;
  link tc ~parent:r ~node:1 ~t0:0.0 ~t1:40.0;
  let p = only_path tc in
  Alcotest.(check bool) "cause: link latency" true (p.Tx.pa_cause = Tx.Link_latency);
  Alcotest.(check (float 1e-9)) "edge" 40.0 p.Tx.pa_edge_us

(* A root-direct release leg outlives every arrival; it never decides. *)
let test_release_leg_never_decides () =
  let tc = Tx.create () in
  let r = root tc ~pos:0 ~t0:0.0 ~t1:100.0 in
  arrival tc ~parent:r ~node:0 ~variant:1 ~t1:30.0;
  link tc ~parent:r ~node:1 ~t0:40.0 ~t1:90.0;
  Alcotest.(check bool) "cause: straggler v1" true ((only_path tc).Tx.pa_cause = Tx.Straggler 1)

(* Entries outside the trees: no trace id, no critical path, and in the
   Chrome export complete and instant events on their domain's track. *)
let test_entries_outside_trees () =
  let tc = Tx.create () in
  let d = Tx.domain tc ~name:"machine" in
  Tx.name_track tc ~domain:d ~tid:0 "core0";
  Tx.slice tc ~domain:d ~tid:0 ~t0:0.0 ~t1:4.0 "v0:main";
  ignore (root tc ~pos:0 ~t0:1.0 ~t1:3.0);
  Tx.mark tc ~domain:d ~tid:0 ~variant:(-1) ~key:"" ~text:"" ~value:1.5 ~ts:2.0 "cache_pressure";
  Alcotest.(check (list int)) "one trace" [ 0 ] (Tx.traces tc);
  Alcotest.(check int) "every entry kept" 3 (Tx.used tc);
  Alcotest.(check int) "one critical path" 1 (List.length (Tx.critical_paths tc));
  ok_or_fail (Tx.well_formed tc)

(* The recorder's bound: 65,536 entries. *)
let capacity = 65_536

(* A full store refuses new entries and keeps the old ones, so the
   captured prefix stays a forest of whole trees. *)
let test_full_store_keeps_prefix () =
  let tc = Tx.create () in
  for pos = 0 to (capacity / 2) - 1 do
    let r = root tc ~pos ~t0:0.0 ~t1:10.0 in
    arrival tc ~parent:r ~node:0 ~variant:1 ~t1:5.0
  done;
  let d = Tx.domain tc ~name:"machine" in
  Tx.slice tc ~domain:d ~tid:0 ~t0:0.0 ~t1:1.0 "late";
  Alcotest.(check int) "open refused" (-1) (Tx.open_slice tc ~domain:d ~tid:0 ~t0:2.0 "x");
  Alcotest.(check int) "store full" capacity (Tx.used tc);
  Alcotest.(check int) "refusals counted" 2 (Tx.dropped tc);
  Alcotest.(check bool) "oldest kept, in order" true
    (List.for_all2
       (fun i sp -> Tx.kind_name sp.Tx.sp_kind = if i mod 2 = 0 then "rendezvous" else "arrival")
       (List.init capacity Fun.id) (Tx.spans tc));
  ok_or_fail (Tx.well_formed tc)

(* The columns grow on demand: a fresh recorder holds a small part of
   the 15 columns of 65,536 entries (983,040 words) it would take to
   preallocate them, and one filled across every doubling and past its
   capacity keeps every entry it took, in order, with the initial values
   in the fields nobody set, and drops exactly the surplus. *)
let test_store_grows_on_demand () =
  Alcotest.(check bool) "fresh recorder is small" true
    (Obj.reachable_words (Obj.repr (Tx.create ())) < 983_040 / 20);
  let surplus = 500 in
  let tc = Tx.create () in
  let d = Tx.domain tc ~name:"machine" in
  for i = 0 to capacity + surplus - 1 do
    let t0 = float_of_int i in
    if i mod 2 = 0 then Tx.slice tc ~domain:d ~tid:i ~t0 ~t1:(t0 +. 0.5) "closed"
    else ignore (Tx.open_slice tc ~domain:d ~tid:i ~t0 "open")
  done;
  Alcotest.(check int) "kept up to capacity" capacity (Tx.used tc);
  Alcotest.(check int) "surplus dropped" surplus (Tx.dropped tc);
  let spans = Tx.spans tc in
  Alcotest.(check int) "every kept entry listed" capacity (List.length spans);
  List.iteri
    (fun i sp ->
      let t0 = float_of_int i in
      let intact =
        sp.Tx.sp_id = i && sp.Tx.sp_chan = i && sp.Tx.sp_t0 = t0 && sp.Tx.sp_trace = -1
        && sp.Tx.sp_a1 = 0.0
        && if i mod 2 = 0 then sp.Tx.sp_t1 = t0 +. 0.5 else Float.is_nan sp.Tx.sp_t1
      in
      if not intact then Alcotest.failf "entry %d not intact" i)
    spans

(* Consecutive roots of a channel overlap, so the export keys each tree
   by its trace id: one async b/e pair per span, never a complete event
   on a shared lane. *)
let test_chrome_keys_trees_by_trace () =
  let tc = Tx.create () in
  let r0 = root tc ~pos:0 ~t0:0.0 ~t1:10.0 in
  let r1 = root tc ~pos:1 ~t0:5.0 ~t1:15.0 in
  arrival tc ~parent:r0 ~node:0 ~variant:1 ~t1:8.0;
  arrival tc ~parent:r1 ~node:0 ~variant:1 ~t1:12.0;
  let events =
    match Json.parse (Tx.to_chrome_json tc) with
    | Ok doc -> (
      match Json.member "traceEvents" doc with Some (Json.Arr l) -> l | _ -> [])
    | Error e -> Alcotest.fail e
  in
  let str k e = match Json.member k e with Some (Json.Str s) -> s | _ -> "" in
  let num k e = match Json.member k e with Some (Json.Num f) -> f | _ -> nan in
  let phase ph = List.filter (fun e -> str "ph" e = ph) events in
  Alcotest.(check int) "no complete events" 0 (List.length (phase "X"));
  Alcotest.(check (list (pair string (float 0.0)))) "begins keyed by trace"
    [ ("rendezvous", 0.0); ("rendezvous", 1.0); ("arrival", 0.0); ("arrival", 1.0) ]
    (List.map (fun e -> (str "name" e, num "id" e)) (phase "b"));
  Alcotest.(check int) "one end per begin" 4 (List.length (phase "e"))

(* ------------------------------------------------------------------ *)
(* Single-host engine *)

let test_nxe_spans_well_formed () =
  let sink, tc = traced () in
  let n = 3 in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with Nxe.telemetry = Some sink }
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
  let trace =
    [ work 5.0; rd 0; work 5.0; rd 1; work 5.0; wr 2; work 5.0 ]
    @ [ Trace.Spawn (List.concat (List.init 4 (fun i -> [ work 5.0; rd (10 + i) ]))) ]
  in
  let sink, tc = traced () in
  let config =
    {
      base with
      Nxe.telemetry = Some sink;
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
  let trace =
    List.concat (List.init 5 (fun i -> [ work 5.0; rd i ])) @ [ work 5.0; wr 9; work 5.0 ]
  in
  let sink, tc = traced () in
  let config =
    {
      Nxe.selective with
      Nxe.telemetry = Some sink;
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
  let run telemetry =
    Nxe.run_traces
      ~config:{ Nxe.selective with Nxe.telemetry }
      ~names:(names n) (skewed_traces n)
  in
  let plain = run None in
  let sink, tc = traced () in
  let traced = run (Some sink) in
  Alcotest.(check bool) "report bit-identical with tracing on" true (plain = traced);
  Alcotest.(check bool) "recorder saw the run" true (Tx.used tc > 0)

let test_straggler_matches_profiler_single_node () =
  (* Same run, both observers attached: the profiler's most-frequent
     straggler and the critical-path attribution's dominant straggler
     must name the same variant (the designed one). *)
  let n = 3 in
  let sink, tc = traced () in
  let collector = Profile.Collector.create n in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with Nxe.telemetry = Some sink }
      ~profile:collector ~names:(names n) (skewed_traces n)
  in
  Alcotest.(check bool) "finished" true (r.Nxe.outcome = `All_finished);
  let profiled = profiled_straggler collector in
  let traced = top_straggler_of_paths (Tx.critical_paths tc) in
  Alcotest.(check int) "designed straggler" (n - 1) profiled;
  Alcotest.(check int) "tracer agrees with profiler" profiled traced

(* ------------------------------------------------------------------ *)
(* Cluster: connectivity and neutrality *)

let test_cluster_trees_span_all_nodes () =
  let n = 3 in
  let sink, tc = traced () in
  let config = { Cluster.default_config with Cluster.nodes = 4; ship = Cluster.Selective } in
  let engine = { Nxe.default_config with telemetry = Some sink } in
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
        3
        (List.length (List.sort_uniq compare (List.map (fun s -> s.Tx.sp_node) (Tx.tree tc tr)))))
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
  let run telemetry =
    let config = { Cluster.default_config with Cluster.nodes = 3; ship = Cluster.Selective } in
    Cluster.run_traces ~config ~engine:{ Nxe.default_config with telemetry } ~names:(names n)
      (skewed_traces ~units:10 n)
  in
  let plain = run None in
  let sink, tc = traced () in
  let traced = run (Some sink) in
  Alcotest.(check bool) "cluster report bit-identical with tracing on" true
    (plain = traced);
  Alcotest.(check bool) "recorder saw the run" true (Tx.used tc > 0)

let test_cluster_incident_signature_neutral () =
  (* A remote argument divergence must produce the same verdict — same
     incident signature — whether or not the span recorder is attached. *)
  let leader = [ work 10.0; wr 42 ] in
  let follower = [ work 10.0; wr 666 ] in
  let run telemetry =
    let config = { Cluster.default_config with Cluster.nodes = 2; ship = Cluster.Selective } in
    Cluster.run_traces ~config ~engine:{ Nxe.default_config with telemetry } ~names:(names 2)
      [ leader; follower ]
  in
  let plain = run None in
  let traced = run (Some (Tel.create ())) in
  Alcotest.(check bool) "both aborted with forensics" true
    (plain.Cluster.outcome <> `All_finished && traced.Cluster.outcome <> `All_finished
    && plain.Cluster.incident <> None);
  Alcotest.(check (option string)) "incident signature identical with tracing on"
    (signature plain.Cluster.incident) (signature traced.Cluster.incident)

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
  let sink, tc = traced () in
  let config = { Cluster.default_config with Cluster.nodes = 4; ship = Cluster.Selective } in
  let engine = { Nxe.default_config with telemetry = Some sink } in
  let r = Cluster.run_traces ~config ~engine ~names:(names n) (traces ()) in
  Alcotest.(check bool) "cluster finished" true (r.Cluster.outcome = `All_finished);
  let profiled = profiled_straggler collector in
  let traced = top_straggler_of_paths (Tx.critical_paths tc) in
  Alcotest.(check int) "designed straggler" (n - 1) profiled;
  Alcotest.(check int) "cluster critical path names the profiler's straggler"
    profiled traced

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Every random fleet's span forest is well-formed, with one trace per
   synchronized syscall, at batch sizes from 1 to 16 slots. *)
let prop_cluster_spans_well_formed =
  QCheck.Test.make ~name:"trace_ctx: cluster span forest well-formed" ~count:30
    (fleet ~diverge:false ~fault:false ())
    (fun f ->
      let batch_slots = 1 + ((List.length f.f_main * f.f_n) mod 16) in
      let sink, tc = traced () in
      let config =
        { Cluster.default_config with Cluster.nodes = f.f_nodes; ship = f.f_ship; batch_slots }
      in
      let r =
        Cluster.run_traces ~config ~engine:{ Nxe.default_config with telemetry = Some sink }
          ~names:(names f.f_n) (fleet_traces f)
      in
      r.Cluster.outcome = `All_finished
      && Tx.well_formed tc = Ok ()
      && List.length (Tx.traces tc) = r.Cluster.synced_syscalls)

let () =
  Alcotest.run "trace_ctx"
    [
      ( "recorder",
        [
          Alcotest.test_case "child clamped to its parent" `Quick test_child_clamped;
          Alcotest.test_case "arrival nets out its ship leg" `Quick
            test_arrival_nets_out_ship_leg;
          Alcotest.test_case "slow ship leg decides" `Quick test_slow_ship_leg_decides;
          Alcotest.test_case "release leg never decides" `Quick test_release_leg_never_decides;
          Alcotest.test_case "entries outside trees" `Quick test_entries_outside_trees;
          Alcotest.test_case "full store keeps prefix" `Quick test_full_store_keeps_prefix;
          Alcotest.test_case "store grows on demand" `Quick test_store_grows_on_demand;
          Alcotest.test_case "chrome keys trees by trace" `Quick test_chrome_keys_trees_by_trace;
        ] );
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
