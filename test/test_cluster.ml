(* Tests for the distributed NXE (lib/cluster): placement, ship modes,
   verdict parity with the local engine, remote quarantine, wire
   accounting.  Companion to test_nxe.ml / test_faults.ml. *)

module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Nxe = Bunshin_nxe.Nxe
module Cluster = Bunshin_cluster.Cluster
module Net = Bunshin_net.Net
module Faults = Bunshin_faults.Faults
module F = Bunshin_forensics.Forensics
module Tel = Bunshin_telemetry.Telemetry

open Kit

let read_heavy ?(units = 40) () =
  List.concat
    (List.init units (fun i ->
         [ work 10.0; rd i ]
         @ (if i mod 8 = 0 then [ wr i ] else [])))

let cfg ?(nodes = 2) ?(ship = Cluster.Selective_replicated) ?placement () =
  let c = { Cluster.default_config with nodes; ship } in
  match placement with Some p -> { c with Cluster.placement = p } | None -> c

let run ?config ?engine ?coverage ?faults n trace =
  Cluster.run_traces ?config ?engine ?coverage ?faults ~names:(names n)
    (List.init n (fun _ -> trace))

(* ------------------------------------------------------------------ *)
(* Clean runs *)

let test_clean_all_modes_all_nodes () =
  let trace = basic_trace 20 in
  List.iter
    (fun nodes ->
      List.iter
        (fun ship ->
          let r = run ~config:(cfg ~nodes ~ship ()) 3 trace in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d nodes finished" (Cluster.mode_name ship) nodes)
            true (finished r.Cluster.outcome);
          Alcotest.(check int) "synced all writes" 20 r.Cluster.synced_syscalls;
          Alcotest.(check int) "executed all writes" 20 r.Cluster.executed_syscalls;
          Alcotest.(check int) "one channel" 1 r.Cluster.channels;
          Alcotest.(check int) "node stats per node" nodes
            (List.length r.Cluster.node_stats))
        ship_modes)
    [ 1; 2; 3 ]

let test_single_node_no_wire () =
  (* Everything placed on node 0: the network is never used. *)
  let r = run ~config:(cfg ~nodes:1 ()) 3 (basic_trace 20) in
  Alcotest.(check bool) "finished" true (finished r.Cluster.outcome);
  Alcotest.(check int) "no bytes" 0 r.Cluster.bytes_on_wire;
  Alcotest.(check int) "no msgs" 0 r.Cluster.msgs_on_wire

let test_round_robin_placement () =
  let r = run ~config:(cfg ~nodes:2 ()) 4 (basic_trace 4) in
  Alcotest.(check (list int)) "v mod nodes" [ 0; 1; 0; 1 ] r.Cluster.placement

let test_pinned_placement () =
  let r =
    run ~config:(cfg ~nodes:3 ~placement:(Cluster.Pinned [ 0; 2; 2 ]) ()) 3
      (basic_trace 4)
  in
  Alcotest.(check bool) "finished" true (finished r.Cluster.outcome);
  Alcotest.(check (list int)) "as pinned" [ 0; 2; 2 ] r.Cluster.placement

let test_remote_slower_than_local () =
  (* Same fleet, same work: paying the wire must not be free. *)
  let trace = basic_trace 20 in
  let local = run ~config:(cfg ~nodes:1 ()) 3 trace in
  let remote = run ~config:(cfg ~nodes:3 ~ship:Cluster.Full_remote_lockstep ()) 3 trace in
  Alcotest.(check bool)
    (Printf.sprintf "remote %.0f > local %.0f" remote.Cluster.total_time local.Cluster.total_time)
    true
    (remote.Cluster.total_time > local.Cluster.total_time)

let test_determinism_same_seed () =
  let lossy = { Net.latency_us = 40.0; bytes_per_us = 50.0; loss = 0.2; retransmit_us = 150.0 }
  and config = cfg ~nodes:3 ~ship:Cluster.Selective () in
  let config = { config with Cluster.link = lossy } in
  let r1 = run ~config 3 (read_heavy ()) and r2 = run ~config 3 (read_heavy ()) in
  Alcotest.(check bool) "finished" true (finished r1.Cluster.outcome);
  Alcotest.(check (float 0.0)) "bit-stable total time" r1.Cluster.total_time r2.Cluster.total_time;
  Alcotest.(check int) "bit-stable bytes" r1.Cluster.bytes_on_wire r2.Cluster.bytes_on_wire;
  Alcotest.(check bool) "bit-stable finishes" true
    (r1.Cluster.variant_finish = r2.Cluster.variant_finish)

(* ------------------------------------------------------------------ *)
(* Ship modes: traffic shape *)

let bytes ?(n = 3) ?(nodes = 2) ship trace =
  let r = run ~config:(cfg ~nodes ~ship ()) n trace in
  Alcotest.(check bool) (Cluster.mode_name ship ^ " finished") true
    (finished r.Cluster.outcome);
  (r.Cluster.bytes_on_wire, r)

let test_mode_traffic_ordering () =
  let trace = read_heavy () in
  let naive, rn = bytes Cluster.Full_remote_lockstep trace in
  let sel, rs = bytes Cluster.Selective trace in
  let repl, rr = bytes Cluster.Selective_replicated trace in
  Alcotest.(check bool)
    (Printf.sprintf "naive %d > selective %d" naive sel) true (naive > sel);
  Alcotest.(check bool)
    (Printf.sprintf "selective %d > replicated %d" sel repl) true (sel > repl);
  (* Naive locksteps everything; selective only the writes. *)
  Alcotest.(check int) "naive locksteps all" rn.Cluster.synced_syscalls rn.Cluster.lockstep_syscalls;
  Alcotest.(check int) "selective locksteps writes" 5 rs.Cluster.lockstep_syscalls;
  Alcotest.(check bool) "replication served reads" true (rr.Cluster.replicated_results > 0);
  Alcotest.(check int) "no replication outside that mode" 0 rs.Cluster.replicated_results;
  (* Remote acks flowed back in every mode. *)
  Alcotest.(check bool) "remote checks happened" true (rn.Cluster.remote_checked > 0);
  (* The per-kind split sums to the wire totals. *)
  List.iter
    (fun (r : Cluster.report) ->
      let t = r.Cluster.traffic in
      Alcotest.(check int) "traffic split sums to totals" r.Cluster.bytes_on_wire
        Cluster.(t.tf_ship + t.tf_batch + t.tf_release + t.tf_ack + t.tf_flow + t.tf_order))
    [ rn; rs; rr ]

let test_naive_ships_order_entries () =
  (* Weak-determinism order entries ride the wire only in naive mode;
     selective folds them into the batch stream. *)
  let locky =
    List.concat
      (List.init 10 (fun i ->
           [ Trace.Lock 0; work 2.0; Trace.Unlock 0; wr i ]))
  in
  let _, rn = bytes ~n:2 Cluster.Full_remote_lockstep locky in
  let _, rs = bytes ~n:2 Cluster.Selective locky in
  Alcotest.(check bool) "order entries recorded" true (rn.Cluster.order_entries > 0);
  Alcotest.(check bool) "naive order traffic" true Cluster.(rn.Cluster.traffic.tf_order > 0);
  Alcotest.(check int) "selective has no order stream" 0 Cluster.(rs.Cluster.traffic.tf_order);
  Alcotest.(check int) "replays equal either way" rn.Cluster.det_replays rs.Cluster.det_replays

let test_multithreaded_spawn_across_nodes () =
  let worker tag =
    [ work 20.0; Trace.Lock 0; work 5.0; Trace.Unlock 0; wr tag ]
  in
  let mt = [ Trace.Spawn (worker 10); Trace.Spawn (worker 20) ] @ worker 0 in
  List.iter
    (fun ship ->
      let r = run ~config:(cfg ~nodes:2 ~ship ()) 2 mt in
      Alcotest.(check bool) (Cluster.mode_name ship ^ " finished") true
    (finished r.Cluster.outcome);
      Alcotest.(check int) "three channels" 3 r.Cluster.channels;
      Alcotest.(check int) "three writes synced" 3 r.Cluster.synced_syscalls;
      Alcotest.(check int) "order replayed remotely" 3 r.Cluster.det_replays)
    ship_modes

let test_ring_bound_uses_flow_acks () =
  (* The leader bounds its run-ahead by the cursors its remote followers
     have flow-acked, not by their live cursors.  With a 16-slot ring it
     executes the 17th read only after the slowest follower (v2) has
     consumed the first batch of 16 — one link latency after the batch
     left, at 50 us of work per read — and its flow ack has crossed the
     link back. *)
  let latency = 500.0 and slow = 50.0 in
  let reads w = List.concat (List.init 17 (fun i -> [ work w; rd i ])) in
  let r =
    Cluster.run_traces
      ~config:
        { (cfg ~nodes:3 ~ship:Cluster.Selective ()) with
          Cluster.link = { Net.default_params with latency_us = latency } }
      ~engine:{ Nxe.default_config with ring_capacity = 16 }
      ~names:(names 3) [ reads 1.0; reads 1.0; reads slow ]
  in
  Alcotest.(check bool) "finished" true (finished r.Cluster.outcome);
  let leader_finish = List.hd r.Cluster.variant_finish in
  Alcotest.(check bool)
    (Printf.sprintf "leader finished at %.0f us, after the slow flow ack" leader_finish)
    true
    (leader_finish >= (2.0 *. latency) +. (16.0 *. slow))

(* ------------------------------------------------------------------ *)
(* Verdict parity: local engine vs every ship mode *)

let alert r =
  match r.Cluster.outcome with `Aborted a -> Some a | `All_finished -> None

let test_divergence_verdict_mode_independent () =
  let leader = [ work 10.0; wr 42 ] in
  let follower = [ work 10.0; wr 666 ] in
  let local = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  let local_alert =
    match local.Nxe.outcome with `Aborted a -> a | `All_finished -> Alcotest.fail "local must abort"
  in
  let sigs =
    List.map
      (fun ship ->
        let r =
          Cluster.run_traces ~config:(cfg ~nodes:2 ~ship ()) ~names:(names 2)
            [ leader; follower ]
        in
        (match alert r with
         | Some a ->
           (* The alert record carries no timestamps: plain structural
              equality against the single-host engine's verdict. *)
           Alcotest.(check bool)
             (Cluster.mode_name ship ^ " alert = local alert")
             true (a = local_alert)
         | None -> Alcotest.failf "%s did not abort" (Cluster.mode_name ship));
        match r.Cluster.incident with
        | Some inc -> Cluster.incident_signature inc
        | None -> Alcotest.fail "abort must attach forensics")
      ship_modes
  in
  match sigs with
  | [ a; b; c ] ->
    Alcotest.(check string) "naive = selective signature" a b;
    Alcotest.(check string) "selective = replicated signature" b c
  | _ -> assert false

let test_sequence_divergence_remote () =
  (* The extra follower syscall surfaces as the same premature/extra
     verdict whether the follower is local or across the wire. *)
  let leader = [ work 10.0; wr 5 ] in
  let follower = [ work 10.0; wr 5; rd 9 ] in
  List.iter
    (fun ship ->
      let r =
        Cluster.run_traces ~config:(cfg ~nodes:2 ~ship ()) ~names:(names 2)
          [ leader; follower ]
      in
      match alert r with
      | Some a ->
        Alcotest.(check int) "variant 1" 1 a.Nxe.al_variant;
        Alcotest.(check bool) "expected end-of-stream" true (a.Nxe.al_expected_sc = None);
        (match a.Nxe.al_got_sc with
         | Some got -> Alcotest.(check string) "extra syscall" "read" got.Sc.name
         | None -> Alcotest.fail "alert should carry the extra syscall")
      | None -> Alcotest.failf "%s did not abort" (Cluster.mode_name ship))
    ship_modes

let test_leader_exit_wakes_remote_follower () =
  (* The remote follower reaches its extra write while the leader still
     works, so it parks on its node's delivery watermark.  No delivery
     follows: only the leader's exit wake, which reaches every node, lets
     it see the drained stream and report the extra syscall. *)
  let leader = [ work 10.0; wr 5; work 1000.0 ] in
  let follower = [ work 10.0; wr 5; wr 6 ] in
  List.iter
    (fun ship ->
      let tag = Cluster.mode_name ship in
      let r =
        Cluster.run_traces ~config:(cfg ~nodes:2 ~ship ()) ~names:(names 2)
          [ leader; follower ]
      in
      match alert r with
      | Some a ->
        Alcotest.(check int) (tag ^ ": variant 1") 1 a.Nxe.al_variant;
        Alcotest.(check string) (tag ^ ": expected end-of-stream") "<exit>" a.Nxe.al_expected;
        Alcotest.(check string) (tag ^ ": extra syscall") "write" a.Nxe.al_got
      | None -> Alcotest.failf "%s did not abort" tag)
    ship_modes

let test_incident_tape_window () =
  (* A divergence past the recorder depth: in every ship mode, each
     variant's incident tape is the 16-slot window that ends at the
     divergent slot. *)
  let reads tag =
    List.concat
      (List.init 24 (fun i ->
           [ work 5.0; rd (if i = 20 then tag else i) ]))
  in
  List.iter
    (fun ship ->
      let r =
        Cluster.run_traces ~config:(cfg ~nodes:2 ~ship ()) ~names:(names 2)
          [ reads 20; reads 999 ]
      in
      match r.Cluster.incident with
      | Some inc ->
        Alcotest.(check int) "divergent slot" 20 inc.F.inc_position;
        Array.iteri
          (fun v tape ->
            let tag = Printf.sprintf "%s v%d tape" (Cluster.mode_name ship) v in
            Alcotest.(check (list int)) tag (List.init 16 (fun i -> 5 + i))
              (List.map (fun (e : F.syscall_rec) -> e.F.r_pos) tape))
          inc.F.inc_tapes
      | None -> Alcotest.failf "%s did not abort" (Cluster.mode_name ship))
    ship_modes

let test_abort_stops_remote_tail () =
  let tail = List.init 100 (fun _ -> work 100.0) in
  let leader = work 1.0 :: wr 1 :: tail in
  let follower = work 1.0 :: wr 2 :: tail in
  let r =
    Cluster.run_traces
      ~config:(cfg ~nodes:2 ~ship:Cluster.Selective_replicated ())
      ~names:(names 2) [ leader; follower ]
  in
  Alcotest.(check bool) "aborted" true (alert r <> None);
  Alcotest.(check bool) "stopped early" true (r.Cluster.total_time < 5000.0)

(* ------------------------------------------------------------------ *)
(* Faults across the wire *)

let quarantine =
  {
    Nxe.default_config with
    fault_policy =
      { Nxe.policy = Nxe.Quarantine; heartbeat_timeout = 400.0; restart_backoff = 50.0 };
  }

let test_remote_stall_quarantine_parity () =
  (* v1 lives on node 1 under round-robin: it hangs mid-stream on the far
     side of the wire.  The survivors must complete N−1 with the SAME
     coverage-loss accounting the local engine produces for the same
     stall. *)
  let local =
    Nxe.run_traces
      ~config:quarantine
      ~faults:stall_v1 ~coverage:coverage3 ~names:(names 3)
      (List.init 3 (fun _ -> chaos_trace ()))
  in
  Alcotest.(check bool) "local N-1 finished" true (local.Nxe.outcome = `All_finished);
  List.iter
    (fun ship ->
      let r =
        run
          ~config:(cfg ~nodes:2 ~ship ()) ~engine:quarantine
          ~coverage:coverage3 ~faults:stall_v1 3 (chaos_trace ())
      in
      let tag = Cluster.mode_name ship in
      Alcotest.(check bool) (tag ^ ": survivors finished") true (finished r.Cluster.outcome);
      (match List.nth r.Cluster.variant_status 1 with
       | Nxe.Quarantined { q_cause = Nxe.Missed_heartbeat silence; q_restarts; _ } ->
         Alcotest.(check bool) "silence >= timeout" true (silence >= 400.0);
         Alcotest.(check int) "no restarts" 0 q_restarts
       | _ -> Alcotest.fail (tag ^ ": expected Quarantined/Missed_heartbeat"));
      Alcotest.(check int) (tag ^ ": leader executed everything") chaos_units
        r.Cluster.executed_syscalls;
      Alcotest.(check (list string))
        (tag ^ ": coverage loss identical to local")
        local.Nxe.coverage_loss r.Cluster.coverage_loss;
      (match r.Cluster.fault_incidents with
       | [ inc ] ->
         Alcotest.(check bool) "fault isolation" true (inc.F.inc_mismatch = F.Fault_isolation);
         Alcotest.(check int) "victim blamed" 1 inc.F.inc_blamed
       | l -> Alcotest.failf "%s: expected one incident, got %d" tag (List.length l));
      Alcotest.(check bool) (tag ^ ": no abort incident") true (r.Cluster.incident = None))
    ship_modes

let test_corrupt_remote_aborts () =
  (* Argument corruption on a remote follower is a divergence, not a
     benign fault — even under Quarantine. *)
  let faults =
    Faults.make
      [ { Faults.i_variant = 1; i_at = 5; i_kind = Faults.Corrupt { c_arg = 1; c_delta = 7L } } ]
  in
  let r =
    run
      ~config:(cfg ~nodes:2 ~ship:Cluster.Selective ()) ~engine:quarantine
      ~faults 3 (basic_trace 10)
  in
  match alert r with
  | Some a ->
    Alcotest.(check int) "corrupted variant blamed" 1 a.Nxe.al_variant;
    Alcotest.(check bool) "forensics attached" true (r.Cluster.incident <> None)
  | None -> Alcotest.fail "corruption must abort"

let test_leader_fault_aborts_cluster () =
  let faults = Faults.make [ { Faults.i_variant = 0; i_at = 3; i_kind = Faults.Stall } ] in
  let r =
    run
      ~config:(cfg ~nodes:2 ()) ~engine:quarantine
      ~faults 3 (chaos_trace ())
  in
  match alert r with
  | Some a -> Alcotest.(check int) "leader named" 0 a.Nxe.al_variant
  | None -> Alcotest.fail "leader fault must abort"

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_histograms_and_counters () =
  let sink = Tel.create () in
  let r =
    run ~config:(cfg ~nodes:2 ~ship:Cluster.Selective ())
      ~engine:{ Nxe.default_config with telemetry = Some sink } 3 (read_heavy ())
  in
  Alcotest.(check bool) "finished" true (finished r.Cluster.outcome);
  Alcotest.(check bool) "lockstep wait hist" true
    (List.mem_assoc "lockstep_wait_us" r.Cluster.histograms);
  Alcotest.(check bool) "rtt hist" true (List.mem_assoc "net_rtt_us" r.Cluster.histograms);
  let rtt_samples =
    List.fold_left (fun a (_, c) -> a + c) 0 (List.assoc "net_rtt_us" r.Cluster.histograms)
  in
  Alcotest.(check bool) "rtt observed per lockstep ack" true (rtt_samples > 0);
  let text = Tel.metrics_to_text sink in
  Alcotest.(check bool) "net bytes counter on sink" true (contains text "net.bytes_sent");
  Alcotest.(check bool) "per-link counter on sink" true (contains text "net.n0-n1.bytes_sent");
  Alcotest.(check bool) "link stats named" true
    (List.mem_assoc "n0-n1" r.Cluster.link_stats && List.mem_assoc "n1-n0" r.Cluster.link_stats)

(* ------------------------------------------------------------------ *)
(* Validation *)

let test_validation () =
  let t = basic_trace 2 in
  Alcotest.(check bool) "nodes >= 1" true
    (invalid (fun () -> run ~config:(cfg ~nodes:0 ()) 2 t));
  Alcotest.(check bool) "pinned wrong length" true
    (invalid (fun () -> run ~config:(cfg ~nodes:2 ~placement:(Cluster.Pinned [ 0 ]) ()) 2 t));
  Alcotest.(check bool) "pinned out of range" true
    (invalid (fun () -> run ~config:(cfg ~nodes:2 ~placement:(Cluster.Pinned [ 0; 5 ]) ()) 2 t));
  Alcotest.(check bool) "leader must be on node 0" true
    (invalid (fun () -> run ~config:(cfg ~nodes:2 ~placement:(Cluster.Pinned [ 1; 0 ]) ()) 2 t));
  Alcotest.(check bool) "restart_once unsupported" true
    (invalid (fun () ->
         run
           ~engine:
             {
               Nxe.default_config with
               fault_policy =
                 { Nxe.policy = Nxe.Restart_once; heartbeat_timeout = 100.0; restart_backoff = 10.0 };
             }
           2 t));
  Alcotest.(check bool) "fork rejected" true
    (invalid (fun () -> run ~config:(cfg ()) 2 [ Trace.Fork [ work 1.0 ]; wr 64 ]));
  let ring c = { Nxe.default_config with ring_capacity = c } in
  Alcotest.(check bool) "ring below the flow-ack period" true
    (invalid (fun () -> run ~engine:(ring 15) 2 t));
  Alcotest.(check bool) "ring of one flow-ack period" false
    (invalid (fun () -> run ~engine:(ring 16) 2 t))

(* ------------------------------------------------------------------ *)
(* Property: observation equivalence of the ship modes *)

(* Spawn-free traces only: channel numbering is creation-ordered, so a
   multithreaded interleaving could legitimately differ between runs;
   single-channel traces make verdicts directly comparable. *)
let prop_ship_modes_observation_equivalent =
  QCheck.Test.make
    ~name:"cluster: naive, selective and replicated agree on the verdict" ~count:30
    QCheck.(quad ops (int_range 0 20) (int_range 2 3) bool)
    (fun (ops, k, nodes, clean) ->
      (* QCheck's shrinker can step outside int_range: clamp. *)
      let nodes = max 2 (min 3 nodes) in
      let base = trace_of_ops ops in
      let follower = if clean then base else Trace.perturb_syscall ~k base in
      (* k can exceed the syscall count, leaving the follower untouched. *)
      let mutated = follower <> base in
      let verdicts =
        List.map
          (fun ship ->
            verdict
              (Cluster.run_traces ~config:(cfg ~nodes ~ship ()) ~names:(names 2)
                 [ base; follower ])
                .Cluster.outcome)
          ship_modes
      in
      match verdicts with
      | [ a; b; c ] -> a = b && b = c && mutated = (a <> None)
      | _ -> false)

let prop_cluster_matches_local_engine =
  QCheck.Test.make ~name:"cluster: verdicts match the single-host engine" ~count:20
    QCheck.(triple ops (int_range 0 20) bool)
    (fun (ops, k, clean) ->
      let base = trace_of_ops ops in
      let follower = if clean then base else Trace.perturb_syscall ~k base in
      let local = Nxe.run_traces ~names:(names 2) [ base; follower ] in
      let remote =
        Cluster.run_traces
          ~config:(cfg ~nodes:2 ~ship:Cluster.Selective_replicated ())
          ~names:(names 2) [ base; follower ]
      in
      verdict local.Nxe.outcome = verdict remote.Cluster.outcome)

(* ------------------------------------------------------------------ *)
(* Property: a one-node cluster is the local engine *)

(* With every variant on node 0 the Net transport ships nothing, so a
   cluster run must reproduce the local engine bit for bit: naive mode
   against strict lockstep, the selective modes against selective
   lockstep (their sensitive set is the selective-lockstep set on traces
   without process or socket syscalls).  The draw is a one-node fleet
   without faults; its ship mode is not read. *)
let alert_str = function
  | `All_finished -> "finished"
  | `Aborted a ->
    Printf.sprintf "aborted(ch%d@%d v%d %s!=%s)" a.Nxe.al_channel a.Nxe.al_position
      a.Nxe.al_variant a.Nxe.al_expected a.Nxe.al_got

let status_str l =
  String.concat ";"
    (List.map
       (function
         | Nxe.Healthy -> "H"
         | Nxe.Quarantined q -> Printf.sprintf "Q@%s" (fl q.q_time)
         | Nxe.Recovered q -> Printf.sprintf "R@%s" (fl q.r_time))
       l)

let hist_str cells =
  String.concat "," (List.map (fun (ub, c) -> Printf.sprintf "%s*%d" (fl ub) c) cells)

let stats_str (s : M.stats) =
  Printf.sprintf "t=%s ctx=%d peak=%s" (fl s.M.total_time) s.M.context_switches
    (fl s.M.cache_pressure_peak)

let local_scalars (r : Nxe.report) =
  Printf.sprintf
    ("%s t=%s fin=[%s] cpu=[%s] syn=%d exe=%d lock=%d ord=%d rep=%d ch=%d "
    ^^ "st=[%s] wait=[%s] %s")
    (alert_str r.Nxe.outcome) (fl r.Nxe.total_time) (fls r.Nxe.variant_finish)
    (fls r.Nxe.variant_cpu) r.Nxe.synced_syscalls r.Nxe.executed_syscalls
    r.Nxe.lockstep_syscalls r.Nxe.order_list_length r.Nxe.det_replays r.Nxe.channels
    (status_str r.Nxe.variant_status)
    (hist_str (List.assoc "lockstep_wait_us" r.Nxe.histograms))
    (stats_str r.Nxe.machine_stats)

let cluster_scalars (r : Cluster.report) =
  Printf.sprintf
    ("%s t=%s fin=[%s] cpu=[%s] syn=%d exe=%d lock=%d ord=%d rep=%d ch=%d "
    ^^ "st=[%s] wait=[%s] %s")
    (alert_str r.Cluster.outcome) (fl r.Cluster.total_time) (fls r.Cluster.variant_finish)
    (fls r.Cluster.variant_cpu) r.Cluster.synced_syscalls r.Cluster.executed_syscalls
    r.Cluster.lockstep_syscalls r.Cluster.order_entries r.Cluster.det_replays
    r.Cluster.channels
    (status_str r.Cluster.variant_status)
    (hist_str (List.assoc "lockstep_wait_us" r.Cluster.histograms))
    (match r.Cluster.node_stats with [ s ] -> stats_str s | _ -> "nodes<>1")

let prop_one_node_cluster_is_local_engine =
  QCheck.Test.make ~name:"cluster: one node reproduces the local engine" ~count:1000
    (fleet ~max_nodes:1 ~fault:false ())
    (fun f ->
      let traces = fleet_traces f and names = names f.f_n in
      let cluster ship = Cluster.run_traces ~config:(cfg ~nodes:1 ~ship ()) ~names traces in
      let strict = Nxe.run_traces ~names traces in
      let naive = cluster Cluster.Full_remote_lockstep in
      let local_sel = Nxe.run_traces ~config:Nxe.selective ~names traces in
      let agree what a b =
        if a <> b then QCheck.Test.fail_reportf "%s:\n  local   %s\n  cluster %s" what a b
        else true
      in
      agree "naive vs strict" (local_scalars strict) (cluster_scalars naive)
      && signature strict.Nxe.incident = signature naive.Cluster.incident
      && List.for_all
           (fun ship ->
             let r = cluster ship in
             agree (Cluster.mode_name ship ^ " vs selective") (local_scalars local_sel)
               (cluster_scalars r)
             && r.Cluster.outcome = local_sel.Nxe.outcome
             && agree
                  (Cluster.mode_name ship ^ " incident vs selective")
                  (Option.value ~default:"-" (signature local_sel.Nxe.incident))
                  (Option.value ~default:"-" (signature r.Cluster.incident)))
           [ Cluster.Selective; Cluster.Selective_replicated ])

(* ------------------------------------------------------------------ *)
(* Property: bursts finished inline across nodes are exact *)

(* A telemetry sink keeps every burst on the scheduled path, so a fleet
   run with and without one compares the group loop's inline bursts
   against the schedule they stand for.  Faults land on a follower, which
   round-robin placement puts off node 0 whenever there is a second node;
   they run under the quarantine policy with a watchdog. *)
let fleet_run f ~sink =
  let faults, fault_policy = fleet_faults f in
  let engine =
    { Nxe.default_config with
      fault_policy;
      telemetry = (if sink then Some (Tel.create ()) else None) }
  in
  Cluster.run_traces ~config:(cfg ~nodes:f.f_nodes ~ship:f.f_ship ()) ~engine ~faults
    ~names:(names f.f_n) (fleet_traces f)

let wire_str (r : Cluster.report) =
  let t = r.Cluster.traffic in
  Printf.sprintf "%s %s t=%s fin=[%s] cpu=[%s] bytes=%d msgs=%d tf=%d,%d,%d,%d,%d,%d links=[%s]"
    (alert_str r.Cluster.outcome)
    (Option.value ~default:"-" (signature r.Cluster.incident))
    (fl r.Cluster.total_time) (fls r.Cluster.variant_finish) (fls r.Cluster.variant_cpu)
    r.Cluster.bytes_on_wire r.Cluster.msgs_on_wire Cluster.(t.tf_ship) Cluster.(t.tf_batch)
    Cluster.(t.tf_release) Cluster.(t.tf_ack) Cluster.(t.tf_flow) Cluster.(t.tf_order)
    (String.concat ";"
       (List.map
          (fun (name, (s : Net.stats)) ->
            Printf.sprintf "%s:%d/%d/%d" name s.Net.s_msgs s.Net.s_bytes s.Net.s_retransmits)
          r.Cluster.link_stats))

let prop_inline_bursts_across_nodes_exact =
  QCheck.Test.make ~name:"cluster: inline bursts across nodes equal scheduled ones" ~count:150
    (fleet ())
    (fun f ->
      let plain = fleet_run f ~sink:false and traced = fleet_run f ~sink:true in
      let a = wire_str plain and b = wire_str traced in
      if a <> b then QCheck.Test.fail_reportf "without sink %s\n   with sink %s" a b
      else plain.Cluster.outcome = traced.Cluster.outcome)

let () =
  Alcotest.run "bunshin_cluster"
    [
      ( "clean",
        [
          Alcotest.test_case "all modes x nodes finish" `Quick test_clean_all_modes_all_nodes;
          Alcotest.test_case "single node uses no wire" `Quick test_single_node_no_wire;
          Alcotest.test_case "round-robin placement" `Quick test_round_robin_placement;
          Alcotest.test_case "pinned placement" `Quick test_pinned_placement;
          Alcotest.test_case "remote slower than local" `Quick test_remote_slower_than_local;
          Alcotest.test_case "bit-stable under a seed" `Quick test_determinism_same_seed;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "naive > selective > replicated" `Quick test_mode_traffic_ordering;
          Alcotest.test_case "order stream only in naive" `Quick test_naive_ships_order_entries;
          Alcotest.test_case "multithreaded across nodes" `Quick test_multithreaded_spawn_across_nodes;
          Alcotest.test_case "ring bound uses flow acks" `Quick test_ring_bound_uses_flow_acks;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "argument divergence mode-independent" `Quick
            test_divergence_verdict_mode_independent;
          Alcotest.test_case "sequence divergence remote" `Quick test_sequence_divergence_remote;
          Alcotest.test_case "leader exit wakes remote follower" `Quick
            test_leader_exit_wakes_remote_follower;
          Alcotest.test_case "abort stops remote tail" `Quick test_abort_stops_remote_tail;
          Alcotest.test_case "incident tape window" `Quick test_incident_tape_window;
        ] );
      ( "faults",
        [
          Alcotest.test_case "remote stall quarantine parity" `Quick
            test_remote_stall_quarantine_parity;
          Alcotest.test_case "remote corrupt aborts" `Quick test_corrupt_remote_aborts;
          Alcotest.test_case "leader fault aborts" `Quick test_leader_fault_aborts_cluster;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "histograms and counters" `Quick test_histograms_and_counters;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "properties",
        qcheck
          [
            prop_ship_modes_observation_equivalent;
            prop_cluster_matches_local_engine;
            prop_one_node_cluster_is_local_engine;
            prop_inline_bursts_across_nodes_exact;
          ] );
    ]
