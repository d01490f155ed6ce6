(* Golden-report regression tests for the distributed NXE.

   Every field of [Cluster.report] — outcome, forensics, counts, per-kind
   wire traffic, per-link stats, variant status, histograms, per-node
   machine stats — is rendered canonically (floats in hex) and compared
   against a committed snapshot in test/golden/.  The corpus covers the
   three ship modes on clean, divergent and faulted runs, so any change
   that perturbs the distributed schedule — message timing, batching,
   flow control — fails here, not just verdict changes.

   Each scenario also runs with a telemetry sink attached (documented as
   pure observation): both reports must render byte-identically.  The
   remote-quarantine run must also feed the engine's nxe.* counters, as a
   local run does.

   Regenerate with:
     BUNSHIN_REGEN_GOLDEN=test/golden dune exec test/test_cluster_golden.exe *)

module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Nxe = Bunshin_nxe.Nxe
module Cluster = Bunshin_cluster.Cluster
module Net = Bunshin_net.Net
module F = Bunshin_forensics.Forensics
module Faults = Bunshin_faults.Faults
module Tel = Bunshin_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* Canonical report rendering *)

let fl f = Printf.sprintf "%h" f

let sc_str = function
  | None -> "-"
  | Some sc -> Format.asprintf "%a" Sc.pp sc

let render (r : Cluster.report) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  (match r.Cluster.outcome with
   | `All_finished -> line "outcome: all_finished"
   | `Aborted a ->
     line "outcome: aborted chan=%d pos=%d variant=%d" a.Nxe.al_channel a.Nxe.al_position
       a.Nxe.al_variant;
     line "  expected: %s" a.Nxe.al_expected;
     line "  got: %s" a.Nxe.al_got;
     line "  expected_sc: %s" (sc_str a.Nxe.al_expected_sc);
     line "  got_sc: %s" (sc_str a.Nxe.al_got_sc));
  (match r.Cluster.incident with
   | None -> line "incident: -"
   | Some inc -> line "incident: %s" (F.to_json inc));
  line "total_time: %s" (fl r.Cluster.total_time);
  line "variant_finish: %s" (String.concat " " (List.map fl r.Cluster.variant_finish));
  line "variant_cpu: %s" (String.concat " " (List.map fl r.Cluster.variant_cpu));
  line "synced_syscalls: %d" r.Cluster.synced_syscalls;
  line "executed_syscalls: %d" r.Cluster.executed_syscalls;
  line "lockstep_syscalls: %d" r.Cluster.lockstep_syscalls;
  line "remote_checked: %d" r.Cluster.remote_checked;
  line "replicated_results: %d" r.Cluster.replicated_results;
  line "order_entries: %d" r.Cluster.order_entries;
  line "det_replays: %d" r.Cluster.det_replays;
  line "channels: %d" r.Cluster.channels;
  line "placement: %s" (String.concat " " (List.map string_of_int r.Cluster.placement));
  List.iteri
    (fun v st ->
      match st with
      | Nxe.Healthy -> line "variant_status[%d]: healthy" v
      | Nxe.Quarantined { q_time; q_cause; q_restarts } ->
        line "variant_status[%d]: quarantined t=%s cause=%s restarts=%d" v (fl q_time)
          (Nxe.cause_string q_cause) q_restarts
      | Nxe.Recovered { q_time; q_cause; r_time } ->
        line "variant_status[%d]: recovered q=%s cause=%s r=%s" v (fl q_time)
          (Nxe.cause_string q_cause) (fl r_time))
    r.Cluster.variant_status;
  line "coverage_loss: %s" (String.concat "," r.Cluster.coverage_loss);
  List.iteri (fun i inc -> line "fault_incident[%d]: %s" i (F.to_json inc))
    r.Cluster.fault_incidents;
  line "bytes_on_wire: %d" r.Cluster.bytes_on_wire;
  line "msgs_on_wire: %d" r.Cluster.msgs_on_wire;
  let t = r.Cluster.traffic in
  line "traffic: ship=%d batch=%d release=%d ack=%d flow=%d order=%d"
    Cluster.(t.tf_ship) Cluster.(t.tf_batch) Cluster.(t.tf_release)
    Cluster.(t.tf_ack) Cluster.(t.tf_flow) Cluster.(t.tf_order);
  List.iter
    (fun (name, (st : Net.stats)) ->
      line "link %s: msgs=%d bytes=%d retransmits=%d" name st.Net.s_msgs st.Net.s_bytes
        st.Net.s_retransmits)
    r.Cluster.link_stats;
  List.iter
    (fun (name, cells) ->
      line "hist %s: %s" name
        (String.concat " "
           (List.map (fun (ub, c) -> Printf.sprintf "%s:%d" (fl ub) c) cells)))
    r.Cluster.histograms;
  List.iteri
    (fun i (st : M.stats) ->
      line "node[%d]: total=%s ctx=%d pressure_peak=%s" i (fl st.M.total_time)
        st.M.context_switches (fl st.M.cache_pressure_peak))
    r.Cluster.node_stats;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scenario corpus *)

let work c = Trace.Work { func = "f"; cost = c }
let wr args = Trace.Sys (Sc.write ~args ())
let rd args = Trace.Sys (Sc.read ~args ())
let names n = List.init n (fun i -> Printf.sprintf "v%d" i)

(* Read-heavy mix with periodic writes: exercises batching, lockstep and
   replication in one stream. *)
let mixed_trace () =
  List.concat
    (List.init 12 (fun i ->
         [ work 8.0; rd [ 3L; Int64.of_int i ] ]
         @ (if i mod 4 = 0 then [ wr [ 1L; Int64.of_int i ] ] else [])))

(* Locks under spawned threads: weak-determinism order crosses the wire. *)
let mt_trace () =
  let worker tag =
    [ work 12.0; Trace.Lock 0; work 2.0; Trace.Unlock 0; wr [ 1L; tag ] ]
  in
  [ Trace.Spawn (worker 10L) ] @ worker 0L

let diverge_at ~pos ~tag n =
  List.init n (fun v ->
      List.concat
        (List.init 8 (fun i ->
             let x = if v = n - 1 && i = pos then tag else Int64.of_int i in
             [ work 4.0; wr [ 1L; x ] ])))

let quarantine_policy =
  { Nxe.policy = Nxe.Quarantine; heartbeat_timeout = 400.0; restart_backoff = 50.0 }

let run ?(nodes = 2) ?(ship = Cluster.Selective_replicated)
    ?(fault_policy = Nxe.default_policy) ?faults ?coverage telemetry ~names traces =
  Cluster.run_traces ~config:{ Cluster.default_config with nodes; ship }
    ~engine:{ Nxe.default_config with telemetry; fault_policy } ?faults ?coverage ~names
    traces

type scenario = {
  s_name : string;
  s_run : telemetry:Tel.sink option -> Cluster.report;
}

let sc name run = { s_name = name; s_run = run }

let scenarios =
  [
    sc "cluster_naive_clean" (fun ~telemetry ->
        run ~ship:Cluster.Full_remote_lockstep telemetry ~names:(names 3)
          (List.init 3 (fun _ -> mixed_trace ())));
    sc "cluster_selective_clean" (fun ~telemetry ->
        run ~ship:Cluster.Selective telemetry ~names:(names 3)
          (List.init 3 (fun _ -> mixed_trace ())));
    sc "cluster_replicated_clean" (fun ~telemetry ->
        run ~nodes:3 ~ship:Cluster.Selective_replicated telemetry ~names:(names 3)
          (List.init 3 (fun _ -> mixed_trace ())));
    sc "cluster_mt_order" (fun ~telemetry ->
        run ~ship:Cluster.Full_remote_lockstep telemetry ~names:(names 2)
          (List.init 2 (fun _ -> mt_trace ())));
    sc "cluster_diverge_arg" (fun ~telemetry ->
        run ~ship:Cluster.Selective telemetry ~names:(names 3) (diverge_at ~pos:5 ~tag:777L 3));
    sc "cluster_remote_quarantine" (fun ~telemetry ->
        (* The stalled follower sits on node 1: N−1 completion with the
           same coverage-loss accounting the local engine produces. *)
        let faults =
          Faults.make [ { Faults.i_variant = 1; i_at = 2; i_kind = Faults.Stall } ]
        in
        run ~fault_policy:quarantine_policy ~faults
          ~coverage:[ [ "asan"; "msan" ]; [ "msan" ]; [ "asan" ] ]
          telemetry ~names:(names 3) (diverge_at ~pos:(-1) ~tag:0L 3));
  ]

(* ------------------------------------------------------------------ *)
(* Harness *)

let () =
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  List.iter
    (fun s ->
      let base = render (s.s_run ~telemetry:None) in
      let with_tel = render (s.s_run ~telemetry:(Some (Tel.create ()))) in
      if with_tel <> base then
        fail (s.s_name ^ ": telemetry-attached report differs from bare run");
      Result.iter_error (fun e -> fail (s.s_name ^ ": report " ^ e)) (Golden.check s.s_name base);
      print_string ("golden " ^ s.s_name ^ ": checked\n"))
    scenarios;
  (* One telemetry schema on both transports: the remote quarantine run
     feeds the engine's own nxe.* counters. *)
  let sink = Tel.create () in
  let s = List.find (fun s -> s.s_name = "cluster_remote_quarantine") scenarios in
  let r = s.s_run ~telemetry:(Some sink) in
  List.iter
    (fun (name, want) ->
      let got = Tel.Counter.value (Tel.counter sink name) in
      if got <> want then fail (Printf.sprintf "%s: %s = %d, want %d" s.s_name name got want))
    [
      ("nxe.slot_publish", r.Cluster.synced_syscalls);
      ("nxe.faults_injected", 1);
      ("nxe.quarantines", 1);
    ];
  print_string ("telemetry " ^ s.s_name ^ ": checked\n");
  Golden.finish !failures
