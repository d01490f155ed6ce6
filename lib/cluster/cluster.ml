module M = Bunshin_machine.Machine
module F = Bunshin_forensics.Forensics
module Nxe = Bunshin_nxe.Nxe
module Net = Bunshin_net.Net

type ship_mode = Nxe.ship_mode = Full_remote_lockstep | Selective | Selective_replicated

type placement = Nxe.placement = Round_robin | Pinned of int list

type config = Nxe.net = {
  nodes : int;
  placement : placement;
  ship : ship_mode;
  link : Net.params;
  batch_slots : int;
}

let default_config =
  {
    nodes = 2;
    placement = Round_robin;
    ship = Selective_replicated;
    link = Net.default_params;
    batch_slots = 16;
  }

type traffic = Nxe.traffic = {
  tf_ship : int;
  tf_batch : int;
  tf_release : int;
  tf_ack : int;
  tf_flow : int;
  tf_order : int;
}

type report = {
  outcome : [ `All_finished | `Aborted of Nxe.alert ];
  incident : F.incident option;
  total_time : float;
  variant_finish : float list;
  variant_cpu : float list;
  synced_syscalls : int;
  executed_syscalls : int;
  lockstep_syscalls : int;
  remote_checked : int;
  replicated_results : int;
  order_entries : int;
  det_replays : int;
  channels : int;
  placement : int list;
  variant_status : Nxe.variant_status list;
  coverage_loss : string list;
  fault_incidents : F.incident list;
  bytes_on_wire : int;
  msgs_on_wire : int;
  traffic : traffic;
  link_stats : (string * Net.stats) list;
  histograms : (string * (float * int) list) list;
  node_stats : M.stats list;
}

let mode_name = function
  | Full_remote_lockstep -> "naive-full-lockstep"
  | Selective -> "selective"
  | Selective_replicated -> "selective+replication"

(* ------------------------------------------------------------------ *)
(* The cluster is the engine over its Net transport: run, project the
   report. *)

let run_traces ?(config = default_config) ?engine ?machine_config ?working_sets
    ?sensitivities ?faults ?coverage ~names traces =
  let r, w =
    Nxe.run_net config ?config:engine ?machine_config ?working_sets ?sensitivities ?faults
      ?coverage ~names traces
  in
  {
    outcome = r.Nxe.outcome;
    incident = r.Nxe.incident;
    total_time = r.Nxe.total_time;
    variant_finish = r.Nxe.variant_finish;
    variant_cpu = r.Nxe.variant_cpu;
    synced_syscalls = r.Nxe.synced_syscalls;
    executed_syscalls = r.Nxe.executed_syscalls;
    lockstep_syscalls = r.Nxe.lockstep_syscalls;
    remote_checked = w.Nxe.remote_checked;
    replicated_results = w.Nxe.replicated_results;
    order_entries = r.Nxe.order_list_length;
    det_replays = r.Nxe.det_replays;
    channels = r.Nxe.channels;
    placement = w.Nxe.placed;
    variant_status = r.Nxe.variant_status;
    coverage_loss = r.Nxe.coverage_loss;
    fault_incidents = r.Nxe.fault_incidents;
    bytes_on_wire = w.Nxe.bytes_on_wire;
    msgs_on_wire = w.Nxe.msgs_on_wire;
    traffic = w.Nxe.traffic;
    link_stats = w.Nxe.link_stats;
    histograms =
      [
        ("lockstep_wait_us", List.assoc "lockstep_wait_us" r.Nxe.histograms);
        ("net_rtt_us", w.Nxe.net_rtt);
      ];
    node_stats = w.Nxe.node_stats;
  }

(* ------------------------------------------------------------------ *)
(* Verdict signature: everything about an incident except wall times. *)

let incident_signature (inc : F.incident) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "chan=%d pos=%d blamed=%d" inc.F.inc_channel inc.F.inc_position
       inc.F.inc_blamed);
  (match inc.F.inc_basis with
   | F.Majority k -> Buffer.add_string b (Printf.sprintf " basis=majority:%d" k)
   | F.Tie -> Buffer.add_string b " basis=tie"
   | F.Tie_broken_by_detection -> Buffer.add_string b " basis=tie-detect");
  Buffer.add_string b
    (match inc.F.inc_mismatch with
     | F.Argument_mismatch -> " class=argument"
     | F.Sequence_mismatch -> " class=sequence"
     | F.Premature_exit -> " class=premature-exit"
     | F.Fault_isolation -> " class=fault-isolation");
  Buffer.add_string b
    (Printf.sprintf " expected=%S got=%S" inc.F.inc_expected inc.F.inc_got);
  let rec_str (r : F.syscall_rec) =
    Printf.sprintf "%d:%s(%s)" r.F.r_pos r.F.r_name
      (String.concat "," (List.map Int64.to_string r.F.r_args))
  in
  Array.iteri
    (fun v vote ->
      Buffer.add_string b
        (match vote with
         | F.Issued r -> Printf.sprintf " v%d=issued:%s" v (rec_str r)
         | F.Exited -> Printf.sprintf " v%d=exited" v
         | F.Pending -> Printf.sprintf " v%d=pending" v))
    inc.F.inc_votes;
  Array.iteri
    (fun v tape ->
      Buffer.add_string b
        (Printf.sprintf " tape%d=[%s]" v (String.concat ";" (List.map rec_str tape))))
    inc.F.inc_tapes;
  (match inc.F.inc_check_site with
   | None -> ()
   | Some cs ->
     Buffer.add_string b
       (Printf.sprintf " site=%s/%s/%s" cs.F.cs_pass cs.F.cs_func cs.F.cs_block));
  Buffer.contents b
