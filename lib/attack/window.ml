module Nxe = Bunshin_nxe.Nxe
module Trace = Bunshin_program.Trace
module Sc = Bunshin_syscall.Syscall

type payload = Reads | Writes

type result = {
  wr_mode : string;
  wr_payload : payload;
  wr_detected : bool;
  wr_executed : int;
}

let prefix_syscalls = 10
let n_malicious = 16

let benign_prefix () =
  List.concat
    (List.init prefix_syscalls (fun i ->
         [
           Trace.Work { func = "serve"; cost = 20.0 };
           Trace.Sys (Sc.read ~args:[ 3L; Int64.of_int i ] ());
         ]))

(* The compromised leader's payload: resource-abuse syscalls the followers
   will never issue.  Reads model getdents/close-style calls (not in the
   lockstep-selected class); writes model exfiltration. *)
let malicious payload n =
  List.concat
    (List.init n (fun i ->
         let sc =
           match payload with
           | Reads -> Sc.read ~args:[ 66L; Int64.of_int (6660 + i) ] ()
           | Writes -> Sc.write ~args:[ 66L; Int64.of_int (6660 + i) ] ()
         in
         [ Trace.Work { func = "payload"; cost = 0.5 }; Trace.Sys sc ]))

let mode_name config =
  match config.Nxe.mode with
  | Nxe.Strict_lockstep -> "strict"
  | Nxe.Selective_lockstep -> "selective"

let run ~mode ~payload =
  let leader = benign_prefix () @ malicious payload n_malicious in
  (* The follower is healthy: after the prefix it performs a long
     computation and then its own next (benign) syscall — at which point
     the comparison fails and the monitor aborts everything. *)
  let follower =
    benign_prefix ()
    @ [
        Trace.Work { func = "serve"; cost = 400.0 };
        Trace.Sys (Sc.read ~args:[ 3L; 777L ] ());
      ]
  in
  let r = Nxe.run_traces ~config:mode ~names:[ "leader"; "follower" ] [ leader; follower ] in
  let detected = match r.Nxe.outcome with `Aborted _ -> true | `All_finished -> false in
  (* The engine counts released slots directly: a payload syscall reached
     the kernel iff the leader executed it (set it ready for followers),
     not merely published it.  In strict mode every payload slot is still
     waiting for the follower's arrival when the abort lands (0 executed);
     in selective mode lockstep-selected writes also wait (0), while reads
     run ahead until the abort or the ring fills — so the attack window is
     the ring capacity, never more. *)
  {
    wr_mode = mode_name mode;
    wr_payload = payload;
    wr_detected = detected;
    wr_executed = max 0 (r.Nxe.executed_syscalls - prefix_syscalls);
  }

let summary () =
  [
    run ~mode:Nxe.default_config ~payload:Reads;
    run ~mode:Nxe.default_config ~payload:Writes;
    run ~mode:Nxe.selective ~payload:Reads;
    run ~mode:Nxe.selective ~payload:Writes;
  ]
