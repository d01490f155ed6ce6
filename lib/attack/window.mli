(** Attack-window exploitation (the paper's "Attacking Bunshin", §5.3).

    An attacker who fully compromises the leader makes it execute a payload
    of malicious syscalls the followers will never issue.  The followers
    diverge at the payload's first syscall — but in selective-lockstep mode
    the leader runs ahead through the ring buffer, so some prefix of the
    payload may execute before any follower arrives to compare.  This
    module measures that prefix:

    - strict mode: zero — the leader cannot execute any syscall before the
      followers agree to it;
    - selective mode, write payload: ~zero — writes are the lockstep-
      selected class, so the very first exfiltration write blocks;
    - selective mode, read-class payload: up to the ring capacity — the
      simple attacks the paper concedes (killing children, closing
      descriptors, resource exhaustion) live here. *)

type payload = Reads | Writes

type result = {
  wr_mode : string;          (** "strict" or "selective" *)
  wr_payload : payload;
  wr_detected : bool;        (** the monitor aborted the run *)
  wr_executed : int;         (** malicious syscalls the leader completed *)
}

val run : mode:Bunshin_nxe.Nxe.config -> payload:payload -> result
(** Compromise the leader after a benign prefix and measure the damage
    done by a payload of 16 malicious syscalls. *)

val summary : unit -> result list
(** The four mode x payload combinations. *)
