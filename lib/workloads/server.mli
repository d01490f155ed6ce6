(** Server workload models: lighttpd (single process) and nginx (4 worker
    threads), the §5.2/Table 2 population.

    A request costs an event-loop share (amortized under high concurrency,
    which is why per-request time falls from 64 to 1024 connections), an
    accept and a request read, parsing work, a file-content copy at ~0.9
    us/KB, and one write syscall per 64 KB chunk — so 1 KB responses are
    syscall-dominated (NXE overhead ~15-25%) while 1 MB responses are
    copy-dominated (NXE overhead ~1-2%), reproducing Table 2's contrast. *)

type kind = Lighttpd | Nginx

val make :
  kind -> file_kb:int -> connections:int -> requests:int -> Bench.t
(** Build the server benchmark.  [requests] is the total number of requests
    the run serves (split across workers for nginx, with the remainder
    distributed so none are dropped).
    @raise Invalid_argument if [connections < 1] (the event-loop
    amortization model divides by it) or [requests < 1]. *)

val request_ops :
  kind ->
  file_kb:int -> connections:int -> idle:float -> req_id:int ->
  Bunshin_program.Trace.op list
(** The op stream of one request: event-loop share, accept, read, parse,
    per-chunk copy+write, then [idle] us of wire gap.  [req_id] is baked
    into the syscall arguments, so distinct requests are distinct syscall
    streams (the serving front-end builds per-request traces from this). *)


val network_gap_us : file_kb:int -> float
val kind_name : kind -> string
val workers : kind -> int

val slo_target_us : kind -> float
(** Rendezvous-latency SLO for live monitoring ([bunshin slo]): the
    budget for one synchronized syscall, a small multiple of the raw
    syscall cost (nginx's is looser — four workers contend for the
    leader's ring). *)

