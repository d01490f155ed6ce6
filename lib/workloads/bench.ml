module Rng = Bunshin_util.Rng
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program

type suite = Spec_int | Spec_fp | Splash | Parsec | Server

type t = {
  name : string;
  suite : suite;
  threads : int;
  prog : Program.t;
  msan_compatible : bool;
  nxe_supported : bool;
  unsupported_reason : string option;
}

let suite_name = function
  | Spec_int -> "SPEC2006-int"
  | Spec_fp -> "SPEC2006-fp"
  | Splash -> "SPLASH-2x"
  | Parsec -> "PARSEC"
  | Server -> "server"

let phase_burst_reads = 24

(* Both generators emit ops in draw order: each unit's draws are
   let-bound before its ops are consed, and [@tail_mod_cons] builds the
   list front to back in constant stack. *)
let cpu_trace ~funcs ~units ~unit_cost ~syscall_every rng =
  let weighted = Rng.weighted (Array.of_list funcs) in
  let burst_every = max 1 (units / 3) in
  let[@tail_mod_cons] rec unit_ops i =
    if i >= units then []
    else begin
      let fname = Rng.draw rng weighted in
      let jitter = Rng.float_in rng 0.85 1.15 in
      Trace.Work { func = fname; cost = unit_cost *. jitter }
      ::
      (if syscall_every > 0 && (i + 1) mod syscall_every = 0 then
         (* CPU-bound programs mostly read inputs; stdout writes are sparse
            (1 in 12 syscalls) — the ratio behind the selective mode's
            larger run-ahead window on SPEC (§5.3). *)
         Trace.Sys
           (if (i / syscall_every) mod 12 = 11 then Sc.write ~args:[ 1L; Int64.of_int i ] ()
            else Sc.read ~args:[ 3L; Int64.of_int i ] ())
         :: burst fname i 0
       else burst fname i 0)
    end
  (* Phase boundary: a tight burst of input reads (loading the next data
     set).  In selective mode the leader sprints through such bursts while
     followers trail — the source of the §5.3 syscall gap on CPU-intensive
     programs. *)
  and[@tail_mod_cons] burst fname i k =
    if syscall_every > 0 && (i + 1) mod burst_every = 0 && k < phase_burst_reads then
      Trace.Work { func = fname; cost = unit_cost *. 0.05 }
      :: Trace.Sys (Sc.read ~args:[ 3L; Int64.of_int ((i * 100) + k) ] ())
      :: burst fname i (k + 1)
    else unit_ops (i + 1)
  in
  unit_ops 0

let worker_trace ~funcs ~units ~unit_cost ~stall ~racy ~lock_every ~barrier_every ~threads
    ~barrier_base rng =
  let weighted = Rng.weighted (Array.of_list funcs) in
  (* [b] counts the barriers emitted so far. *)
  let[@tail_mod_cons] rec unit_ops i b =
    if i >= units then []
    else begin
      let fname = Rng.draw rng weighted in
      let jitter = Rng.float_in rng 0.85 1.15 in
      let work = Trace.Work { func = fname; cost = unit_cost *. jitter } in
      if lock_every > 0 && (i + 1) mod lock_every = 0 then begin
        let lock_id = (i / lock_every) mod 4 in
        Trace.Lock lock_id
        :: Trace.Work { func = fname; cost = unit_cost *. 0.1 }
        :: Trace.Unlock lock_id :: work :: stalled i b
      end
      else work :: stalled i b
    end
  and[@tail_mod_cons] stalled i b =
    if stall > 0.0 then Trace.Idle (unit_cost *. stall) :: raced i b else raced i b
  and[@tail_mod_cons] raced i b =
    if racy && (i + 1) mod 10 = 0 then
      (* The intentional data race: unguarded shared write whose value
         escapes through a syscall argument. *)
      Trace.Incr 9 :: Trace.Sys_shared (Sc.read ~args:[ 3L ] (), 9) :: barrier i b
    else barrier i b
  and[@tail_mod_cons] barrier i b =
    if barrier_every > 0 && (i + 1) mod barrier_every = 0 then
      Trace.Barrier (barrier_base + b, threads) :: unit_ops (i + 1) (b + 1)
    else unit_ops (i + 1) b
  in
  unit_ops 0 0

let threaded_trace ?(stall = 0.5) ?(racy = false) ~funcs ~threads ~units_per_thread
    ~unit_cost ~lock_every ~barrier_every rng =
  (* Distinct barrier id spaces per round are unnecessary: all threads use
     the same global barrier sequence, so one base works. *)
  let mk () =
    worker_trace ~funcs ~units:units_per_thread ~unit_cost ~stall ~racy ~lock_every
      ~barrier_every ~threads ~barrier_base:0 rng
  in
  let workers = List.init (threads - 1) (fun _ -> Trace.Spawn (mk ())) in
  workers @ mk ()
