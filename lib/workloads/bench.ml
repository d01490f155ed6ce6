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

(* Both generators push ops onto one accumulator in draw order and reverse
   it once. *)
let cpu_trace ~funcs ~units ~unit_cost ~syscall_every rng =
  let weighted = Rng.weighted (Array.of_list funcs) in
  let burst_every = max 1 (units / 3) in
  let acc = ref [] in
  let push op = acc := op :: !acc in
  for i = 0 to units - 1 do
    let fname = Rng.draw rng weighted in
    let jitter = Rng.float_in rng 0.85 1.15 in
    push (Trace.Work { func = fname; cost = unit_cost *. jitter });
    if syscall_every > 0 && (i + 1) mod syscall_every = 0 then
      (* CPU-bound programs mostly read inputs; stdout writes are sparse
         (1 in 12 syscalls) — the ratio behind the selective mode's larger
         run-ahead window on SPEC (§5.3). *)
      push
        (Trace.Sys
           (if (i / syscall_every) mod 12 = 11 then Sc.write ~args:[ 1L; Int64.of_int i ] ()
            else Sc.read ~args:[ 3L; Int64.of_int i ] ()));
    if syscall_every > 0 && (i + 1) mod burst_every = 0 then
      (* Phase boundary: a tight burst of input reads (loading the next
         data set).  In selective mode the leader sprints through such
         bursts while followers trail — the source of the §5.3 syscall gap
         on CPU-intensive programs. *)
      for k = 0 to phase_burst_reads - 1 do
        push (Trace.Work { func = fname; cost = unit_cost *. 0.05 });
        push (Trace.Sys (Sc.read ~args:[ 3L; Int64.of_int ((i * 100) + k) ] ()))
      done
  done;
  List.rev !acc

let worker_trace ~funcs ~units ~unit_cost ~stall ~racy ~lock_every ~barrier_every ~threads
    ~barrier_base rng =
  let weighted = Rng.weighted (Array.of_list funcs) in
  let barrier_counter = ref 0 in
  let acc = ref [] in
  let push op = acc := op :: !acc in
  for i = 0 to units - 1 do
    let fname = Rng.draw rng weighted in
    let jitter = Rng.float_in rng 0.85 1.15 in
    if lock_every > 0 && (i + 1) mod lock_every = 0 then begin
      let lock_id = (i / lock_every) mod 4 in
      push (Trace.Lock lock_id);
      push (Trace.Work { func = fname; cost = unit_cost *. 0.1 });
      push (Trace.Unlock lock_id)
    end;
    push (Trace.Work { func = fname; cost = unit_cost *. jitter });
    if stall > 0.0 then push (Trace.Idle (unit_cost *. stall));
    if racy && (i + 1) mod 10 = 0 then begin
      (* The intentional data race: unguarded shared write whose value
         escapes through a syscall argument. *)
      push (Trace.Incr 9);
      push (Trace.Sys_shared (Sc.read ~args:[ 3L ] (), 9))
    end;
    if barrier_every > 0 && (i + 1) mod barrier_every = 0 then begin
      push (Trace.Barrier (barrier_base + !barrier_counter, threads));
      incr barrier_counter
    end
  done;
  List.rev !acc

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
