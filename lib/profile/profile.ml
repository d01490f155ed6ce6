module Json = Bunshin_util.Json
module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program

module Pthreads = Bunshin_machine.Pthreads

type t = { prog_name : string; total_time : float; by_func : (string * float) list Lazy.t }

(* ------------------------------------------------------------------ *)
(* Phase taxonomy: names for the machine's accounting buckets.  Slots 0-4
   are machine-owned; the rest claim client slots, shared by the solo
   executor below and the NXE's instrumentation. *)

module Phase = struct
  type t =
    | Compute        (** application work (minus the sanitizer share) *)
    | Queue          (** runnable, waiting for a core *)
    | Idle           (** sleeping (I/O gaps, network wire time) *)
    | Sched          (** context-switch cost *)
    | Wait           (** blocked, cause untagged *)
    | Sanitizer      (** check execution + residual, carved out of Compute *)
    | Syscall_service (** kernel service cost of syscalls *)
    | Publish        (** NXE leader: ring check-in *)
    | Fetch          (** NXE follower: slot fetch *)
    | Synccall       (** weak-determinism order replication *)
    | Resched        (** futex sleep/wake round trips at sync points *)
    | Lockstep_wait  (** blocked at an NXE sync point *)
    | Pthread_wait   (** blocked on an application lock/barrier *)

  let all =
    [
      Compute; Sanitizer; Syscall_service; Publish; Fetch; Synccall; Resched;
      Lockstep_wait; Pthread_wait; Queue; Sched; Wait; Idle;
    ]

  let slot = function
    | Compute -> M.slot_compute
    | Queue -> M.slot_queue
    | Idle -> M.slot_idle
    | Sched -> M.slot_sched
    | Wait -> M.slot_wait
    | Sanitizer -> M.first_client_slot
    | Syscall_service -> M.first_client_slot + 1
    | Publish -> M.first_client_slot + 2
    | Fetch -> M.first_client_slot + 3
    | Synccall -> M.first_client_slot + 4
    | Resched -> M.first_client_slot + 5
    | Lockstep_wait -> M.first_client_slot + 6
    | Pthread_wait -> M.first_client_slot + 7

  let name = function
    | Compute -> "compute"
    | Queue -> "queue"
    | Idle -> "idle"
    | Sched -> "sched"
    | Wait -> "wait"
    | Sanitizer -> "sanitizer"
    | Syscall_service -> "syscall"
    | Publish -> "publish"
    | Fetch -> "fetch"
    | Synccall -> "synccall"
    | Resched -> "resched"
    | Lockstep_wait -> "lockstep_wait"
    | Pthread_wait -> "pthread_wait"
end

(* Sanitizer-attributable fraction of a function's measured compute under
   this build: checks and residual inflate Work cost by [cost_factor], so
   that share of whatever the machine actually charged (including cache
   inflation, which scales both parts alike) belongs to the sanitizer. *)
let share_of_factor cf = if cf <= 1.0 then 0.0 else (cf -. 1.0) /. cf

let exec_trace m build trace =
  (* One lazy for the main process and its forked children: the machine
     forces it only under LLC over-subscription, and
     [Program.overhead_of_build] regenerates the program's seed-0 trace. *)
  let sens = lazy (1.0 /. (1.0 +. Program.overhead_of_build build)) in
  let proc =
    M.new_proc m ~cache_sensitivity:sens ~name:build.Program.prog.Program.name
      ~working_set:(Program.build_working_set build) ()
  in
  let st = Pthreads.create () in
  let counters : (int, int64 ref) Hashtbl.t = Hashtbl.create 4 in
  let counter id =
    match Hashtbl.find_opt counters id with
    | Some r -> r
    | None ->
      let r = ref 0L in
      Hashtbl.replace counters id r;
      r
  in
  (* Phase-tagged wrappers: identical compute/wait calls (the schedule is
     untouched), only the accounting bucket differs. *)
  let compute_as phase cost =
    let prev = M.set_phase m (Phase.slot phase) in
    M.compute m cost;
    ignore (M.set_phase m prev)
  in
  let wait_as phase f =
    let prev = M.set_wait_phase m (Phase.slot phase) in
    f ();
    ignore (M.set_wait_phase m prev)
  in
  let rec run_ops ops () =
    List.iter
      (fun op ->
        match op with
        | Trace.Work w -> M.compute m w.cost
        | Trace.Idle d -> M.sleep m d
        | Trace.Sys sc -> compute_as Phase.Syscall_service (Sc.base_cost sc)
        | Trace.Lock id -> wait_as Phase.Pthread_wait (fun () -> Pthreads.lock m st id)
        | Trace.Unlock id -> Pthreads.unlock m st id
        | Trace.Incr id ->
          let r = counter id in
          r := Int64.add !r 1L;
          M.compute m 0.05
        | Trace.Sys_shared (sc, id) ->
          ignore (Sc.make ~args:(sc.Sc.args @ [ !(counter id) ]) sc.Sc.name);
          compute_as Phase.Syscall_service (Sc.base_cost sc)
        | Trace.Shared_read { region; counter = c } ->
          (* Solo runs own the real mapping: the world value is visible. *)
          let r = counter c in
          let reads = counter (1000 + region) in
          reads := Int64.add !reads 1L;
          r := Int64.add (Int64.mul !reads 7L) (Int64.of_int region);
          M.compute m 2.0
        | Trace.Barrier (id, expected) ->
          wait_as Phase.Pthread_wait (fun () -> Pthreads.barrier m st id expected)
        | Trace.Spawn sub -> ignore (M.spawn m proc ~name:"thread" (run_ops sub))
        | Trace.Fork sub ->
          (* Without an NXE there is no execution-group bookkeeping: the
             child is simply a thread of a new process. *)
          let child =
            M.new_proc m ~cache_sensitivity:sens
              ~name:(build.Program.prog.Program.name ^ ".child")
              ~working_set:(Program.build_working_set build) ()
          in
          ignore (M.spawn m child ~name:"child" (run_ops sub))
        | Trace.Marker _ -> ())
      ops
  in
  ignore (M.spawn m proc ~name:"main" (run_ops trace));
  proc

let exec_build m build ~seed = exec_trace m build (Program.build_trace build ~seed)

(* [exec_build] on a fresh machine, keeping the trace for [by_func]. *)
let measure ?machine_config build ~seed =
  let m =
    match machine_config with
    | Some config -> M.create ~config ()
    | None -> M.create ()
  in
  let trace = Program.build_trace build ~seed in
  ignore (exec_trace m build trace);
  M.run m;
  {
    prog_name = build.Program.prog.Program.name;
    total_time = (M.stats m).M.total_time;
    by_func = lazy (Trace.work_by_func trace);
  }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "program\t%s\n" t.prog_name);
  Buffer.add_string buf (Printf.sprintf "total\t%.6f\n" t.total_time);
  List.iter
    (fun (f, v) -> Buffer.add_string buf (Printf.sprintf "func\t%s\t%.6f\n" f v))
    (Lazy.force t.by_func);
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let prog_name = ref None and total = ref None and funcs = ref [] in
  let bad line = Error (Printf.sprintf "Profile.of_string: malformed line %S" line) in
  let rec parse = function
    | [] | [ "" ] -> (
      match (!prog_name, !total) with
      | Some p, Some t ->
        Ok { prog_name = p; total_time = t; by_func = Lazy.from_val (List.rev !funcs) }
      | _ -> Error "Profile.of_string: missing program/total header")
    | line :: rest -> (
      match String.split_on_char '\t' line with
      | [ "program"; p ] ->
        prog_name := Some p;
        parse rest
      | [ "total"; v ] -> (
        match float_of_string_opt v with
        | Some f ->
          total := Some f;
          parse rest
        | None -> bad line)
      | [ "func"; f; v ] -> (
        match float_of_string_opt v with
        | Some fv ->
          funcs := (f, fv) :: !funcs;
          parse rest
        | None -> bad line)
      | _ -> bad line)
  in
  parse lines

let overhead_by_func ~baseline ~instrumented =
  let base = Lazy.force baseline.by_func in
  List.map
    (fun (fname, cost) ->
      let b = Option.value ~default:0.0 (List.assoc_opt fname base) in
      (fname, Float.max 0.0 (cost -. b)))
    (Lazy.force instrumented.by_func)

let total_overhead ~baseline ~instrumented =
  Bunshin_util.Stats.overhead ~baseline:baseline.total_time ~measured:instrumented.total_time

(* ------------------------------------------------------------------ *)
(* Overhead-attribution collector: preallocated per-variant aggregates
   plus a bounded ring of sync-point records (flight-recorder idiom — a
   long run can never grow memory, and recording allocates nothing). *)

module Collector = struct
  type sync_point = {
    sp_chan : int;
    sp_pos : int;
    sp_time : float;      (** rendezvous completion, machine us *)
    sp_straggler : int;   (** last variant to arrive *)
    sp_wait : float;      (** last arrival - first arrival, us *)
  }

  type t = {
    n : int;
    mutable recorded : int; (* total sync points seen; ring keeps the last [capacity] *)
    s_chan : int array;
    s_pos : int array;
    s_time : float array;
    s_straggler : int array;
    s_wait : float array;
    (* exact per-variant aggregates, never dropped *)
    straggler_count : int array;
    straggler_wait : float array;
    (* per-variant check fractions, set by Nxe.run_builds so the executor
       can split compute from sanitizer time without extra computes *)
    check_fracs : float Program.Func_tbl.t array;
    (* filled once at end of run *)
    names : string array;
    phases : float array array; (* n x Machine.phase_slots *)
    wall : float array;         (* per-variant finish time, us *)
    thread_time : float array;  (* per-variant sum of thread lifetimes, us *)
    cpu : float array;
    mutable total_time : float;
    mutable workload : string;
  }

  let capacity = 4096

  let create n =
    if n < 1 then invalid_arg "Profile.Collector.create: need at least one variant";
    {
      n;
      recorded = 0;
      s_chan = Array.make capacity 0;
      s_pos = Array.make capacity 0;
      s_time = Array.make capacity 0.0;
      s_straggler = Array.make capacity 0;
      s_wait = Array.make capacity 0.0;
      straggler_count = Array.make n 0;
      straggler_wait = Array.make n 0.0;
      check_fracs = Array.init n (fun _ -> Program.Func_tbl.create 64);
      names = Array.init n (Printf.sprintf "v%d");
      phases = Array.init n (fun _ -> Array.make M.phase_slots 0.0);
      wall = Array.make n 0.0;
      thread_time = Array.make n 0.0;
      cpu = Array.make n 0.0;
      total_time = 0.0;
      workload = "";
    }

  let variants c = c.n

  let record c ~chan ~pos ~time ~straggler ~wait =
    let i = c.recorded mod capacity in
    c.s_chan.(i) <- chan;
    c.s_pos.(i) <- pos;
    c.s_time.(i) <- time;
    c.s_straggler.(i) <- straggler;
    c.s_wait.(i) <- wait;
    c.recorded <- c.recorded + 1;
    c.straggler_count.(straggler) <- c.straggler_count.(straggler) + 1;
    c.straggler_wait.(straggler) <- c.straggler_wait.(straggler) +. wait

  let sync_points c = c.recorded
  let dropped c = max 0 (c.recorded - capacity)

  (* Surviving ring contents, oldest first. *)
  let recent c =
    let kept = min c.recorded capacity in
    List.init kept (fun k ->
        let i = (c.recorded - kept + k) mod capacity in
        {
          sp_chan = c.s_chan.(i);
          sp_pos = c.s_pos.(i);
          sp_time = c.s_time.(i);
          sp_straggler = c.s_straggler.(i);
          sp_wait = c.s_wait.(i);
        })

  let check_fraction c ~variant fname =
    match Program.Func_tbl.find c.check_fracs.(variant) fname with
    | f -> f
    | exception Not_found -> 0.0

  let set_check_fraction c ~variant fname f =
    Program.Func_tbl.replace c.check_fracs.(variant) fname f

  let set_workload c w = c.workload <- w
  let workload c = c.workload

  (* Engine-side fill: the NXE installs per-variant totals once the run
     ends (the machine's buckets are only final then). *)
  let fill_variant c ~variant ~name ~wall ~thread_time ~cpu phases =
    c.names.(variant) <- name;
    c.wall.(variant) <- wall;
    c.thread_time.(variant) <- thread_time;
    c.cpu.(variant) <- cpu;
    Array.blit phases 0 c.phases.(variant) 0
      (min (Array.length phases) M.phase_slots)

  let fill_run c ~total_time = c.total_time <- total_time
end

(* ------------------------------------------------------------------ *)
(* Attribution report: the decomposition the collector + machine buckets
   yield after a run. *)

type variant_attr = {
  va_index : int;
  va_name : string;
  va_wall : float;
  va_thread_time : float;
  va_cpu : float;
  va_phases : (Phase.t * float) list;
  va_phase_sum : float;
  va_straggler_count : int;
  va_straggler_wait : float;
}

type attribution = {
  at_workload : string;
  at_n : int;
  at_total_time : float;
  at_sync_points : int;
  at_dropped : int;
  at_variants : variant_attr list;
  at_recent : Collector.sync_point list;
}

let attribution (c : Collector.t) =
  let variants =
    List.init c.Collector.n (fun v ->
        let phases =
          List.map (fun p -> (p, c.Collector.phases.(v).(Phase.slot p))) Phase.all
        in
        let sum = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 phases in
        {
          va_index = v;
          va_name = c.Collector.names.(v);
          va_wall = c.Collector.wall.(v);
          va_thread_time = c.Collector.thread_time.(v);
          va_cpu = c.Collector.cpu.(v);
          va_phases = phases;
          va_phase_sum = sum;
          va_straggler_count = c.Collector.straggler_count.(v);
          va_straggler_wait = c.Collector.straggler_wait.(v);
        })
  in
  {
    at_workload = c.Collector.workload;
    at_n = c.Collector.n;
    at_total_time = c.Collector.total_time;
    at_sync_points = Collector.sync_points c;
    at_dropped = Collector.dropped c;
    at_variants = variants;
    at_recent = Collector.recent c;
  }

(* ------------------------------------------------------------------ *)
(* Exporters *)

let attribution_to_text a =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "workload: %s  variants: %d  group wall time: %.1f us\n" a.at_workload a.at_n
    a.at_total_time;
  p "sync points: %d (%d in ring, %d dropped)\n" a.at_sync_points
    (List.length a.at_recent) a.at_dropped;
  List.iter
    (fun v ->
      p "\nvariant %d  %s\n" v.va_index v.va_name;
      p "  wall %.1f us  threads %.1f us  cpu %.1f us\n" v.va_wall v.va_thread_time
        v.va_cpu;
      p "  straggler at %d sync points (%.1f us group wait caused)\n" v.va_straggler_count
        v.va_straggler_wait;
      List.iter
        (fun (ph, t) ->
          if t > 0.0 then
            p "  %-14s %12.1f us  %5.1f%%\n" (Phase.name ph) t
              (if v.va_thread_time > 0.0 then 100.0 *. t /. v.va_thread_time else 0.0))
        v.va_phases;
      let err =
        if v.va_thread_time > 0.0 then
          Float.abs (v.va_phase_sum -. v.va_thread_time) /. v.va_thread_time
        else 0.0
      in
      p "  phase sum %.1f us = %.4f%% off thread time\n" v.va_phase_sum (100.0 *. err))
    a.at_variants;
  Buffer.contents buf

let jf v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let attribution_to_json a =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\"workload\":\"%s\",\"variants\":%d,\"total_time_us\":%s," (Json.escape a.at_workload)
    a.at_n (jf a.at_total_time);
  p "\"sync_points\":%d,\"dropped_sync_points\":%d,\"per_variant\":[" a.at_sync_points
    a.at_dropped;
  List.iteri
    (fun i v ->
      if i > 0 then p ",";
      p "{\"index\":%d,\"name\":\"%s\",\"wall_us\":%s,\"thread_time_us\":%s,\"cpu_us\":%s,"
        v.va_index (Json.escape v.va_name) (jf v.va_wall) (jf v.va_thread_time) (jf v.va_cpu);
      p "\"straggler_count\":%d,\"straggler_wait_us\":%s,\"phase_sum_us\":%s,\"phases\":{"
        v.va_straggler_count (jf v.va_straggler_wait) (jf v.va_phase_sum);
      List.iteri
        (fun j (ph, t) ->
          if j > 0 then p ",";
          p "\"%s\":%s" (Phase.name ph) (jf t))
        v.va_phases;
      p "}}")
    a.at_variants;
  p "],\"recent_sync_points\":[";
  List.iteri
    (fun i (sp : Collector.sync_point) ->
      if i > 0 then p ",";
      p "{\"chan\":%d,\"pos\":%d,\"time_us\":%s,\"straggler\":%d,\"wait_us\":%s}"
        sp.Collector.sp_chan sp.Collector.sp_pos (jf sp.Collector.sp_time)
        sp.Collector.sp_straggler (jf sp.Collector.sp_wait))
    a.at_recent;
  p "]}";
  Buffer.contents buf

(* Collapsed-stack (flamegraph) form: one "stack;frames weight" line per
   (variant, phase), weight in integer nanoseconds so small phases don't
   round away.  Feed to flamegraph.pl / speedscope as-is. *)
let attribution_collapsed a =
  let buf = Buffer.create 1024 in
  List.iter
    (fun v ->
      List.iter
        (fun (ph, t) ->
          if t > 0.0 then
            Buffer.add_string buf
              (Printf.sprintf "%s;%s;%s %d\n" a.at_workload v.va_name (Phase.name ph)
                 (int_of_float (Float.round (t *. 1000.0)))))
        v.va_phases)
    a.at_variants;
  Buffer.contents buf
