(* Tests for Bunshin_machine: event heap, fibers, scheduling, cache model. *)

module M = Bunshin_machine.Machine

let cfg ?(cores = 4) ?(quantum = 1.0) ?(ctx = 0.0) ?(llc = 1e9) ?(penalty = 0.5) () =
  { M.default_config with
    cores;
    quantum;
    ctx_switch_cost = ctx;
    llc_capacity = llc;
    miss_penalty = penalty }

let check_time = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Event heap: timers ([M.post]) and their order against thread events *)

(* Run until every timer has fired: a non-daemon thread that sleeps past
   the last one keeps the run going. *)
let drain m =
  let p = M.new_proc m ~name:"drain" ~working_set:0.0 () in
  ignore (M.spawn m p ~name:"sleeper" (fun () -> M.sleep m 1000.0));
  M.run m

let test_post_order () =
  let m = M.create ~config:(cfg ()) () in
  let fired = ref [] and last = ref 0.0 in
  List.iter
    (fun (at, x) ->
      M.post m ~at (fun () ->
          fired := x :: !fired;
          last := M.now m))
    [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  drain m;
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (List.rev !fired);
  check_time "clock at the last timer" 3.0 !last

let test_post_fifo_ties () =
  let m = M.create ~config:(cfg ()) () in
  let fired = ref [] in
  List.iter (fun x -> M.post m ~at:1.0 (fun () -> fired := x :: !fired)) [ "first"; "second"; "third" ];
  drain m;
  Alcotest.(check (list string)) "posting order" [ "first"; "second"; "third" ]
    (List.rev !fired)

let test_post_many () =
  let m = M.create ~config:(cfg ()) () in
  let rng = Bunshin_util.Rng.create 5 in
  let fired = ref [] in
  for _ = 0 to 999 do
    let at = Bunshin_util.Rng.float rng 100.0 in
    M.post m ~at (fun () ->
        check_time "fires at its time" at (M.now m);
        fired := at :: !fired)
  done;
  drain m;
  let fired = List.rev !fired in
  Alcotest.(check int) "all fired" 1000 (List.length fired);
  Alcotest.(check (list (float 0.0))) "time order" (List.sort compare fired) fired

(* A thread event and a timer due at the same time: the thread event pops
   first, whichever kind it is, alone or beside an idle machine. *)
let test_thread_event_before_timer () =
  List.iter
    (fun (driver, drive) ->
      List.iter
        (fun (kind, wait) ->
          let m = M.create ~config:(cfg ~quantum:250.0 ()) () in
          let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
          let log = ref [] in
          ignore
            (M.spawn m p ~name:"t" (fun () ->
                 wait m 5.0;
                 log := "thread" :: !log;
                 M.sleep m 1.0));
          M.post m ~at:5.0 (fun () -> log := "timer" :: !log);
          drive m;
          Alcotest.(check (list string))
            (kind ^ " under " ^ driver) [ "thread"; "timer" ] (List.rev !log))
        [ ("sleep wake", M.sleep); ("burst end", M.compute) ])
    [
      ("run", M.run);
      ("run_group", fun m -> M.run_group [| m |]);
      ("a group of two", fun m -> M.run_group [| M.create (); m |]);
    ]

(* Same-time timers fire in posting order, after the thread events due
   then, when thread events were pushed between the posts. *)
let test_timer_ties_post_order () =
  let m = M.create ~config:(cfg ~quantum:250.0 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let log = ref [] in
  let note x () = log := x :: !log in
  M.post m ~at:10.0 (note "timer0");
  ignore
    (M.spawn m p ~name:"a" (fun () ->
         M.post m ~at:10.0 (note "timer1");
         M.sleep m 10.0;
         note "a" ();
         M.sleep m 5.0));
  ignore
    (M.spawn m p ~name:"b" (fun () ->
         M.post m ~at:10.0 (note "timer2");
         M.compute m 10.0;
         note "b" ();
         M.sleep m 5.0));
  M.run m;
  Alcotest.(check (list string))
    "thread events, then timers in posting order"
    [ "a"; "b"; "timer0"; "timer1"; "timer2" ]
    (List.rev !log)

(* A group deadlocks once its sleeping threads are done, and the message
   names each machine's blocked threads. *)
let test_group_deadlock_message () =
  let a = M.create ~config:(cfg ()) () and b = M.create ~config:(cfg ()) () in
  let pa = M.new_proc a ~name:"pa" ~working_set:1.0 ()
  and pb = M.new_proc b ~name:"pb" ~working_set:1.0 () in
  let wq = M.Waitq.create () in
  ignore (M.spawn a pa ~name:"sleeper" (fun () -> M.sleep a 50.0));
  ignore (M.spawn b pb ~name:"waiter" (fun () -> M.Waitq.wait b wq));
  Alcotest.check_raises "blocked on the second machine"
    (M.Deadlock "threads blocked forever: ; waiter") (fun () -> M.run_group [| a; b |]);
  check_time "the sleep ran first" 50.0 (M.now a)

(* The deadlock rule sums over the machines: a daemon that sleeps in a
   loop keeps events pending but posts no timer, so a group whose only
   non-daemon thread is blocked stops at once, as one machine does.  A
   pending timer on any machine keeps the group going. *)
let test_group_deadlock_daemon () =
  let config = { (cfg ()) with M.max_time = 1000.0 } in
  let program ms ~waiter_on =
    let procs = Array.map (fun m -> M.new_proc m ~name:"p" ~working_set:1.0 ()) ms in
    let a = ms.(0) and b = ms.(waiter_on) in
    let wq = M.Waitq.create () and woken = ref false in
    ignore
      (M.spawn a procs.(0) ~daemon:true ~name:"ticker" (fun () ->
           while true do
             M.sleep a 10.0
           done));
    ignore
      (M.spawn b procs.(waiter_on) ~name:"waiter" (fun () ->
           M.Waitq.wait b wq;
           woken := true));
    (wq, woken)
  in
  let a = M.create ~config () and b = M.create ~config () in
  ignore (program [| a; b |] ~waiter_on:1);
  Alcotest.check_raises "two machines" (M.Deadlock "threads blocked forever: ; waiter")
    (fun () -> M.run_group [| a; b |]);
  check_time "first clock" 0.0 (M.now a);
  check_time "second clock" 0.0 (M.now b);
  let m = M.create ~config () in
  ignore (program [| m |] ~waiter_on:0);
  Alcotest.check_raises "one machine" (M.Deadlock "threads blocked forever: waiter") (fun () ->
      M.run m);
  check_time "its clock" 0.0 (M.now m);
  let a = M.create ~config () and b = M.create ~config () in
  let wq, woken = program [| a; b |] ~waiter_on:1 in
  M.post b ~at:50.0 (fun () -> M.Waitq.signal b wq);
  M.run_group [| a; b |];
  Alcotest.(check bool) "woken by the second machine's timer" true !woken;
  check_time "at the timer" 50.0 (M.now b)

(* A fiber on a later machine can make an earlier machine runnable while
   the loop settles: the loop settles again before it steps an event. *)
let test_group_settle_order () =
  let a = M.create ~config:(cfg ~quantum:250.0 ()) ()
  and b = M.create ~config:(cfg ~quantum:250.0 ()) () in
  let pa = M.new_proc a ~name:"pa" ~working_set:1.0 ()
  and pb = M.new_proc b ~name:"pb" ~working_set:1.0 () in
  let log = ref [] in
  let note m x = log := Printf.sprintf "%s@%g" x (M.now m) :: !log in
  let wq = M.Waitq.create () in
  ignore
    (M.spawn a pa ~name:"a" (fun () ->
         M.Waitq.wait a wq;
         note a "a"));
  ignore
    (M.spawn b pb ~name:"b" (fun () ->
         M.Waitq.signal a wq;
         M.compute b 1.0;
         note b "b"));
  M.run_group [| a; b |];
  Alcotest.(check (list string)) "a runs before b's burst ends" [ "a@0"; "b@1" ] (List.rev !log)

(* Under [run], a thread blocked on a wait queue that a pending timer will
   signal is not deadlocked; without the timer, the same program is. *)
let test_pending_timer_not_deadlock () =
  let program ~timer =
    let m = M.create ~config:(cfg ()) () in
    let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
    let wq = M.Waitq.create () in
    ignore (M.spawn m p ~name:"waiter" (fun () -> M.Waitq.wait m wq));
    if timer then M.post m ~at:50.0 (fun () -> M.Waitq.signal m wq);
    M.run m;
    M.now m
  in
  check_time "woken by the timer" 50.0 (program ~timer:true);
  Alcotest.check_raises "no timer" (M.Deadlock "threads blocked forever: waiter") (fun () ->
      ignore (program ~timer:false))

(* ------------------------------------------------------------------ *)
(* Basic execution *)

let test_single_thread_time () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"t" (fun () -> M.compute m 100.0));
  M.run m;
  check_time "100us" 100.0 (M.stats m).M.total_time

let test_two_threads_parallel () =
  let m = M.create ~config:(cfg ~cores:2 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"a" (fun () -> M.compute m 100.0));
  ignore (M.spawn m p ~name:"b" (fun () -> M.compute m 100.0));
  M.run m;
  check_time "parallel" 100.0 (M.stats m).M.total_time

let test_two_threads_one_core_serialize () =
  let m = M.create ~config:(cfg ~cores:1 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"a" (fun () -> M.compute m 100.0));
  ignore (M.spawn m p ~name:"b" (fun () -> M.compute m 100.0));
  M.run m;
  check_time "serialized" 200.0 (M.stats m).M.total_time

let test_context_switch_cost () =
  (* One core, two threads, quantum 10, ctx cost 1: threads alternate. *)
  let m = M.create ~config:(cfg ~cores:1 ~quantum:10.0 ~ctx:1.0 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"a" (fun () -> M.compute m 20.0));
  ignore (M.spawn m p ~name:"b" (fun () -> M.compute m 20.0));
  M.run m;
  let s = M.stats m in
  Alcotest.(check bool) "switches happened" true (s.M.context_switches >= 3);
  Alcotest.(check bool) "total > pure compute" true (s.M.total_time > 40.0)

let test_sleep_does_not_use_core () =
  let m = M.create ~config:(cfg ~cores:1 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"sleeper" (fun () -> M.sleep m 1000.0));
  ignore (M.spawn m p ~name:"worker" (fun () -> M.compute m 50.0));
  M.run m;
  (* The sleeper does not block the worker's core. *)
  check_time "ends at sleep end" 1000.0 (M.stats m).M.total_time

let test_sequential_compute_accumulates () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore
    (M.spawn m p ~name:"t" (fun () ->
         M.compute m 10.0;
         M.compute m 20.0;
         M.compute m 30.0));
  M.run m;
  check_time "60us" 60.0 (M.stats m).M.total_time

(* ------------------------------------------------------------------ *)
(* Park / wake *)

let test_park_wake () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let log = ref [] in
  let waiter = ref None in
  let t1 =
    M.spawn m p ~name:"waiter" (fun () ->
        M.park m;
        log := "woken" :: !log)
  in
  waiter := Some t1;
  ignore
    (M.spawn m p ~name:"waker" (fun () ->
         M.compute m 50.0;
         log := "waking" :: !log;
         M.wake m t1));
  M.run m;
  Alcotest.(check (list string)) "order" [ "woken"; "waking" ] !log

let test_wake_before_park_not_lost () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let t1 = ref None in
  let target =
    M.spawn m p ~name:"late-parker" (fun () ->
        M.compute m 100.0;
        (* The wake arrived while we were computing. *)
        M.park m)
  in
  t1 := Some target;
  ignore (M.spawn m p ~name:"early-waker" (fun () -> M.wake m target));
  (* A lost wake would leave the parker blocked: [run] raises Deadlock. *)
  M.run m;
  Alcotest.(check bool) "parker finished after its compute" true
    (M.proc_finish_time m p >= 100.0)

(* ------------------------------------------------------------------ *)
(* Forcible termination — the monitor's kill(2). *)

let test_cancel_parked_thread () =
  let m = M.create ~config:(cfg ()) () in
  let pv = M.new_proc m ~name:"victim-proc" ~working_set:1.0 () in
  let pm = M.new_proc m ~name:"monitor-proc" ~working_set:1.0 () in
  ignore (M.spawn m pv ~name:"victim" (fun () -> M.park m));
  ignore
    (M.spawn m pm ~name:"monitor" (fun () ->
         M.compute m 30.0;
         M.cancel_proc m pv;
         (* Cancelling an already-finished thread is a no-op. *)
         M.cancel_proc m pv));
  (* Without the cancel this run deadlocks on the parked victim. *)
  M.run m;
  check_time "victim finished at cancel time" 30.0 (M.proc_finish_time m pv);
  check_time "ends at cancel time" 30.0 (M.stats m).M.total_time

let test_cancel_discards_pending_events () =
  (* A thread mid-CPU-burst and one mid-sleep both have events queued in
     the heap; cancellation must turn those into no-ops (the Burst_end
     only frees its core) and neither fiber may ever resume. *)
  let m = M.create ~config:(cfg ()) () in
  let pv = M.new_proc m ~name:"victim-proc" ~working_set:1.0 () in
  let pm = M.new_proc m ~name:"monitor-proc" ~working_set:1.0 () in
  let resumed = ref false in
  ignore
    (M.spawn m pv ~name:"burst" (fun () ->
         M.compute m 1000.0;
         resumed := true));
  ignore
    (M.spawn m pv ~name:"sleeper" (fun () ->
         M.sleep m 1000.0;
         resumed := true));
  ignore
    (M.spawn m pm ~name:"monitor" (fun () ->
         M.compute m 10.5;
         M.cancel_proc m pv));
  M.run m;
  Alcotest.(check bool) "no fiber resumed" false !resumed;
  check_time "both finished at cancel time" 10.5 (M.proc_finish_time m pv);
  check_time "ends at cancel, not at burst/sleep end" 10.5 (M.stats m).M.total_time

let test_cancel_self_is_noop () =
  (* A fiber cannot be unwound from inside itself: self-cancel must leave
     it running (callers make it observe a flag instead). *)
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let finished_body = ref false in
  ignore
    (M.spawn m p ~name:"self" (fun () ->
         M.compute m 5.0;
         M.cancel_proc m p;
         M.compute m 5.0;
         finished_body := true));
  M.run m;
  Alcotest.(check bool) "body ran to completion" true !finished_body;
  check_time "full compute" 10.0 (M.stats m).M.total_time

let test_cancel_proc_kills_all_threads () =
  let m = M.create ~config:(cfg ()) () in
  let pa = M.new_proc m ~name:"victim-proc" ~working_set:1.0 () in
  let pb = M.new_proc m ~name:"monitor-proc" ~working_set:1.0 () in
  ignore (M.spawn m pa ~name:"v1" (fun () -> M.park m));
  ignore (M.spawn m pa ~name:"v2" (fun () -> M.sleep m 500.0));
  ignore
    (M.spawn m pb ~name:"monitor" (fun () ->
         M.compute m 20.0;
         M.cancel_proc m pa));
  M.run m;
  check_time "all victim threads finished at cancel" 20.0 (M.proc_finish_time m pa);
  check_time "ends at cancel" 20.0 (M.stats m).M.total_time

let test_deadlock_detection () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"stuck" (fun () -> M.park m));
  Alcotest.(check bool) "raises" true
    (try
       M.run m;
       false
     with M.Deadlock _ -> true)

let test_daemon_does_not_block_exit () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore
    (M.spawn m ~daemon:true p ~name:"background" (fun () ->
         let rec loop () =
           M.compute m 10.0;
           M.sleep m 10.0;
           loop ()
         in
         loop ()));
  ignore (M.spawn m p ~name:"work" (fun () -> M.compute m 25.0));
  M.run m;
  Alcotest.(check bool) "terminates with daemon running" true ((M.stats m).M.total_time >= 25.0)

let test_daemon_contends_for_cores () =
  (* One core: a daemon that computes constantly roughly halves throughput. *)
  let m = M.create ~config:(cfg ~cores:1 ~quantum:5.0 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore
    (M.spawn m ~daemon:true p ~name:"hog" (fun () ->
         let rec loop () =
           M.compute m 5.0;
           loop ()
         in
         loop ()));
  ignore (M.spawn m p ~name:"work" (fun () -> M.compute m 50.0));
  M.run m;
  Alcotest.(check bool) "slowed by hog" true ((M.stats m).M.total_time >= 90.0)

(* ------------------------------------------------------------------ *)
(* Cache pressure *)

let test_cache_inflation () =
  (* Working sets twice the LLC: compute inflates. *)
  let config = cfg ~cores:4 ~llc:10.0 ~penalty:1.0 () in
  let run_with n_procs =
    let m = M.create ~config () in
    for i = 1 to n_procs do
      let p = M.new_proc m ~name:(string_of_int i) ~working_set:10.0 () in
      ignore (M.spawn m p ~name:"t" (fun () -> M.compute m 100.0))
    done;
    M.run m;
    (M.stats m).M.total_time
  in
  let t1 = run_with 1 in
  let t2 = run_with 2 in
  let t4 = run_with 4 in
  check_time "one proc fits" 100.0 t1;
  Alcotest.(check bool) "two procs inflate" true (t2 > 100.0);
  Alcotest.(check bool) "four inflate more" true (t4 > t2)

let test_pressure_peak_recorded () =
  let config = cfg ~cores:2 ~llc:10.0 () in
  let m = M.create ~config () in
  let p1 = M.new_proc m ~name:"a" ~working_set:10.0 () in
  let p2 = M.new_proc m ~name:"b" ~working_set:10.0 () in
  ignore (M.spawn m p1 ~name:"t" (fun () -> M.compute m 10.0));
  ignore (M.spawn m p2 ~name:"t" (fun () -> M.compute m 10.0));
  M.run m;
  Alcotest.(check bool) "peak = 2x" true ((M.stats m).M.cache_pressure_peak >= 2.0 -. 1e-9)

(* A cache sensitivity is forced only under LLC over-subscription, at most
   once however many procs share it, and the run it gives is the one the
   same value gives when passed already forced. *)
let test_sensitivity_forced_lazily () =
  let run ~ws sens =
    let m = M.create ~config:(cfg ~cores:2 ~llc:10.0 ~penalty:1.0 ()) () in
    let procs =
      List.map
        (fun name ->
          let p = M.new_proc m ~cache_sensitivity:sens ~name ~working_set:ws () in
          ignore
            (M.spawn m p ~name:"t" (fun () ->
                 M.compute m 10.0;
                 M.sleep m 1.0;
                 M.compute m 5.0));
          p)
        [ "a"; "b" ]
    in
    M.run m;
    let st = M.stats m in
    let floats xs = String.concat " " (List.map (Printf.sprintf "%h") xs) in
    Printf.sprintf "%s ctx=%d | %s" (floats [ st.M.total_time; st.M.cache_pressure_peak ])
      st.M.context_switches
      (String.concat " | "
         (List.map
            (fun p -> floats (M.proc_finish_time m p :: Array.to_list (M.proc_phases m p)))
            procs))
  in
  let counting () =
    let forced = ref 0 in
    (lazy (incr forced; 0.25), forced)
  in
  (* Two working sets of 4.0 fit an LLC of 10.0; two of 8.0 do not. *)
  List.iter
    (fun (ws, label, want) ->
      let sens, forced = counting () in
      let lazily = run ~ws sens in
      Alcotest.(check int) (label ^ ": times forced") want !forced;
      Alcotest.(check string) (label ^ ": same run as eager") (run ~ws (Lazy.from_val 0.25)) lazily)
    [ (4.0, "fits", 0); (8.0, "over-subscribed", 1) ]

(* ------------------------------------------------------------------ *)
(* Proc accounting *)

let test_proc_accounting () =
  let m = M.create ~config:(cfg ~cores:2 ()) () in
  let p1 = M.new_proc m ~name:"fast" ~working_set:1.0 () in
  let p2 = M.new_proc m ~name:"slow" ~working_set:1.0 () in
  ignore (M.spawn m p1 ~name:"t" (fun () -> M.compute m 10.0));
  ignore (M.spawn m p2 ~name:"t" (fun () -> M.compute m 30.0));
  M.run m;
  check_time "fast finish" 10.0 (M.proc_finish_time m p1);
  check_time "slow finish" 30.0 (M.proc_finish_time m p2);
  check_time "fast cpu" 10.0 (M.proc_cpu_time m p1);
  check_time "slow cpu" 30.0 (M.proc_cpu_time m p2)

(* ------------------------------------------------------------------ *)
(* Waitq *)

let test_waitq_signal_fifo () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let wq = M.Waitq.create () in
  let log = ref [] in
  for i = 1 to 3 do
    ignore
      (M.spawn m p ~name:(Printf.sprintf "w%d" i) (fun () ->
           M.Waitq.wait m wq;
           log := i :: !log))
  done;
  ignore
    (M.spawn m p ~name:"signaller" (fun () ->
         M.compute m 10.0;
         M.Waitq.signal m wq;
         M.compute m 10.0;
         M.Waitq.signal m wq;
         M.compute m 10.0;
         M.Waitq.signal m wq));
  M.run m;
  Alcotest.(check (list int)) "fifo order" [ 3; 2; 1 ] !log

let test_waitq_broadcast () =
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let wq = M.Waitq.create () in
  let count = ref 0 in
  for i = 1 to 5 do
    ignore
      (M.spawn m p ~name:(Printf.sprintf "w%d" i) (fun () ->
           M.Waitq.wait m wq;
           incr count))
  done;
  ignore
    (M.spawn m p ~name:"b" (fun () ->
         M.compute m 5.0;
         M.Waitq.broadcast m wq));
  M.run m;
  Alcotest.(check int) "all woken" 5 !count

(* ------------------------------------------------------------------ *)
(* Poll: epoll-style readiness batching *)

let test_poll_batch_coalesces () =
  (* Three posts land while the consumer is parked: one scheduler wakeup
     must deliver the whole batch, in post order. *)
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let poll = M.Poll.create () in
  let got = ref [] in
  ignore (M.spawn m p ~name:"consumer" (fun () -> got := M.Poll.wait m poll));
  ignore
    (M.spawn m p ~name:"producer" (fun () ->
         M.compute m 5.0;
         M.Poll.post m poll 7;
         M.Poll.post m poll 8;
         M.Poll.post m poll 7));
  M.run m;
  Alcotest.(check (list int)) "whole batch, post order, dups kept" [ 7; 8; 7 ] !got;
  Alcotest.(check int) "one parked wait" 1 (M.Poll.wakeups poll);
  Alcotest.(check int) "three events" 3 (M.Poll.events poll);
  Alcotest.(check int) "nothing pending" 0 (M.Poll.pending poll)

let test_poll_fast_path_no_park () =
  (* Events already pending when wait is called: it must return at once,
     without a scheduler round-trip, and not count as a wakeup. *)
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let poll = M.Poll.create () in
  let got = ref [] in
  ignore
    (M.spawn m p ~name:"self" (fun () ->
         M.Poll.post m poll 1;
         M.Poll.post m poll 2;
         let t0 = M.now m in
         got := M.Poll.wait m poll;
         check_time "no simulated time elapsed" t0 (M.now m)));
  M.run m;
  Alcotest.(check (list int)) "drained" [ 1; 2 ] !got;
  Alcotest.(check int) "fast path is not a wakeup" 0 (M.Poll.wakeups poll);
  Alcotest.(check int) "events still counted" 2 (M.Poll.events poll)

let test_poll_no_lost_events () =
  (* Many producers posting at staggered times against a looping
     consumer: every id must be delivered exactly once, however the
     batches happen to split. *)
  let m = M.create ~config:(cfg ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let poll = M.Poll.create () in
  let n = 12 in
  let got = ref [] in
  for i = 0 to n - 1 do
    ignore
      (M.spawn m p ~name:(Printf.sprintf "prod%d" i) (fun () ->
           M.sleep m (float_of_int (1 + (i mod 5)));
           M.Poll.post m poll i))
  done;
  ignore
    (M.spawn m p ~name:"consumer" (fun () ->
         while List.length !got < n do
           got := !got @ M.Poll.wait m poll
         done));
  M.run m;
  Alcotest.(check (list int)) "each id exactly once"
    (List.init n (fun i -> i))
    (List.sort compare !got);
  Alcotest.(check int) "events = posts" n (M.Poll.events poll);
  Alcotest.(check bool) "batching amortized wakeups" true (M.Poll.wakeups poll <= n)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let simulate_workload seed =
  let rng = Bunshin_util.Rng.create seed in
  let m = M.create ~config:(cfg ~cores:2 ~quantum:2.0 ~ctx:0.5 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let trace = ref [] in
  for i = 1 to 5 do
    let cost = Bunshin_util.Rng.float rng 20.0 in
    ignore
      (M.spawn m p ~name:(Printf.sprintf "t%d" i) (fun () ->
           M.compute m cost;
           trace := (i, M.now m) :: !trace))
  done;
  M.run m;
  ((M.stats m).M.total_time, !trace)

let test_determinism () =
  let t1, tr1 = simulate_workload 99 in
  let t2, tr2 = simulate_workload 99 in
  check_time "same total" t1 t2;
  Alcotest.(check bool) "same trace" true (tr1 = tr2)

let prop_total_at_least_critical_path =
  QCheck.Test.make ~name:"machine: makespan >= max thread cost" ~count:50
    QCheck.(list_of_size Gen.(1 -- 8) (float_range 1.0 50.0))
    (fun costs ->
      let m = M.create ~config:(cfg ~cores:4 ()) () in
      let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
      List.iteri
        (fun i c -> ignore (M.spawn m p ~name:(string_of_int i) (fun () -> M.compute m c)))
        costs;
      M.run m;
      (M.stats m).M.total_time +. 1e-6 >= Bunshin_util.Stats.maximum costs)

let prop_work_conservation =
  QCheck.Test.make ~name:"machine: makespan <= serial sum (no ctx cost)" ~count:50
    QCheck.(list_of_size Gen.(1 -- 8) (float_range 1.0 50.0))
    (fun costs ->
      let m = M.create ~config:(cfg ~cores:2 ()) () in
      let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
      List.iteri
        (fun i c -> ignore (M.spawn m p ~name:(string_of_int i) (fun () -> M.compute m c)))
        costs;
      M.run m;
      (M.stats m).M.total_time <= Bunshin_util.Stats.sum costs +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Inline bursts: [compute] finishes a burst without suspending the fiber
   when the scheduled path provably does nothing else first.  A telemetry
   sink keeps every burst on the scheduled path, so the same program run
   with a sink is the reference schedule. *)

type op = Compute of int | Sleep of int | Yield | Spawn of op list

type prog = {
  g_cores : int;
  g_quantum : float;
  g_ctx : float;
  g_procs : (float * float) list; (* working set, cache sensitivity *)
  g_threads : (bool * op list) list; (* daemon, ops *)
  g_items : int; (* producer/consumer hand-offs *)
  g_pc_cost : int;
}

let rec show_op = function
  | Compute c -> Printf.sprintf "C%d" c
  | Sleep c -> Printf.sprintf "S%d" c
  | Yield -> "Y"
  | Spawn ops -> "[" ^ String.concat " " (List.map show_op ops) ^ "]"

let show_prog p =
  Printf.sprintf "cores %d quantum %g ctx %g procs [%s] items %d x%d threads %s" p.g_cores
    p.g_quantum p.g_ctx
    (String.concat "; " (List.map (fun (ws, s) -> Printf.sprintf "%g/%g" ws s) p.g_procs))
    p.g_items p.g_pc_cost
    (String.concat " | "
       (List.map
          (fun (d, ops) -> (if d then "daemon " else "") ^ String.concat " " (List.map show_op ops))
          p.g_threads))

(* Small integer costs make equal event times common; costs up to 12
   against a quantum of 3-8 make some computes span several slices.
   Half the programs over-subscribe the 10-unit LLC with any one active
   process, so the cache multiplier and the lazy sensitivity are live. *)
let gen_prog =
  let open QCheck.Gen in
  let base =
    frequency
      [
        (6, map (fun c -> Compute c) (int_range 1 12));
        (2, map (fun c -> Sleep c) (int_range 1 6));
        (1, return Yield);
      ]
  in
  let spawn = map (fun l -> Spawn l) (list_size (int_range 1 4) base) in
  let ops = list_size (int_range 1 8) (frequency [ (9, base); (1, spawn) ]) in
  let* g_cores = int_range 1 4 in
  let* g_quantum = oneofl [ 3.0; 5.0; 8.0 ] in
  let* g_ctx = oneofl [ 0.0; 1.0 ] in
  let* over = bool in
  let* g_procs =
    list_size (int_range 1 3)
      (pair
         (map float_of_int (if over then int_range 11 16 else int_range 1 3))
         (oneofl [ 0.3; 0.7; 1.0 ]))
  in
  let* g_threads = list_size (int_range 1 5) (pair (map (fun k -> k = 0) (int_range 0 5)) ops) in
  let* g_items = int_range 1 4 in
  let* g_pc_cost = int_range 1 9 in
  return { g_cores; g_quantum; g_ctx; g_procs; g_threads; g_items; g_pc_cost }

(* Everything the two paths must agree on: stats, the (clock, thread) log
   after each compute returns and at each thread's end (its finish time),
   and per-proc CPU time and phase buckets. *)
let run_prog ?telemetry p =
  let m =
    M.create ~config:(cfg ~cores:p.g_cores ~quantum:p.g_quantum ~ctx:p.g_ctx ~llc:10.0 ())
      ?telemetry ()
  in
  let procs =
    Array.of_list
      (List.mapi
         (fun i (ws, sens) ->
           M.new_proc m ~cache_sensitivity:(lazy sens) ~name:(Printf.sprintf "p%d" i)
             ~working_set:ws ())
         p.g_procs)
  in
  let proc i = procs.(i mod Array.length procs) in
  let log = ref [] in
  let note name = log := (M.now m, name) :: !log in
  let rec body pr name ops () =
    List.iteri
      (fun j op ->
        match op with
        | Compute c ->
          M.compute m (float_of_int c);
          note name
        | Sleep c -> M.sleep m (float_of_int c)
        | Yield -> M.yield m
        | Spawn ops ->
          let child = Printf.sprintf "%s.%d" name j in
          ignore (M.spawn m pr ~name:child (body pr child ops)))
      ops;
    note (name ^ " end")
  in
  List.iteri
    (fun i (daemon, ops) ->
      let name = Printf.sprintf "t%d" i in
      ignore (M.spawn m ~daemon (proc i) ~name (body (proc i) name ops)))
    p.g_threads;
  let wq = M.Waitq.create () and items = ref 0 in
  let cost = float_of_int p.g_pc_cost in
  ignore
    (M.spawn m (proc 1) ~name:"producer" (fun () ->
         for _ = 1 to p.g_items do
           M.compute m cost;
           note "producer";
           incr items;
           M.Waitq.signal m wq
         done));
  ignore
    (M.spawn m (proc 2) ~name:"consumer" (fun () ->
         for _ = 1 to p.g_items do
           while !items = 0 do
             M.Waitq.wait m wq
           done;
           decr items;
           M.compute m (cost /. 2.0);
           note "consumer"
         done));
  M.run m;
  ( M.stats m,
    List.rev !log,
    Array.map (M.proc_cpu_time m) procs,
    Array.map (M.proc_phases m) procs,
    M.burst_counts m )

let prop_inline_equals_scheduled =
  QCheck.Test.make ~name:"machine: inline bursts equal scheduled bursts" ~count:400
    (QCheck.make ~print:show_prog gen_prog)
    (fun p ->
      let stats, log, cpu, phases, _ = run_prog p in
      let sink = Bunshin_telemetry.Telemetry.create () in
      let stats', log', cpu', phases', sched = run_prog ~telemetry:sink p in
      if sched.M.inline_bursts <> 0 then
        QCheck.Test.fail_report "a sink must keep every burst scheduled";
      stats = stats' && log = log' && cpu = cpu' && phases = phases')

(* [compute_share] against the client-side carve-out it replaced:
   [thread_phase] before and after [compute], then [reattribute] of the
   share.  Every compute of the random program carves a share (0 to 1) out
   of the compute bucket or, under a switched run phase, out of a client
   slot; every thread's buckets must match bit for bit, with and without
   LLC over-subscription (half of [gen_prog]'s programs) and with and
   without a telemetry sink (scheduled bursts only, or inline ones too). *)
let run_carve ~primitive ?telemetry p =
  let m =
    M.create ~config:(cfg ~cores:p.g_cores ~quantum:p.g_quantum ~ctx:p.g_ctx ~llc:10.0 ())
      ?telemetry ()
  in
  let procs =
    Array.of_list
      (List.mapi
         (fun i (ws, sens) ->
           M.new_proc m ~cache_sensitivity:(lazy sens) ~name:(Printf.sprintf "p%d" i)
             ~working_set:ws ())
         p.g_procs)
  in
  let proc i = procs.(i mod Array.length procs) in
  let tids = ref [] in
  let spawn pr name body = tids := M.spawn m pr ~name body :: !tids in
  let to_ = M.first_client_slot + 1 in
  let carve j d =
    let share = float_of_int (j * 7 mod 10) /. 9.0 in
    let from_ = if j mod 3 = 2 then M.first_client_slot else M.slot_compute in
    let prev = M.set_phase m from_ in
    (if primitive then ignore (M.compute_share m d ~from_ ~to_ share)
     else begin
       let self = M.self m in
       let before = M.thread_phase m self from_ in
       M.compute m d;
       let delta = M.thread_phase m self from_ -. before in
       M.reattribute m ~from_ ~to_ (delta *. share)
     end);
    ignore (M.set_phase m prev)
  in
  let rec body pr name ops () =
    List.iteri
      (fun j op ->
        match op with
        | Compute c -> carve j (float_of_int c)
        | Sleep c -> M.sleep m (float_of_int c)
        | Yield -> M.yield m
        | Spawn ops ->
          let child = Printf.sprintf "%s.%d" name j in
          spawn pr child (body pr child ops))
      ops
  in
  List.iteri
    (fun i (daemon, ops) ->
      let name = Printf.sprintf "t%d" i in
      tids := M.spawn m ~daemon (proc i) ~name (body (proc i) name ops) :: !tids)
    p.g_threads;
  let wq = M.Waitq.create () and items = ref 0 in
  let cost = float_of_int p.g_pc_cost in
  spawn (proc 1) "producer" (fun () ->
      for j = 1 to p.g_items do
        carve j cost;
        incr items;
        M.Waitq.signal m wq
      done);
  spawn (proc 2) "consumer" (fun () ->
      for j = 1 to p.g_items do
        while !items = 0 do
          M.Waitq.wait m wq
        done;
        decr items;
        carve (j + 1) (cost /. 2.0)
      done);
  M.run m;
  ( M.stats m,
    List.rev_map
      (fun tid -> List.init M.phase_slots (fun i -> Printf.sprintf "%h" (M.thread_phase m tid i)))
      !tids )

let prop_compute_share_equals_carve_out =
  QCheck.Test.make ~name:"machine: compute_share equals the client carve-out" ~count:300
    (QCheck.make ~print:show_prog gen_prog)
    (fun p ->
      List.for_all
        (fun telemetry ->
          let stats, buckets = run_carve ~primitive:true ?telemetry p in
          let stats', buckets' = run_carve ~primitive:false ?telemetry p in
          stats = stats' && buckets = buckets')
        [ None; Some (Bunshin_telemetry.Telemetry.create ()) ])

(* The inline path must actually be taken: the property above would also
   hold if it never were. *)
let check_bursts msg ~inline ~scheduled m =
  let b = M.burst_counts m in
  Alcotest.(check (pair int int)) msg (inline, scheduled) (b.M.inline_bursts, b.M.scheduled_bursts)

let test_lone_thread_bursts () =
  let m = M.create ~config:(cfg ~quantum:250.0 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"t" (fun () -> for _ = 1 to 10 do M.compute m 7.0 done));
  M.run m;
  check_bursts "k computes: first scheduled, k-1 inline" ~inline:9 ~scheduled:1 m;
  check_time "70us" 70.0 (M.stats m).M.total_time

let test_profile_run_bursts () =
  let open Bunshin in
  let gcc = List.find (fun b -> b.Bench.name = "gcc") Spec.all in
  let m = M.create ~config:Experiments.desktop () in
  ignore (Profile.exec_build m (Program.full [ Sanitizer.asan ] gcc.Bench.prog) ~seed:2);
  M.run m;
  check_bursts "gcc ASan solo run" ~inline:1799 ~scheduled:1 m

let test_nxe_run_bursts () =
  let open Bunshin in
  let bzip2 = List.find (fun b -> b.Bench.name = "bzip2") Spec.all in
  let trace = Program.build_trace (Program.baseline bzip2.Bench.prog) ~seed:2 in
  let machine = ref None in
  let r =
    Nxe.run_traces ~on_machine:(fun m -> machine := Some m) ~names:[ "v0"; "v1"; "v2" ]
      [ trace; trace; trace ]
  in
  Alcotest.(check bool) "finished" true (r.Nxe.outcome = `All_finished);
  match !machine with
  | Some m -> check_bursts "bzip2 x3 group run" ~inline:269 ~scheduled:3519 m
  | None -> Alcotest.fail "on_machine not called"

(* [run_group] on two machines: a compute finishes inline only when its
   slice would be the next event of the whole group.  With a sink every
   burst stays scheduled, and the log and clocks must not change. *)
let run_pair ?telemetry () =
  let mk () = M.create ~config:(cfg ~quantum:250.0 ()) ?telemetry () in
  let a = mk () and b = mk () in
  let pa = M.new_proc a ~name:"pa" ~working_set:1.0 ()
  and pb = M.new_proc b ~name:"pb" ~working_set:1.0 () in
  let log = ref [] in
  let note m x = log := Printf.sprintf "%s@%h" x (M.now m) :: !log in
  let wq = M.Waitq.create () in
  M.post b ~at:100.0 (fun () -> note b "timer");
  ignore
    (M.spawn b pb ~name:"b" (fun () ->
         M.Waitq.wait b wq;
         M.compute b 1.0;
         note b "b"));
  ignore
    (M.spawn a pa ~name:"a" (fun () ->
         (* Resumed while the loop settles: scheduled. *)
         M.compute a 5.0;
         (* Resumed by its burst end, and ends at 15, before b's timer: inline. *)
         M.compute a 10.0;
         M.Waitq.signal b wq;
         (* b is runnable on the other machine: scheduled. *)
         M.compute a 10.0;
         (* Would end at 225, after b's pending timer at 100: scheduled. *)
         M.compute a 200.0;
         note a "a"));
  M.run_group [| a; b |];
  (a, b, List.rev !log)

let test_group_bursts () =
  let a, b, log = run_pair () in
  check_bursts "machine a" ~inline:1 ~scheduled:3 a;
  check_bursts "machine b" ~inline:0 ~scheduled:1 b;
  let a', b', log' = run_pair ~telemetry:(Bunshin_telemetry.Telemetry.create ()) () in
  check_bursts "machine a with a sink" ~inline:0 ~scheduled:4 a';
  check_bursts "machine b with a sink" ~inline:0 ~scheduled:1 b';
  Alcotest.(check (list string))
    "log"
    (List.map (fun (x, t) -> Printf.sprintf "%s@%h" x t) [ ("b", 1.0); ("timer", 100.0); ("a", 225.0) ])
    log;
  Alcotest.(check (list string)) "same log with a sink" log log';
  check_time "a's clock" 225.0 (M.now a);
  check_time "b's clock" 100.0 (M.now b)

(* In a group of two or more machines, a compute in a fiber that the loop
   resumed while settling stays scheduled, even where every other
   condition for an inline burst holds.  Here b's "main" is resumed after
   its sleep and computes 5 on its own idle core; then it wakes a's
   thread, whose fiber wakes b's "hog", and computes 5 more.  Scheduled,
   the first burst ends as an event, a's thread runs in the next settle
   before main's second burst starts, and the hog's working set then
   over-subscribes b's LLC, inflating that burst.  Inline, the second
   burst would start before the hog woke. *)
let run_settle_probe ?telemetry () =
  let a = M.create ?telemetry ~config:(cfg ~quantum:250.0 ()) ()
  and b = M.create ?telemetry ~config:(cfg ~cores:2 ~quantum:250.0 ~llc:1.0 ()) () in
  let pa = M.new_proc a ~name:"pa" ~working_set:0.5 ()
  and pm = M.new_proc b ~name:"pm" ~working_set:0.5 ()
  and ph = M.new_proc b ~name:"ph" ~working_set:10.0 () in
  let wa = M.Waitq.create () and wh = M.Waitq.create () in
  let log = ref [] in
  let note m x = log := (x, M.now m) :: !log in
  ignore
    (M.spawn a pa ~name:"a" (fun () ->
         M.Waitq.wait a wa;
         M.Waitq.signal b wh;
         note a "a"));
  ignore
    (M.spawn b pm ~name:"main" (fun () ->
         (* Scheduled: the thread has no core yet. *)
         M.compute b 1.0;
         M.sleep b 10.0;
         (* Resumed while the loop settles: scheduled. *)
         M.compute b 5.0;
         M.Waitq.signal a wa;
         (* a's thread is runnable: scheduled. *)
         M.compute b 5.0;
         note b "main"));
  ignore
    (M.spawn b ph ~name:"hog" (fun () ->
         M.Waitq.wait b wh;
         M.compute b 1.0;
         note b "hog"));
  M.run_group [| a; b |];
  (b, List.rev !log)

let test_group_settle_scheduled () =
  let b, log = run_settle_probe () in
  check_bursts "machine b" ~inline:0 ~scheduled:4 b;
  let _, log' = run_settle_probe ~telemetry:(Bunshin_telemetry.Telemetry.create ()) () in
  let mult = 1.0 +. (0.5 *. (1.0 -. (1.0 /. 10.5))) in
  Alcotest.(check (list string)) "order" [ "a"; "hog"; "main" ] (List.map fst log);
  List.iter2
    (fun (x, t) want -> check_time x want t)
    log
    [ 0.0; 16.0 +. mult; 16.0 +. (5.0 *. mult) ];
  Alcotest.(check bool) "same log with a sink" true (log = log')

let () =
  Alcotest.run ~and_exit:false "bunshin_machine"
    [
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_post_order;
          Alcotest.test_case "fifo ties" `Quick test_post_fifo_ties;
          Alcotest.test_case "many" `Quick test_post_many;
          Alcotest.test_case "thread before timer" `Quick test_thread_event_before_timer;
          Alcotest.test_case "timer ties post order" `Quick test_timer_ties_post_order;
          Alcotest.test_case "timer averts deadlock" `Quick test_pending_timer_not_deadlock;
          Alcotest.test_case "group deadlock message" `Quick test_group_deadlock_message;
          Alcotest.test_case "group deadlock daemon" `Quick test_group_deadlock_daemon;
          Alcotest.test_case "group settle order" `Quick test_group_settle_order;
        ] );
      ( "execution",
        [
          Alcotest.test_case "single thread time" `Quick test_single_thread_time;
          Alcotest.test_case "parallel threads" `Quick test_two_threads_parallel;
          Alcotest.test_case "one core serializes" `Quick test_two_threads_one_core_serialize;
          Alcotest.test_case "context switch cost" `Quick test_context_switch_cost;
          Alcotest.test_case "sleep frees core" `Quick test_sleep_does_not_use_core;
          Alcotest.test_case "sequential compute" `Quick test_sequential_compute_accumulates;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "park/wake" `Quick test_park_wake;
          Alcotest.test_case "wake before park" `Quick test_wake_before_park_not_lost;
          Alcotest.test_case "cancel parked" `Quick test_cancel_parked_thread;
          Alcotest.test_case "cancel discards events" `Quick test_cancel_discards_pending_events;
          Alcotest.test_case "cancel self no-op" `Quick test_cancel_self_is_noop;
          Alcotest.test_case "cancel proc" `Quick test_cancel_proc_kills_all_threads;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "daemon exit" `Quick test_daemon_does_not_block_exit;
          Alcotest.test_case "daemon contention" `Quick test_daemon_contends_for_cores;
        ] );
      ( "cache",
        [
          Alcotest.test_case "inflation" `Quick test_cache_inflation;
          Alcotest.test_case "pressure peak" `Quick test_pressure_peak_recorded;
          Alcotest.test_case "sensitivity forced lazily" `Quick test_sensitivity_forced_lazily;
        ] );
      ("accounting", [ Alcotest.test_case "per-proc" `Quick test_proc_accounting ]);
      ( "waitq",
        [
          Alcotest.test_case "signal fifo" `Quick test_waitq_signal_fifo;
          Alcotest.test_case "broadcast" `Quick test_waitq_broadcast;
        ] );
      ( "poll",
        [
          Alcotest.test_case "batch coalesces" `Quick test_poll_batch_coalesces;
          Alcotest.test_case "fast path no park" `Quick test_poll_fast_path_no_park;
          Alcotest.test_case "no lost events" `Quick test_poll_no_lost_events;
        ] );
      ( "determinism",
        [ Alcotest.test_case "identical runs" `Quick test_determinism ]
        @ Kit.qcheck [ prop_total_at_least_critical_path; prop_work_conservation ] );
      ( "inline",
        [
          Alcotest.test_case "lone thread counts" `Quick test_lone_thread_bursts;
          Alcotest.test_case "profile run counts" `Quick test_profile_run_bursts;
          Alcotest.test_case "nxe group counts" `Quick test_nxe_run_bursts;
          Alcotest.test_case "group loop counts" `Quick test_group_bursts;
          Alcotest.test_case "group settle stays scheduled" `Quick test_group_settle_scheduled;
        ]
        @ Kit.qcheck [ prop_inline_equals_scheduled; prop_compute_share_equals_carve_out ] );
    ]

(* Appended: scheduler affinity and timeslice-budget behaviour. *)
let test_affinity_avoids_pingpong () =
  (* Two compute-heavy threads on two cores: with wake affinity and a
     timeslice budget each thread keeps its core; switches stay near the
     minimum (one per thread to start). *)
  let m = M.create ~config:(cfg ~cores:2 ~quantum:50.0 ~ctx:1.0 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  ignore (M.spawn m p ~name:"a" (fun () -> for _ = 1 to 100 do M.compute m 10.0 done));
  ignore (M.spawn m p ~name:"b" (fun () -> for _ = 1 to 100 do M.compute m 10.0 done));
  M.run m;
  let s = M.stats m in
  Alcotest.(check bool)
    (Printf.sprintf "switches %d <= 4" s.M.context_switches)
    true (s.M.context_switches <= 4)

let test_timeslice_shares_single_core () =
  (* One core, two long threads: both make progress (neither starves) and
     total time is the serial sum. *)
  let m = M.create ~config:(cfg ~cores:1 ~quantum:25.0 ~ctx:0.0 ()) () in
  let p = M.new_proc m ~name:"p" ~working_set:1.0 () in
  let a_done = ref 0.0 and b_done = ref 0.0 in
  ignore (M.spawn m p ~name:"a" (fun () -> M.compute m 200.0; a_done := M.now m));
  ignore (M.spawn m p ~name:"b" (fun () -> M.compute m 200.0; b_done := M.now m));
  M.run m;
  check_time "serial sum" 400.0 (M.stats m).M.total_time;
  (* Fair slicing: the first finisher ends well before the second. *)
  let first = Float.min !a_done !b_done and last = Float.max !a_done !b_done in
  Alcotest.(check bool) "interleaved" true (last -. first < 250.0)

let () =
  Alcotest.run ~and_exit:false "bunshin_machine_sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "affinity avoids ping-pong" `Quick test_affinity_avoids_pingpong;
          Alcotest.test_case "timeslice sharing" `Quick test_timeslice_shares_single_core;
        ] );
    ]
