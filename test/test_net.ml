(* Tests for the deterministic network model (lib/net). *)

module M = Bunshin_machine.Machine
module Net = Bunshin_net.Net
module Tel = Bunshin_telemetry.Telemetry

let p ?(latency = 50.0) ?(rate = 100.0) ?(loss = 0.0) ?(rto = 200.0) () =
  { Net.latency_us = latency; bytes_per_us = rate; loss; retransmit_us = rto }

(* Run a machine pair until every delivery has landed: a non-daemon
   thread on [dst] sleeps past the last one. *)
let run2 src dst =
  let p = M.new_proc dst ~name:"drain" ~working_set:0.0 () in
  ignore (M.spawn dst p ~name:"sleeper" (fun () -> M.sleep dst 1e6));
  M.run_group [| src; dst |]

let test_fifo_latency () =
  (* Two back-to-back messages: the second serializes behind the first,
     both arrive after the constant latency, in order. *)
  let src = M.create () and dst = M.create () in
  let net = Net.create () in
  let l = Net.link net ~params:(p ~latency:10.0 ~rate:100.0 ()) ~src ~dst "l" in
  let arrivals = ref [] in
  let proc = M.new_proc src ~name:"sender" ~working_set:8.0 () in
  ignore
    (M.spawn src proc ~name:"send" (fun () ->
         Net.send net l ~bytes:1000 (fun () -> arrivals := ("a", M.now dst) :: !arrivals);
         Net.send net l ~bytes:500 (fun () -> arrivals := ("b", M.now dst) :: !arrivals)));
  run2 src dst;
  (match List.rev !arrivals with
   | [ ("a", ta); ("b", tb) ] ->
     (* a: 1000B at 100 B/us -> serialized at 10, +10 latency = 20.
        b: queued behind a -> serialized at 15, arrives 25. *)
     Alcotest.(check (float 1e-9)) "first arrival" 20.0 ta;
     Alcotest.(check (float 1e-9)) "second arrival" 25.0 tb
   | other ->
     Alcotest.failf "expected 2 in-order arrivals, got %d" (List.length other));
  let st = Net.link_stats l in
  Alcotest.(check int) "msgs" 2 st.Net.s_msgs;
  Alcotest.(check int) "bytes" 1500 st.Net.s_bytes;
  Alcotest.(check int) "retransmits" 0 st.Net.s_retransmits

let test_idle_gap () =
  (* A message sent after the link went idle departs immediately. *)
  let src = M.create () and dst = M.create () in
  let net = Net.create () in
  let l = Net.link net ~params:(p ~latency:5.0 ~rate:10.0 ()) ~src ~dst "l" in
  let arrival = ref 0.0 in
  let proc = M.new_proc src ~name:"sender" ~working_set:8.0 () in
  ignore
    (M.spawn src proc ~name:"send" (fun () ->
         M.sleep src 100.0;
         Net.send net l ~bytes:10 (fun () -> arrival := M.now dst)));
  run2 src dst;
  (* departs at 100, +1us serialization, +5 latency *)
  Alcotest.(check (float 1e-9)) "arrival" 106.0 !arrival

let test_loss_determinism () =
  (* Same link => identical retransmission schedule; loss only delays,
     never drops or reorders.  With [second], the measured link is the
     net's second one, whose loss stream is its own. *)
  let run ~second =
    let src = M.create () and dst = M.create () in
    let net = Net.create () in
    if second then ignore (Net.link net ~params:(p ()) ~src ~dst "first");
    let l = Net.link net ~params:(p ~latency:10.0 ~rate:100.0 ~loss:0.3 ()) ~src ~dst "l" in
    let arrivals = ref [] in
    let proc = M.new_proc src ~name:"sender" ~working_set:8.0 () in
    ignore
      (M.spawn src proc ~name:"send" (fun () ->
           for i = 0 to 19 do
             Net.send net l ~bytes:100 (fun () -> arrivals := (i, M.now dst) :: !arrivals)
           done));
    run2 src dst;
    (List.rev !arrivals, Net.link_stats l)
  in
  let a1, s1 = run ~second:false and a2, s2 = run ~second:false in
  Alcotest.(check bool) "same schedule" true (a1 = a2);
  Alcotest.(check bool) "some retransmits" true (s1.Net.s_retransmits > 0);
  Alcotest.(check int) "same retransmits" s1.Net.s_retransmits s2.Net.s_retransmits;
  (* retransmitted copies are on the wire *)
  Alcotest.(check int) "bytes include copies"
    (100 * (20 + s1.Net.s_retransmits)) s1.Net.s_bytes;
  (* in-order: arrival times are the identity permutation, monotone *)
  List.iteri (fun i (j, _) -> Alcotest.(check int) "order" i j) a1;
  let rec mono = function
    | (_, t1) :: ((_, t2) :: _ as rest) -> t1 <= t2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone arrivals" true (mono a1);
  let a3, _ = run ~second:true in
  Alcotest.(check bool) "another link's stream differs" true (a1 <> a3)

let test_totals_and_links () =
  let src = M.create () and dst = M.create () in
  let net = Net.create () in
  let l1 = Net.link net ~params:(p ()) ~src ~dst "a" in
  let l2 = Net.link net ~params:(p ()) ~src ~dst "b" in
  Alcotest.(check (list string)) "creation order" [ "a"; "b" ]
    (List.map Net.link_name (Net.links net));
  let proc = M.new_proc src ~name:"s" ~working_set:8.0 () in
  ignore
    (M.spawn src proc ~name:"send" (fun () ->
         Net.send net l1 ~bytes:10 ignore;
         Net.send net l2 ~bytes:20 ignore;
         Net.send net l2 ~bytes:30 ignore));
  run2 src dst;
  let t = Net.totals net in
  Alcotest.(check int) "total msgs" 3 t.Net.s_msgs;
  Alcotest.(check int) "total bytes" 60 t.Net.s_bytes

let test_telemetry_counters () =
  (* Interned counters: global and per-link, visible on the sink; and the
     delivery schedule is identical with and without the sink. *)
  let run telemetry =
    let src = M.create () and dst = M.create () in
    let net = Net.create ?telemetry () in
    let l = Net.link net ~params:(p ()) ~src ~dst "lk" in
    let arrivals = ref [] in
    let proc = M.new_proc src ~name:"s" ~working_set:8.0 () in
    ignore
      (M.spawn src proc ~name:"send" (fun () ->
           Net.send net l ~bytes:100 (fun () -> arrivals := M.now dst :: !arrivals);
           Net.send net l ~bytes:200 (fun () -> arrivals := M.now dst :: !arrivals)));
    run2 src dst;
    !arrivals
  in
  let sink = Tel.create () in
  let with_tel = run (Some sink) in
  let without = run None in
  Alcotest.(check bool) "schedule identical" true (with_tel = without);
  let text = Tel.metrics_to_text sink in
  Alcotest.(check bool) "global bytes counter" true (Kit.contains text "net.bytes_sent");
  Alcotest.(check bool) "global msgs counter" true (Kit.contains text "net.msgs_sent");
  Alcotest.(check bool) "per-link bytes counter" true (Kit.contains text "net.lk.bytes_sent");
  Alcotest.(check bool) "rtt hist registered" true
    (Kit.contains (Tel.metrics_to_json sink) "net_rtt_us")

let test_validation () =
  let src = M.create () and dst = M.create () in
  let net = Net.create () in
  let bad params = fun () -> ignore (Net.link net ~params ~src ~dst "x") in
  Alcotest.check_raises "latency" (Invalid_argument "Net.link: latency_us must be > 0")
    (bad (p ~latency:0.0 ()));
  Alcotest.check_raises "rate" (Invalid_argument "Net.link: bytes_per_us must be > 0")
    (bad (p ~rate:0.0 ()));
  Alcotest.check_raises "loss" (Invalid_argument "Net.link: loss must be in [0, 1)")
    (bad (p ~loss:1.0 ()));
  let l = Net.link net ~params:(p ()) ~src ~dst "ok" in
  Alcotest.check_raises "negative size" (Invalid_argument "Net.send: negative size")
    (fun () -> Net.send net l ~bytes:(-1) ignore)

let test_transmission_us () =
  (* An idle default link delivers a 1 KB response after the server
     model's wire gap for it (8.2 us) plus the one-way latency. *)
  let src = M.create () and dst = M.create () in
  let net = Net.create () in
  let l = Net.link net ~params:Net.default_params ~src ~dst "l" in
  let arrival = ref 0.0 in
  let proc = M.new_proc src ~name:"sender" ~working_set:8.0 () in
  ignore
    (M.spawn src proc ~name:"send" (fun () ->
         Net.send net l ~bytes:1024 (fun () -> arrival := M.now dst)));
  run2 src dst;
  Alcotest.(check (float 1e-9)) "latency + serialization"
    (Net.default_params.Net.latency_us +. Bunshin_workloads.Server.network_gap_us ~file_kb:1)
    !arrival

let () =
  Alcotest.run "net"
    [
      ( "model",
        [
          Alcotest.test_case "fifo serialization + latency" `Quick test_fifo_latency;
          Alcotest.test_case "idle link departs immediately" `Quick test_idle_gap;
          Alcotest.test_case "loss: deterministic, in-order" `Quick test_loss_determinism;
          Alcotest.test_case "totals and link order" `Quick test_totals_and_links;
          Alcotest.test_case "default rate from server model" `Quick test_transmission_us;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
