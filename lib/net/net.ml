module M = Bunshin_machine.Machine
module Tel = Bunshin_telemetry.Telemetry
module Rng = Bunshin_util.Rng
module Server = Bunshin_workloads.Server
module Tx = Bunshin_trace_ctx.Trace_ctx

type params = {
  latency_us : float;
  bytes_per_us : float;
  loss : float;
  retransmit_us : float;
}

(* The server workloads already fix the testbed wire at 1 Gb/s
   (network_gap_us: 8.2 us per KB); links reuse that rate rather than
   inventing a second model.  50 us one-way is a same-rack hop. *)
let default_params =
  {
    latency_us = 50.0;
    bytes_per_us = 1024.0 /. Server.network_gap_us ~file_kb:1;
    loss = 0.0;
    retransmit_us = 200.0;
  }

type stats = { s_msgs : int; s_bytes : int; s_retransmits : int }

(* Per-link telemetry handles are resolved once at link creation (the
   interned-counter path: Tel.counter is get-or-create), so the per-send
   cost is a field read and two increments. *)
type link_tel = {
  lt_bytes : Tel.Counter.t;
  lt_msgs : Tel.Counter.t;
  lt_all_bytes : Tel.Counter.t;
  lt_all_msgs : Tel.Counter.t;
}

type link = {
  l_name : string;
  l_params : params;
  l_src : M.t;
  l_dst : M.t;
  l_rng : Rng.t;
  mutable l_busy_until : float; (* when the last queued message finishes serializing *)
  mutable l_msgs : int;
  mutable l_bytes : int;
  mutable l_retrans : int;
  l_tel : link_tel option;
}

type t = {
  n_seed : int;
  n_sink : Tel.sink option;
  n_tracer : Tx.t option;
  n_rtt : Tel.Hist.t;
  mutable n_links : link list; (* newest first *)
  mutable n_next : int;
}

let create ?(seed = 0) ?telemetry () =
  let rtt = Tel.Hist.create () in
  (match telemetry with
   | Some sink -> ignore (Tel.register_hist sink "net_rtt_us" rtt)
   | None -> ());
  {
    n_seed = seed;
    n_sink = telemetry;
    n_tracer = Option.map Tel.recorder telemetry;
    n_rtt = rtt;
    n_links = [];
    n_next = 0;
  }

let link net ?(params = default_params) ~src ~dst name =
  if not (params.latency_us > 0.0) then
    invalid_arg "Net.link: latency_us must be > 0";
  if not (params.bytes_per_us > 0.0) then
    invalid_arg "Net.link: bytes_per_us must be > 0";
  if params.loss < 0.0 || params.loss >= 1.0 then
    invalid_arg "Net.link: loss must be in [0, 1)";
  if params.retransmit_us < 0.0 then
    invalid_arg "Net.link: retransmit_us must be >= 0";
  let tel =
    Option.map
      (fun sink ->
        {
          lt_bytes = Tel.counter sink (Printf.sprintf "net.%s.bytes_sent" name);
          lt_msgs = Tel.counter sink (Printf.sprintf "net.%s.msgs_sent" name);
          lt_all_bytes = Tel.counter sink "net.bytes_sent";
          lt_all_msgs = Tel.counter sink "net.msgs_sent";
        })
      net.n_sink
  in
  let l =
    {
      l_name = name;
      l_params = params;
      l_src = src;
      l_dst = dst;
      (* Independent loss stream per link, derived from the net seed and
         the link's creation index — stable however links are used. *)
      l_rng = Rng.create (net.n_seed lxor ((net.n_next + 1) * 0x9e3779b9));
      l_busy_until = 0.0;
      l_msgs = 0;
      l_bytes = 0;
      l_retrans = 0;
      l_tel = tel;
    }
  in
  net.n_next <- net.n_next + 1;
  net.n_links <- l :: net.n_links;
  l

let link_name l = l.l_name
let transmission_us p bytes = float_of_int bytes /. p.bytes_per_us

let send_traced net l ~bytes ~span ~node deliver =
  if bytes < 0 then invalid_arg "Net.send: negative size";
  let p = l.l_params in
  let now = M.now l.l_src in
  let txm = transmission_us p bytes in
  let depart = if l.l_busy_until > now then l.l_busy_until else now in
  (* Geometric retransmission count: each lost copy costs a recovery
     timeout plus a repeat transmission, serialized on the link — the
     message and everything behind it are delayed, never reordered. *)
  let retries = ref 0 in
  if p.loss > 0.0 then
    while Rng.chance l.l_rng p.loss do
      incr retries
    done;
  let serialized = depart +. txm +. (float_of_int !retries *. (p.retransmit_us +. txm)) in
  l.l_busy_until <- serialized;
  l.l_msgs <- l.l_msgs + 1;
  l.l_bytes <- l.l_bytes + (bytes * (1 + !retries));
  l.l_retrans <- l.l_retrans + !retries;
  (match l.l_tel with
   | Some lt ->
     let wire = bytes * (1 + !retries) in
     Tel.Counter.incr ~by:wire lt.lt_bytes;
     Tel.Counter.incr lt.lt_msgs;
     Tel.Counter.incr ~by:wire lt.lt_all_bytes;
     Tel.Counter.incr lt.lt_all_msgs
   | None -> ());
  let arrival = serialized +. p.latency_us in
  (match net.n_tracer with
   | Some tc when span >= 0 ->
     (* One span per message, send -> delivery, annotated with the three
        components of the delay the critical-path walk chooses between:
        a0 queueing+serialization, a1 propagation, a2 retransmit extra. *)
     let retrans_extra = float_of_int !retries *. (p.retransmit_us +. txm) in
     let id =
       Tx.record_child tc Tx.Net_msg ~parent:span ~node ~variant:(-1) ~chan:(-1)
         ~pos:(-1) ~t0:now ~t1:arrival
     in
     Tx.annotate tc id ~a0:(depart -. now +. txm) ~a1:p.latency_us ~a2:retrans_extra
   | _ -> ());
  M.post l.l_dst ~at:arrival deliver

let send net l ~bytes deliver = send_traced net l ~bytes ~span:(-1) ~node:(-1) deliver

let observe_rtt net v = Tel.Hist.observe net.n_rtt v
let rtt_hist net = net.n_rtt

let link_stats l = { s_msgs = l.l_msgs; s_bytes = l.l_bytes; s_retransmits = l.l_retrans }
let links net = List.rev net.n_links

let totals net =
  List.fold_left
    (fun acc l ->
      {
        s_msgs = acc.s_msgs + l.l_msgs;
        s_bytes = acc.s_bytes + l.l_bytes;
        s_retransmits = acc.s_retransmits + l.l_retrans;
      })
    { s_msgs = 0; s_bytes = 0; s_retransmits = 0 }
    net.n_links
