module Cost = Bunshin_sanitizer.Cost_model
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program

type kind = Lighttpd | Nginx

let kind_name = function Lighttpd -> "lighttpd" | Nginx -> "nginx"
let workers = function Lighttpd -> 1 | Nginx -> 4

let chunk_kb = 1024  (* sendfile-style: one syscall per response up to 1 MB *)
let copy_cost_per_kb = 0.9

(* The testbed's 1000 Mb/s link: ~8.2 us on the wire per KB.  For 1 MB
   responses the wire, not the CPU, is the bottleneck, so server workers
   are mostly idle — which is why N-variant synchronization barely shows
   in Table 2's large-file rows. *)
let network_gap_us ~file_kb = 8.2 *. float_of_int file_kb

(* Event-loop cost per request amortizes under concurrency: epoll returns
   many ready events per wakeup. *)
let event_cost ~connections = 2.6 *. ((64.0 /. float_of_int connections) ** 0.45)

let parse_cost = function Lighttpd -> 2.3 | Nginx -> 1.8

let request_ops kind ~file_kb ~connections ~idle ~req_id =
  let chunks = max 1 ((file_kb + chunk_kb - 1) / chunk_kb) in
  let kb_per_chunk = float_of_int file_kb /. float_of_int chunks in
  let rid = Int64.of_int req_id in
  [
    Trace.Work { func = "event_loop"; cost = event_cost ~connections };
    Trace.Sys (Sc.accept ~args:[ 80L; rid ] ());
    Trace.Sys (Sc.read ~args:[ 4L; rid ] ());
    Trace.Work { func = "parse_request"; cost = parse_cost kind };
  ]
  @ List.concat
      (List.init chunks (fun c ->
           [
             Trace.Work { func = "copy_response"; cost = copy_cost_per_kb *. kb_per_chunk };
             Trace.Sys (Sc.write ~args:[ 4L; Int64.of_int ((req_id * 1000) + c) ] ());
           ]))
  @ [ Trace.Idle idle ]

let profile =
  (* Server code: branchy parsing plus buffer copies, light heap churn. *)
  {
    Cost.mem_op_density = 0.40;
    arith_density = 0.15;
    ptr_density = 0.15;
    branch_density = 0.25;
    alloc_intensity = 3.0;
  }

let make kind ~file_kb ~connections ~requests =
  if connections < 1 then invalid_arg "Server.make: connections must be >= 1";
  if requests < 1 then invalid_arg "Server.make: requests must be >= 1";
  let nworkers = workers kind in
  (* Worker [w] serves [requests / nworkers] requests, plus one of the
     [requests mod nworkers] leftovers for the first workers — so every
     request is generated exactly once even when the count does not
     divide evenly (plain truncating division silently dropped the
     remainder).  Ids stay globally unique and dense. *)
  let per_worker = requests / nworkers in
  let extra = requests mod nworkers in
  let count w = per_worker + if w < extra then 1 else 0 in
  let first w = (w * per_worker) + min w extra in
  (* All workers share one 1 Gb/s link: each sees every nworkers-th wire
     slot, so the per-worker inter-request gap scales with worker count. *)
  let idle = network_gap_us ~file_kb *. float_of_int nworkers in
  let worker_ops widx =
    List.concat
      (List.init (count widx) (fun i ->
           let req_id = first widx + i in
           let body = request_ops kind ~file_kb ~connections ~idle ~req_id in
           (* nginx re-arms its accept mutex per event batch, not per
              request (epoll batching); modelled as one acquisition every
              16 requests. *)
           if kind = Nginx && i mod 16 = 0 then Trace.Lock 0 :: Trace.Unlock 0 :: body
           else body))
  in
  let gen_trace _rng =
    if nworkers = 1 then worker_ops 0
    else List.init (nworkers - 1) (fun w -> Trace.Spawn (worker_ops (w + 1))) @ worker_ops 0
  in
  let funcs =
    List.map
      (fun name -> { Program.fn_name = name; fn_profile = profile })
      [ "event_loop"; "parse_request"; "copy_response" ]
  in
  let prog =
    {
      Program.name = Printf.sprintf "%s-%dkb-%dc" (kind_name kind) file_kb connections;
      funcs;
      working_set = 3.0;
      gen_trace;
    }
  in
  {
    Bench.name = prog.Program.name;
    suite = Bench.Server;
    threads = nworkers;
    prog;
    msan_compatible = true;
    nxe_supported = true;
    unsupported_reason = None;
  }

(* Live-monitoring SLO for synchronized-syscall rendezvous latency: the
   sync point's budget is a small multiple of the raw syscall cost (the
   paper's overhead target is "low single-digit percent" on
   syscall-dominated servers), scaled up for nginx whose four workers
   contend for the leader's ring. *)
let slo_target_us = function Lighttpd -> 12.0 | Nginx -> 20.0
