module Stats = Bunshin_util.Stats
module Json = Bunshin_util.Json

type phase = Begin | End | Instant | Complete of float

type event = {
  ev_name : string;
  ev_cat : string;
  ev_phase : phase;
  ev_ts : float;
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Metrics *)

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr ?(by = 1) c = c.v <- c.v + by
  let value c = c.v
end

module Gauge = struct
  type t = { mutable g_last : float; mutable g_max : float; mutable g_n : int }

  let create () = { g_last = 0.0; g_max = neg_infinity; g_n = 0 }

  let set g v =
    g.g_last <- v;
    if v > g.g_max then g.g_max <- v;
    g.g_n <- g.g_n + 1

  let last g = g.g_last
  let max_value g = if g.g_n = 0 then 0.0 else g.g_max
  let samples g = g.g_n
end

module Hist = struct
  (* An all-float record stores its fields unboxed, so [observe] writes
     them without allocating. *)
  type moments = { mutable h_sum : float; mutable h_min : float; mutable h_max : float }

  type t = {
    bounds : float array; (* sorted, strictly increasing, finite *)
    counts : int array;   (* length bounds + 1; last entry is overflow *)
    mutable h_n : int;
    mo : moments;
  }

  let default_buckets =
    [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000. ]

  let create ?(buckets = default_buckets) () =
    (* Stats.histogram's own normaliser, so bucketing here can never drift
       from the pure list-based version. *)
    let bounds = Array.of_list (Stats.bucket_bounds buckets) in
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      h_n = 0;
      mo = { h_sum = 0.0; h_min = infinity; h_max = neg_infinity };
    }

  let observe h x =
    let k = Array.length h.bounds in
    let i = ref 0 in
    while !i < k && x > h.bounds.(!i) do
      incr i
    done;
    h.counts.(!i) <- h.counts.(!i) + 1;
    h.h_n <- h.h_n + 1;
    let mo = h.mo in
    mo.h_sum <- mo.h_sum +. x;
    if x < mo.h_min then mo.h_min <- x;
    if x > mo.h_max then mo.h_max <- x

  let count h = h.h_n
  let sum h = h.mo.h_sum
  let mean h = if h.h_n = 0 then 0.0 else h.mo.h_sum /. float_of_int h.h_n
  let min_value h = if h.h_n = 0 then 0.0 else h.mo.h_min
  let max_value h = if h.h_n = 0 then 0.0 else h.mo.h_max

  let dump h =
    let k = Array.length h.bounds in
    List.init k (fun i -> (h.bounds.(i), h.counts.(i))) @ [ (infinity, h.counts.(k)) ]

  (* Rank the same way Stats.percentile does (rank over n-1 intervals),
     then name the bucket holding that rank: the estimate sits at most
     one bucket width above the exact sample quantile. *)
  let quantile h p =
    if h.h_n = 0 then 0.0
    else begin
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int (h.h_n - 1))) in
      let rank = if rank < 0 then 0 else if rank > h.h_n - 1 then h.h_n - 1 else rank in
      let k = Array.length h.bounds in
      let acc = ref 0 and i = ref 0 and res = ref h.mo.h_max in
      (try
         while !i <= k do
           acc := !acc + h.counts.(!i);
           if !acc > rank then begin
             res := (if !i < k then h.bounds.(!i) else h.mo.h_max);
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      !res
    end

  (* Multi-quantile from one cumulative pass over the counts (the
     bucketed analogue of Stats.percentiles' single sort): each result
     is exactly what [quantile] returns for that p. *)
  let quantiles h ps =
    if h.h_n = 0 then List.map (fun _ -> 0.0) ps
    else begin
      let k = Array.length h.bounds in
      let cum = Array.make (k + 1) 0 in
      let acc = ref 0 in
      for i = 0 to k do
        acc := !acc + h.counts.(i);
        cum.(i) <- !acc
      done;
      List.map
        (fun p ->
          let rank = int_of_float (ceil (p /. 100.0 *. float_of_int (h.h_n - 1))) in
          let rank = if rank < 0 then 0 else if rank > h.h_n - 1 then h.h_n - 1 else rank in
          let i = ref 0 in
          while cum.(!i) <= rank do
            incr i
          done;
          if !i < k then h.bounds.(!i) else h.mo.h_max)
        ps
    end
end

(* ------------------------------------------------------------------ *)
(* Windowed SLO monitor: a ring of log-bucketed sub-histograms.  Memory
   is fixed at creation (sub_windows * (buckets+1) ints plus a few
   scalars); advancing time zeroes expired sub-windows in place. *)

module Slo = struct
  type window = {
    sl_bounds : float array;
    sl_counts : int array array; (* sub-window -> bucket counts (+overflow) *)
    sl_max : float array; (* per-sub-window max, for overflow quantiles *)
    sl_subs : int;
    sl_sub_us : float;
    mutable sl_slot : int; (* absolute index of the newest sub-window *)
    mutable sl_any : bool; (* false until the first observation *)
  }

  let window ?(sub_windows = 8) ?(sub_us = 10_000.0) ?buckets () =
    if sub_windows < 1 then invalid_arg "Slo.window: sub_windows must be positive";
    if not (sub_us > 0.0 && Float.is_finite sub_us) then
      invalid_arg "Slo.window: sub_us must be positive and finite";
    let bounds =
      let h = Hist.create ?buckets () in
      h.Hist.bounds
    in
    {
      sl_bounds = bounds;
      sl_counts = Array.init sub_windows (fun _ -> Array.make (Array.length bounds + 1) 0);
      sl_max = Array.make sub_windows neg_infinity;
      sl_subs = sub_windows;
      sl_sub_us = sub_us;
      sl_slot = 0;
      sl_any = false;
    }

  let span_us w = float_of_int w.sl_subs *. w.sl_sub_us

  let advance w ~now =
    let slot = int_of_float (Float.max 0.0 now /. w.sl_sub_us) in
    if not w.sl_any then begin
      w.sl_slot <- slot;
      w.sl_any <- true
    end
    else if slot > w.sl_slot then begin
      let fresh = min w.sl_subs (slot - w.sl_slot) in
      for i = 1 to fresh do
        let s = (w.sl_slot + i) mod w.sl_subs in
        Array.fill w.sl_counts.(s) 0 (Array.length w.sl_bounds + 1) 0;
        w.sl_max.(s) <- neg_infinity
      done;
      w.sl_slot <- slot
    end

  let observe w ~now x =
    advance w ~now;
    let k = Array.length w.sl_bounds in
    let i = ref 0 in
    while !i < k && x > w.sl_bounds.(!i) do
      incr i
    done;
    let s = w.sl_slot mod w.sl_subs in
    let row = w.sl_counts.(s) in
    row.(!i) <- row.(!i) + 1;
    if x > w.sl_max.(s) then w.sl_max.(s) <- x

  let fold_buckets w f init =
    let k = Array.length w.sl_bounds in
    let acc = ref init in
    for b = 0 to k do
      let c = ref 0 in
      for s = 0 to w.sl_subs - 1 do
        c := !c + w.sl_counts.(s).(b)
      done;
      acc := f !acc b !c
    done;
    !acc

  let count w ~now =
    advance w ~now;
    fold_buckets w (fun acc _ c -> acc + c) 0

  let quantile w ~now p =
    advance w ~now;
    let n = fold_buckets w (fun acc _ c -> acc + c) 0 in
    if n = 0 then 0.0
    else begin
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int (n - 1))) in
      let rank = if rank < 0 then 0 else if rank > n - 1 then n - 1 else rank in
      let k = Array.length w.sl_bounds in
      let live_max =
        Array.fold_left (fun acc m -> if m > acc then m else acc) neg_infinity w.sl_max
      in
      let acc = ref 0 and res = ref live_max and found = ref false in
      for b = 0 to k do
        if not !found then begin
          acc := !acc + fold_buckets w (fun a b' c -> if b' = b then a + c else a) 0;
          if !acc > rank then begin
            found := true;
            res := (if b < k then w.sl_bounds.(b) else live_max)
          end
        end
      done;
      !res
    end

  let quantiles w ~now ps = List.map (fun p -> quantile w ~now p) ps

  let bucket_width_at w x =
    let k = Array.length w.sl_bounds in
    let i = ref 0 in
    while !i < k && x > w.sl_bounds.(!i) do
      incr i
    done;
    if !i >= k then w.sl_bounds.(k - 1)
    else if !i = 0 then w.sl_bounds.(0)
    else w.sl_bounds.(!i) -. w.sl_bounds.(!i - 1)

  type target = { slo_quantile : float; slo_limit_us : float }

  let breach_fraction w ~now target =
    advance w ~now;
    let n = ref 0 and bad = ref 0 in
    let k = Array.length w.sl_bounds in
    ignore
      (fold_buckets w
         (fun () b c ->
           n := !n + c;
           (* bucket b spans (bounds.(b-1), bounds.(b)]; it breaches when
              its lower edge is already at or above the limit *)
           let lower = if b = 0 then 0.0 else w.sl_bounds.(b - 1) in
           if b = k || lower >= target.slo_limit_us then bad := !bad + c)
         ());
    if !n = 0 then 0.0 else float_of_int !bad /. float_of_int !n

  let burn_rate w ~now target =
    let budget = (100.0 -. target.slo_quantile) /. 100.0 in
    if budget <= 0.0 then invalid_arg "Slo.burn_rate: quantile must be < 100";
    breach_fraction w ~now target /. budget
end

type metric = C of Counter.t | G of Gauge.t | H of Hist.t

(* ------------------------------------------------------------------ *)
(* Sink: bounded event ring + metrics registry *)

type sink = {
  cap : int;
  ring : event array;
  mutable start : int; (* index of the oldest event *)
  mutable len : int;
  mutable dropped : int;
  mutable next_pid : int;
  mutable proc_names : (int * string) list;        (* newest first *)
  mutable track_names : ((int * int) * string) list;
  metrics : (string, metric) Hashtbl.t;
  mutable metric_order : string list; (* reverse registration order *)
}

type domain = { d_sink : sink; d_pid : int; d_name : string }

let dummy_event =
  { ev_name = ""; ev_cat = ""; ev_phase = Instant; ev_ts = 0.0; ev_pid = 0; ev_tid = 0;
    ev_args = [] }

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Telemetry.create: capacity must be positive";
  {
    cap = capacity;
    ring = Array.make capacity dummy_event;
    start = 0;
    len = 0;
    dropped = 0;
    next_pid = 0;
    proc_names = [];
    track_names = [];
    metrics = Hashtbl.create 32;
    metric_order = [];
  }

let capacity s = s.cap

let domain s ~name =
  let pid = s.next_pid in
  s.next_pid <- pid + 1;
  s.proc_names <- (pid, name) :: s.proc_names;
  { d_sink = s; d_pid = pid; d_name = name }

let domain_sink d = d.d_sink
let domain_name d = d.d_name

let push s ev =
  if s.len < s.cap then begin
    s.ring.((s.start + s.len) mod s.cap) <- ev;
    s.len <- s.len + 1
  end
  else begin
    (* Full: evict the oldest, keep the newest — the tail of a run is what
       a trace reader usually wants. *)
    s.ring.(s.start) <- ev;
    s.start <- (s.start + 1) mod s.cap;
    s.dropped <- s.dropped + 1
  end

let emit d phase ?(tid = 0) ?(args = []) ~ts ~cat name =
  push d.d_sink
    { ev_name = name; ev_cat = cat; ev_phase = phase; ev_ts = ts; ev_pid = d.d_pid;
      ev_tid = tid; ev_args = args }

let span_begin d ?tid ?args ~ts ~cat name = emit d Begin ?tid ?args ~ts ~cat name
let span_end d ?tid ~ts ~cat name = emit d End ?tid ~ts ~cat name
let span_complete d ?tid ?args ~ts ~dur ~cat name = emit d (Complete dur) ?tid ?args ~ts ~cat name
let instant d ?tid ?args ~ts ~cat name = emit d Instant ?tid ?args ~ts ~cat name

let name_track d ~tid name =
  let s = d.d_sink in
  s.track_names <- ((d.d_pid, tid), name) :: List.remove_assoc (d.d_pid, tid) s.track_names

let events s = List.init s.len (fun i -> s.ring.((s.start + i) mod s.cap))
let event_count s = s.len

let recent s n =
  if n < 0 then invalid_arg "Telemetry.recent: negative window";
  let n = min n s.len in
  let first = s.len - n in
  List.init n (fun i -> s.ring.((s.start + first + i) mod s.cap))

let dropped_events s = s.dropped

(* ------------------------------------------------------------------ *)
(* Registry *)

let register s name m =
  Hashtbl.replace s.metrics name m;
  s.metric_order <- name :: s.metric_order

let counter s name =
  match Hashtbl.find_opt s.metrics name with
  | Some (C c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Telemetry.counter: %s is not a counter" name)
  | None ->
    let c = Counter.create () in
    register s name (C c);
    c

let gauge s name =
  match Hashtbl.find_opt s.metrics name with
  | Some (G g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Telemetry.gauge: %s is not a gauge" name)
  | None ->
    let g = Gauge.create () in
    register s name (G g);
    g

let hist ?buckets s name =
  match Hashtbl.find_opt s.metrics name with
  | Some (H h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Telemetry.hist: %s is not a histogram" name)
  | None ->
    let h = Hist.create ?buckets () in
    register s name (H h);
    h

let register_hist s name h =
  let rec unique base k =
    let candidate = if k = 1 then base else Printf.sprintf "%s#%d" base k in
    if Hashtbl.mem s.metrics candidate then unique base (k + 1) else candidate
  in
  let name = unique name 1 in
  register s name (H h);
  name

(* ------------------------------------------------------------------ *)
(* Exporters *)

let json_float f =
  if Float.is_nan f then "0"
  else if f = infinity then "1e308"
  else if f = neg_infinity then "-1e308"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let json_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)) args)
  ^ "}"

let render_event e =
  let base =
    Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d"
      (Json.escape e.ev_name) (Json.escape e.ev_cat) (json_float e.ev_ts) e.ev_pid e.ev_tid
  in
  let ph =
    match e.ev_phase with
    | Begin -> ",\"ph\":\"B\""
    | End -> ",\"ph\":\"E\""
    | Instant -> ",\"ph\":\"i\",\"s\":\"t\""
    | Complete dur -> Printf.sprintf ",\"ph\":\"X\",\"dur\":%s" (json_float dur)
  in
  let args = if e.ev_args = [] then "" else ",\"args\":" ^ json_args e.ev_args in
  base ^ ph ^ args ^ "}"

let to_chrome_json s =
  let meta_proc (pid, name) =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
      pid (Json.escape name)
  in
  let meta_track ((pid, tid), name) =
    Printf.sprintf
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
      pid tid (Json.escape name)
  in
  let metas =
    List.map meta_proc (List.rev s.proc_names) @ List.map meta_track (List.rev s.track_names)
  in
  let body = String.concat ",\n" (metas @ List.map render_event (events s)) in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" ^ body ^ "\n]}\n"

(* Sorted by name, not registration order: exports are diffable across runs
   whose code paths registered metrics in different orders. *)
let ordered_metrics s =
  List.filter_map (fun name -> Option.map (fun m -> (name, m)) (Hashtbl.find_opt s.metrics name))
    (List.sort_uniq compare (List.rev s.metric_order))

let hist_buckets_json h =
  let row (bound, count) =
    let le = if Float.is_finite bound then json_float bound else "\"+inf\"" in
    Printf.sprintf "{\"le\":%s,\"count\":%d}" le count
  in
  "[" ^ String.concat "," (List.map row (Hist.dump h)) ^ "]"

let metrics_to_json s =
  let all = ordered_metrics s in
  let pick f = List.filter_map f all in
  let counters =
    pick (function
      | name, C c -> Some (Printf.sprintf "\"%s\":%d" (Json.escape name) (Counter.value c))
      | _ -> None)
  in
  let gauges =
    pick (function
      | name, G g ->
        Some
          (Printf.sprintf "\"%s\":{\"last\":%s,\"max\":%s,\"samples\":%d}" (Json.escape name)
             (json_float (Gauge.last g)) (json_float (Gauge.max_value g)) (Gauge.samples g))
      | _ -> None)
  in
  let hists =
    pick (function
      | name, H h ->
        Some
          (Printf.sprintf
             "\"%s\":{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"p999\":%s,\"buckets\":%s}"
             (Json.escape name) (Hist.count h) (json_float (Hist.sum h))
             (json_float (Hist.min_value h)) (json_float (Hist.max_value h))
             (json_float (Hist.quantile h 50.0)) (json_float (Hist.quantile h 95.0))
             (json_float (Hist.quantile h 99.0)) (json_float (Hist.quantile h 99.9))
             (hist_buckets_json h))
      | _ -> None)
  in
  Printf.sprintf "{\n\"counters\":{%s},\n\"gauges\":{%s},\n\"histograms\":{%s}\n}\n"
    (String.concat "," counters) (String.concat "," gauges) (String.concat "," hists)

let metrics_to_text s =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, m) ->
      match m with
      | C c -> Buffer.add_string buf (Printf.sprintf "counter  %-32s %d\n" name (Counter.value c))
      | G g ->
        Buffer.add_string buf
          (Printf.sprintf "gauge    %-32s last %g  max %g  samples %d\n" name (Gauge.last g)
             (Gauge.max_value g) (Gauge.samples g))
      | H h ->
        Buffer.add_string buf
          (Printf.sprintf "hist     %-32s n %d  mean %.2f  min %g  max %g\n" name (Hist.count h)
             (Hist.mean h) (Hist.min_value h) (Hist.max_value h));
        if Hist.count h > 0 then
          Buffer.add_string buf
            (Printf.sprintf "         p50 %g  p95 %g  p99 %g  p999 %g\n"
               (Hist.quantile h 50.0) (Hist.quantile h 95.0) (Hist.quantile h 99.0)
               (Hist.quantile h 99.9));
        let cell (bound, count) =
          if Float.is_finite bound then Printf.sprintf "<=%g:%d" bound count
          else Printf.sprintf ">last:%d" count
        in
        Buffer.add_string buf
          ("         " ^ String.concat " " (List.map cell (Hist.dump h)) ^ "\n"))
    (ordered_metrics s);
  Buffer.contents buf

(* Prometheus text exposition format.  Metric names are sanitized to the
   legal charset; histogram buckets are emitted cumulatively with the
   required "+Inf" terminal, plus _sum and _count. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let metrics_to_prometheus s =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, m) ->
      let n = prom_name name in
      match m with
      | C c ->
        p "# TYPE %s counter\n%s %d\n" n n (Counter.value c)
      | G g ->
        p "# TYPE %s gauge\n%s %s\n" n n (prom_float (Gauge.last g))
      | H h ->
        p "# TYPE %s histogram\n" n;
        let cum = ref 0 in
        List.iter
          (fun (bound, count) ->
            cum := !cum + count;
            p "%s_bucket{le=\"%s\"} %d\n" n
              (if Float.is_finite bound then prom_float bound else "+Inf")
              !cum)
          (Hist.dump h);
        p "%s_sum %s\n%s_count %d\n" n (prom_float (Hist.sum h)) n (Hist.count h))
    (ordered_metrics s);
  Buffer.contents buf
