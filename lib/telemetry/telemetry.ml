module Stats = Bunshin_util.Stats
module Json = Bunshin_util.Json
module Tx = Bunshin_trace_ctx.Trace_ctx

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

(* Rank the same way Stats.percentile does (rank over n-1 intervals), then
   name the bucket holding that rank: the estimate sits at most one bucket
   width above the exact sample quantile.  [counts] holds [n] samples, one
   entry per bound plus the overflow bucket, whose rank answers [top]. *)
let bucket_quantile bounds counts n top p =
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int (n - 1))) in
    let rank = if rank < 0 then 0 else if rank > n - 1 then n - 1 else rank in
    let k = Array.length bounds in
    let rec walk i acc =
      let acc = acc + counts.(i) in
      if i = k then top else if acc > rank then bounds.(i) else walk (i + 1) acc
    in
    walk 0 0
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

  (* Validated bounds are an empty histogram that nothing observes (the
     type is abstract outside).  A histogram made from them shares the
     bounds array, which nothing writes, and copies the all-zero counts. *)
  type bounds = t

  let fresh_moments () = { h_sum = 0.0; h_min = infinity; h_max = neg_infinity }

  let bounds buckets =
    (* Stats.histogram's own normaliser, so bucketing here can never drift
       from the pure list-based version. *)
    let bounds = Array.of_list (Stats.bucket_bounds buckets) in
    { bounds; counts = Array.make (Array.length bounds + 1) 0; h_n = 0; mo = fresh_moments () }

  let of_bounds proto = { proto with counts = Array.copy proto.counts; mo = fresh_moments () }
  let default = bounds default_buckets
  let create () = of_bounds default

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
    let acc = ref [ (infinity, h.counts.(k)) ] in
    for i = k - 1 downto 0 do
      acc := (h.bounds.(i), h.counts.(i)) :: !acc
    done;
    !acc

  let quantile h p = bucket_quantile h.bounds h.counts h.h_n h.mo.h_max p
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

  let window ?(sub_windows = 8) ?(sub_us = 10_000.0) () =
    if sub_windows < 1 then invalid_arg "Slo.window: sub_windows must be positive";
    if not (sub_us > 0.0 && Float.is_finite sub_us) then
      invalid_arg "Slo.window: sub_us must be positive and finite";
    let bounds = Hist.default.Hist.bounds in
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

  (* The bucket [x] falls in: the first bound at or above it, or [k] for
     the overflow bucket. *)
  let bucket_index w x =
    let k = Array.length w.sl_bounds in
    let i = ref 0 in
    while !i < k && x > w.sl_bounds.(!i) do
      incr i
    done;
    !i

  let observe w ~now x =
    advance w ~now;
    let i = bucket_index w x in
    let s = w.sl_slot mod w.sl_subs in
    let row = w.sl_counts.(s) in
    row.(i) <- row.(i) + 1;
    if x > w.sl_max.(s) then w.sl_max.(s) <- x

  (* Advance to [now], then sum each bucket's counts over the sub-windows. *)
  let live_counts w ~now =
    advance w ~now;
    let m = Array.make (Array.length w.sl_bounds + 1) 0 in
    Array.iter (fun row -> Array.iteri (fun b c -> m.(b) <- m.(b) + c) row) w.sl_counts;
    m

  let count w ~now = Array.fold_left ( + ) 0 (live_counts w ~now)

  let quantile w ~now p =
    let m = live_counts w ~now in
    let live_max =
      Array.fold_left (fun acc x -> if x > acc then x else acc) neg_infinity w.sl_max
    in
    bucket_quantile w.sl_bounds m (Array.fold_left ( + ) 0 m) live_max p

  let quantiles w ~now ps = List.map (fun p -> quantile w ~now p) ps

  let bucket_width_at w x =
    let k = Array.length w.sl_bounds in
    let i = bucket_index w x in
    if i >= k then w.sl_bounds.(k - 1)
    else if i = 0 then w.sl_bounds.(0)
    else w.sl_bounds.(i) -. w.sl_bounds.(i - 1)

  type target = { slo_quantile : float; slo_limit_us : float }

  let breach_fraction w ~now target =
    let m = live_counts w ~now in
    let n = ref 0 and bad = ref 0 in
    let k = Array.length w.sl_bounds in
    Array.iteri
      (fun b c ->
        n := !n + c;
        (* bucket b spans (bounds.(b-1), bounds.(b)]; it breaches when its
           lower edge is already at or above the limit *)
        let lower = if b = 0 then 0.0 else w.sl_bounds.(b - 1) in
        if b = k || lower >= target.slo_limit_us then bad := !bad + c)
      m;
    if !n = 0 then 0.0 else float_of_int !bad /. float_of_int !n

  let burn_rate w ~now target =
    let budget = (100.0 -. target.slo_quantile) /. 100.0 in
    if budget <= 0.0 then invalid_arg "Slo.burn_rate: quantile must be < 100";
    breach_fraction w ~now target /. budget
end

type metric = C of Counter.t | G of Gauge.t | H of Hist.t

(* ------------------------------------------------------------------ *)
(* Sink: span recorder + metrics registry *)

type sink = {
  recorder : Tx.t;
  metrics : (string, metric) Hashtbl.t;
  mutable metric_order : string list; (* reverse registration order *)
}

type domain = { d_sink : sink; d_id : int; d_name : string }

let create () = { recorder = Tx.create (); metrics = Hashtbl.create 32; metric_order = [] }

let recorder s = s.recorder
let domain s ~name = { d_sink = s; d_id = Tx.domain s.recorder ~name; d_name = name }
let domain_sink d = d.d_sink
let domain_name d = d.d_name
let domain_id d = d.d_id
let name_track d ~tid name = Tx.name_track d.d_sink.recorder ~domain:d.d_id ~tid name

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

let hist s name =
  match Hashtbl.find_opt s.metrics name with
  | Some (H h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Telemetry.hist: %s is not a histogram" name)
  | None ->
    let h = Hist.create () in
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

let json_float = Json.compact_float

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
