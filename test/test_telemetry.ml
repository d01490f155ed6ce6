(* Tests for the telemetry subsystem: the sink's span recorder and its
   Chrome export, metrics, exporters, and — most importantly — that
   attaching a sink never changes what the engine reports. *)

open Bunshin
module Tel = Telemetry

let find_bench name =
  List.find (fun b -> b.Bench.name = name) (Spec.all @ Multithreaded.splash)

(* ------------------------------------------------------------------ *)
(* Minimal recursive-descent JSON syntax checker: enough to prove the
   exporters emit well-formed JSON without a json dependency. *)

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> fail := true
    end
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then
      pos := !pos + String.length lit
    else fail := true
  and number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail := true
  and string_lit () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' ->
        advance ();
        closed := true
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> fail := true
           done
         | _ -> fail := true)
      | Some c ->
        if Char.code c < 0x20 then fail := true;
        advance ()
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let continue = ref true in
      while !continue && not !fail do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
          advance ();
          continue := false
        | _ ->
          fail := true;
          continue := false
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let continue = ref true in
      while !continue && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' ->
          advance ();
          continue := false
        | _ ->
          fail := true;
          continue := false
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

(* ------------------------------------------------------------------ *)
(* The sink's span recorder *)

(* The traceEvents of a Chrome export, parsed. *)
let chrome_events tc =
  match Json.parse (Trace_ctx.to_chrome_json tc) with
  | Ok doc -> (
    match Json.member "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array")
  | Error e -> Alcotest.fail ("Chrome export does not parse: " ^ e)

let field_str k e = match Json.member k e with Some (Json.Str s) -> s | _ -> ""
let field_num k e = match Json.member k e with Some (Json.Num f) -> f | _ -> nan
let field_int k e = int_of_float (field_num k e)
let arg_int k e = match Json.member "args" e with Some a -> field_int k a | None -> min_int
let arg_str k e = match Json.member "args" e with Some a -> field_str k a | None -> ""

let test_span_nesting () =
  let sink = Tel.create () in
  let tc = Tel.recorder sink in
  let d = Tel.domain_id (Tel.domain sink ~name:"test") in
  let outer = Trace_ctx.open_slice tc ~domain:d ~tid:0 ~t0:0.0 "outer" in
  let inner = Trace_ctx.open_slice tc ~domain:d ~tid:0 ~t0:1.0 "inner" in
  Trace_ctx.mark tc ~domain:d ~tid:0 ~variant:(-1) ~key:"k" ~text:"v" ~value:nan ~ts:1.5 "mark";
  Trace_ctx.finish tc inner ~t1:2.0;
  Trace_ctx.finish tc outer ~t1:3.0;
  Alcotest.(check (list int)) "entries carry no trace" [] (Trace_ctx.traces tc);
  let evs = List.filter (fun e -> field_str "ph" e <> "M") (chrome_events tc) in
  Alcotest.(check (list string)) "recording order kept" [ "outer"; "inner"; "mark" ]
    (List.map (field_str "name") evs);
  Alcotest.(check (list string)) "phases" [ "X"; "X"; "i" ] (List.map (field_str "ph") evs);
  Alcotest.(check (list (float 1e-9))) "starts" [ 0.0; 1.0; 1.5 ]
    (List.map (field_num "ts") evs);
  Alcotest.(check (list (float 1e-9))) "inner nests in outer" [ 3.0; 1.0 ]
    (List.filter_map
       (fun e -> if field_str "ph" e = "X" then Some (field_num "dur" e) else None)
       evs);
  Alcotest.(check string) "mark detail" "v" (arg_str "k" (List.nth evs 2))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let str_contains hay ne =
  let nh = String.length hay and nn = String.length ne in
  let rec go i = i + nn <= nh && (String.sub hay i nn = ne || go (i + 1)) in
  go 0

let test_hist_matches_stats () =
  (* The two histogram implementations must agree bucket by bucket. *)
  let buckets = [ 5.0; 1.0; 2.0; 1.0 ] (* unsorted, duplicated *) in
  let samples = [ 0.0; 1.0; 1.5; 2.0; 2.5; 5.0; 99.0; -3.0 ] in
  let sink = Tel.create () in
  let h = Tel.Hist.of_bounds (Tel.Hist.bounds buckets) in
  ignore (Tel.register_hist sink "h" h);
  List.iter (Tel.Hist.observe h) samples;
  Alcotest.(check bool) "same dump" true
    (Tel.Hist.dump h = Stats.histogram ~buckets samples);
  Alcotest.(check int) "count" (List.length samples) (Tel.Hist.count h);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean samples) (Tel.Hist.mean h);
  Alcotest.(check bool) "min and max exported" true
    (str_contains (Tel.metrics_to_text sink) "min -3  max 99\n");
  Alcotest.(check (float 1e-9)) "max" 99.0 (Tel.Hist.max_value h)

let test_hist_empty () =
  let h = Tel.Hist.create () in
  Alcotest.(check int) "count 0" 0 (Tel.Hist.count h);
  Alcotest.(check (float 1e-9)) "mean 0" 0.0 (Tel.Hist.mean h);
  Alcotest.(check bool) "all buckets empty" true
    (List.for_all (fun (_, c) -> c = 0) (Tel.Hist.dump h))

(* Hist.bounds and Stats.histogram share one bucket normaliser, so they
   reject the same bucket lists with the same exception. *)
let test_hist_rejects_bad_buckets () =
  List.iter
    (fun (name, buckets) ->
      let raised f = match f () with _ -> None | exception Invalid_argument m -> Some m in
      let hist = raised (fun () -> ignore (Tel.Hist.bounds buckets)) in
      let stats = raised (fun () -> ignore (Stats.histogram ~buckets [])) in
      Alcotest.(check bool) (name ^ " rejected") true (hist <> None);
      Alcotest.(check (option string)) (name ^ " same message") stats hist)
    [
      ("empty", []);
      ("nan", [ 1.0; Float.nan ]);
      ("infinity", [ infinity; 2.0 ]);
      ("neg_infinity", [ neg_infinity ]);
    ]

let test_registry () =
  let sink = Tel.create () in
  let c = Tel.counter sink "hits" in
  Tel.Counter.incr c;
  Tel.Counter.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Tel.Counter.value c);
  Alcotest.(check int) "get-or-create shares state" 5
    (Tel.Counter.value (Tel.counter sink "hits"));
  let g = Tel.gauge sink "level" in
  Tel.Gauge.set g 3.0;
  Tel.Gauge.set g 1.0;
  Alcotest.(check (float 1e-9)) "gauge last" 1.0 (Tel.Gauge.last g);
  Alcotest.(check (float 1e-9)) "gauge max" 3.0 (Tel.Gauge.max_value g);
  Alcotest.(check int) "gauge samples" 2 (Tel.Gauge.samples g);
  Alcotest.(check bool) "kind mismatch rejected" true
    (Kit.invalid (fun () -> Tel.gauge sink "hits"));
  let h1 = Tel.Hist.create () in
  let h2 = Tel.Hist.create () in
  Alcotest.(check string) "first name" "h" (Tel.register_hist sink "h" h1);
  Alcotest.(check string) "collision suffixed" "h#2" (Tel.register_hist sink "h" h2)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let traced_session () =
  let sink = Tel.create () in
  let config = { Nxe.default_config with Nxe.telemetry = Some sink } in
  let bench = find_bench "bzip2" in
  let builds = [ Program.baseline bench.Bench.prog; Program.baseline bench.Bench.prog ] in
  let r = Experiments.nxe_run ~config ~seed:Experiments.ref_seed builds in
  (sink, r)

let test_chrome_json_valid () =
  let sink, _ = traced_session () in
  let s = Trace_ctx.to_chrome_json (Tel.recorder sink) in
  Alcotest.(check bool) "trace JSON parses" true (json_valid s);
  Alcotest.(check bool) "metrics JSON parses" true (json_valid (Tel.metrics_to_json sink))

let test_trace_covers_layers () =
  let sink, _ = traced_session () in
  let cats =
    List.sort_uniq compare (List.map (field_str "cat") (chrome_events (Tel.recorder sink)))
  in
  Alcotest.(check bool) "machine entries present" true (List.mem "machine" cats);
  Alcotest.(check bool) "nxe entries present" true (List.mem "nxe" cats);
  Alcotest.(check bool) "causal spans present" true (List.mem "span" cats);
  Alcotest.(check bool) "publishes counted" true
    (Tel.Counter.value (Tel.counter sink "nxe.slot_publish") > 0);
  Alcotest.(check bool) "text dump mentions hists" true
    (let txt = Tel.metrics_to_text sink in
     String.length txt > 0
     && Kit.contains txt "nxe.syscall_gap"
     && Kit.contains txt "nxe.lockstep_wait_us")

let test_interp_domain () =
  let sink = Tel.create () in
  let config = { Nxe.default_config with Nxe.telemetry = Some sink } in
  let case = List.hd Cve.cases in
  let inst = Instrument.apply_exn [ Sanitizer.asan ] case.Cve.c_modul in
  let r =
    Bridge.run_ir_variants ~config ~entry:case.Cve.c_entry ~args:case.Cve.c_benign
      [ inst; inst ]
  in
  Alcotest.(check bool) "benign run clean" true (r.Nxe.outcome = `All_finished);
  Alcotest.(check bool) "interp calls present" true
    (List.exists
       (fun e -> field_str "cat" e = "interp:v0" && field_str "ph" e = "X")
       (chrome_events (Tel.recorder sink)));
  Alcotest.(check bool) "check hits counted" true
    (Tel.Counter.value (Tel.counter sink "interp:v0.check_hits") > 0)

let str_index hay ne =
  let nh = String.length hay and nn = String.length ne in
  let rec go i =
    if i + nn > nh then -1 else if String.sub hay i nn = ne then i else go (i + 1)
  in
  go 0

(* Every per-variant NXE lane must carry a Chrome `M` (metadata) event
   naming it "<channel> v<N>" — without these, chrome://tracing shows
   anonymous tid numbers and the per-variant decomposition is unreadable. *)
let test_variant_lanes_named () =
  let sink, _ = traced_session () in
  let chrome = Trace_ctx.to_chrome_json (Tel.recorder sink) in
  Alcotest.(check bool) "has thread_name metadata" true
    (str_contains chrome "{\"name\":\"thread_name\",\"ph\":\"M\"");
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "lane for variant %d labeled" v) true
        (str_contains chrome (Printf.sprintf " v%d\"}}" v)))
    [ 0; 1 ]

(* The three stages of [bunshin trace bzip2 -n 3 --nodes 3] — local NXE,
   a 3-node cluster and an IR run — recorded into one sink: the Chrome
   file must parse, name its processes and every track that holds an
   event, keep complete events nested per track, and put each causal tree
   on its own async id with every span inside its parent. *)
let test_chrome_structure () =
  let sink = Tel.create () in
  let config = { Nxe.default_config with Nxe.telemetry = Some sink } in
  let prog = (find_bench "bzip2").Bench.prog in
  let n = 3 in
  ignore
    (Experiments.nxe_run ~config ~seed:Experiments.ref_seed
       (List.init n (fun _ -> Program.baseline prog)));
  let trace = Program.build_trace (Program.baseline prog) ~seed:Experiments.ref_seed in
  ignore
    (Cluster.run_traces ~config:{ Cluster.default_config with nodes = 3 } ~engine:config
       ~names:(Kit.names n)
       (List.init n (fun _ -> trace)));
  let case = List.hd Cve.cases in
  let inst = Instrument.apply_exn [ Sanitizer.asan ] case.Cve.c_modul in
  ignore
    (Bridge.run_ir_variants ~config ~entry:case.Cve.c_entry ~args:case.Cve.c_benign
       [ inst; inst ]);
  let tc = Tel.recorder sink in
  Alcotest.(check int) "nothing dropped" 0 (Trace_ctx.dropped tc);
  let evs = chrome_events tc in
  let ph e = field_str "ph" e in
  let meta kind = List.filter (fun e -> ph e = "M" && field_str "name" e = kind) evs in
  let procs = List.map (fun e -> (field_int "pid" e, arg_str "name" e)) (meta "process_name") in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("process " ^ name ^ " named") true
        (List.exists (fun (_, n) -> n = name) procs))
    [ "machine"; "nxe"; "interp:v0"; "interp:v1"; "spans" ];
  let tracks = List.map (fun e -> (field_int "pid" e, field_int "tid" e)) (meta "thread_name") in
  let body = List.filter (fun e -> ph e <> "M") evs in
  List.iter
    (fun e ->
      let track = (field_int "pid" e, field_int "tid" e) in
      if not (List.mem track tracks) then
        Alcotest.failf "%s on unnamed track %d/%d" (field_str "name" e) (fst track) (snd track))
    body;
  let eps = 1e-6 in
  (* Complete events, per track: sorted by start (longest first), each
     must end before the innermost open one does, or start after it. *)
  let by_track = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if ph e = "X" then begin
        let k = (field_int "pid" e, field_int "tid" e) in
        let t0 = field_num "ts" e in
        Hashtbl.replace by_track k
          ((t0, t0 +. field_num "dur" e)
          :: Option.value ~default:[] (Hashtbl.find_opt by_track k))
      end)
    body;
  Hashtbl.iter
    (fun (pid, tid) ivs ->
      let sorted = List.sort (fun (a0, a1) (b0, b1) -> compare (a0, -.a1) (b0, -.b1)) ivs in
      ignore
        (List.fold_left
           (fun stack (t0, t1) ->
             let rec pop = function e :: rest when e <= t0 +. eps -> pop rest | s -> s in
             match pop stack with
             | e :: _ when t1 > e +. eps ->
               Alcotest.failf "track %d/%d: [%g, %g] overlaps a span ending at %g" pid tid t0
                 t1 e
             | st -> t1 :: st)
           [] sorted))
    by_track;
  (* Async pairs: one b and one e per span, each span inside its parent. *)
  let opened = Hashtbl.create 256 and closed = Hashtbl.create 256 in
  List.iter
    (fun e ->
      let span = arg_int "span" e in
      match ph e with
      | "b" ->
        if Hashtbl.mem opened span then Alcotest.failf "span %d begins twice" span;
        Hashtbl.replace opened span
          (field_int "id" e, arg_int "parent" e, field_num "ts" e, field_str "name" e)
      | "e" ->
        if Hashtbl.mem closed span then Alcotest.failf "span %d ends twice" span;
        Hashtbl.replace closed span (field_int "id" e, field_num "ts" e)
      | _ -> ())
    body;
  Alcotest.(check int) "b/e balance" (Hashtbl.length opened) (Hashtbl.length closed);
  let interval span =
    match (Hashtbl.find_opt opened span, Hashtbl.find_opt closed span) with
    | Some (id, _, t0, _), Some (id', t1) when id = id' && t1 +. eps >= t0 -> (id, t0, t1)
    | _ -> Alcotest.failf "span %d: no matching b/e on one id" span
  in
  Hashtbl.iter
    (fun span (id, parent, _, _) ->
      let _, t0, t1 = interval span in
      if Hashtbl.mem opened parent then begin
        let pid, p0, p1 = interval parent in
        if pid <> id || t0 +. eps < p0 || t1 > p1 +. eps then
          Alcotest.failf "span %d [%g, %g] of id %d outside parent %d [%g, %g] of id %d" span
            t0 t1 id parent p0 p1 pid
      end)
    opened;
  let roots =
    Hashtbl.fold
      (fun _ (_, parent, _, name) n -> if parent < 0 && name = "rendezvous" then n + 1 else n)
      opened 0
  in
  let closed_roots =
    List.length
      (List.filter
         (fun sp ->
           sp.Trace_ctx.sp_kind = Trace_ctx.Rendezvous && Float.is_finite sp.Trace_ctx.sp_t1)
         (Trace_ctx.spans tc))
  in
  Alcotest.(check bool) "rendezvous recorded" true (closed_roots > 0);
  Alcotest.(check int) "each closed root exported once" closed_roots roots

(* Metric keys export in sorted order regardless of registration order, so
   two runs whose code paths registered metrics differently still diff
   cleanly. *)
let test_metrics_sorted () =
  let sink = Tel.create () in
  ignore (Tel.counter sink "zeta");
  ignore (Tel.counter sink "alpha");
  ignore (Tel.counter sink "beta.sub");
  let js = Tel.metrics_to_json sink in
  Alcotest.(check bool) "counters pinned sorted" true
    (str_contains js "\"counters\":{\"alpha\":0,\"beta.sub\":0,\"zeta\":0}");
  let txt = Tel.metrics_to_text sink in
  let ia = str_index txt "alpha" and ib = str_index txt "beta.sub" and iz = str_index txt "zeta" in
  Alcotest.(check bool) "text order sorted" true (ia >= 0 && ia < ib && ib < iz)

(* ------------------------------------------------------------------ *)
(* Behavior neutrality: a sink must never change the engine's report. *)

let test_disabled_sink_identical_report () =
  List.iter
    (fun name ->
      let bench = find_bench name in
      let builds =
        [ Program.baseline bench.Bench.prog; Program.baseline bench.Bench.prog ]
      in
      let bare = Experiments.nxe_run ~seed:Experiments.ref_seed builds in
      let traced =
        Experiments.nxe_run
          ~config:{ Nxe.default_config with Nxe.telemetry = Some (Tel.create ()) }
          ~seed:Experiments.ref_seed builds
      in
      Alcotest.(check bool)
        (name ^ ": report identical with sink attached")
        true (bare = traced))
    [ "bzip2"; "barnes" ]

let test_report_histograms_always_on () =
  let _, r = traced_session () in
  let bare =
    let bench = find_bench "bzip2" in
    Experiments.nxe_run ~seed:Experiments.ref_seed
      [ Program.baseline bench.Bench.prog; Program.baseline bench.Bench.prog ]
  in
  Alcotest.(check (list string)) "all histograms present"
    [ "syscall_gap"; "lockstep_wait_us"; "heartbeat_wait_us" ]
    (List.map fst bare.Nxe.histograms);
  let total h = List.fold_left (fun a (_, c) -> a + c) 0 h in
  Alcotest.(check bool) "gap samples recorded" true
    (total (List.assoc "syscall_gap" bare.Nxe.histograms) > 0);
  Alcotest.(check bool) "same with sink" true (bare.Nxe.histograms = r.Nxe.histograms)

(* ------------------------------------------------------------------ *)
(* Windowed SLO monitor *)

module Slo = Tel.Slo

let test_slo_count_and_rotation () =
  let w = Slo.window ~sub_windows:4 ~sub_us:100.0 () in
  Alcotest.(check (float 1e-9)) "span" 400.0 (Slo.span_us w);
  Slo.observe w ~now:50.0 5.0;
  Slo.observe w ~now:50.0 1e6;
  Slo.observe w ~now:150.0 5.0;
  Alcotest.(check int) "all inside" 3 (Slo.count w ~now:150.0);
  (* Advancing recycles whole sub-windows in place, overflow bucket
     included: at now=450 the sub-window holding the samples from t=50
     has rotated out. *)
  Alcotest.(check int) "oldest sub-window expired" 1 (Slo.count w ~now:450.0);
  Alcotest.(check int) "all expired" 0 (Slo.count w ~now:900.0);
  Alcotest.(check (float 1e-9)) "empty quantile is 0" 0.0
    (Slo.quantile w ~now:900.0 99.0)

let test_slo_quantile_agrees_with_stats () =
  (* The pinned agreement bound: a live windowed quantile may sit at most
     one log-bucket width above the exact sample quantile. *)
  let w = Slo.window ~sub_windows:8 ~sub_us:1000.0 () in
  let samples =
    List.init 200 (fun i -> 1.0 +. (float_of_int ((i * 37) mod 997) *. 5.0))
  in
  List.iteri (fun i x -> Slo.observe w ~now:(float_of_int i *. 10.0) x) samples;
  let now = 2000.0 in
  List.iter
    (fun p ->
      let live = Slo.quantile w ~now p in
      let exact = Stats.percentile p samples in
      Alcotest.(check bool)
        (Printf.sprintf "p%g live %.2f within a bucket of exact %.2f" p live exact)
        true
        (Float.abs (live -. exact)
         <= Slo.bucket_width_at w (Float.max live exact)))
    [ 50.0; 90.0; 99.0; 99.9 ];
  Alcotest.(check int) "all samples live" 200 (Slo.count w ~now);
  (* [quantiles] is just the mapped form. *)
  Alcotest.(check (list (float 1e-9)))
    "quantiles = map quantile"
    [ Slo.quantile w ~now 50.0; Slo.quantile w ~now 99.0 ]
    (Slo.quantiles w ~now [ 50.0; 99.0 ])

let test_slo_breach_and_burn () =
  let w = Slo.window ~sub_windows:2 ~sub_us:1000.0 () in
  (* 90 good samples in the (2,5] bucket, 10 bad ones in (20,50] — with
     a 10 µs limit only the bad bucket lies wholly above it. *)
  for i = 0 to 89 do
    Slo.observe w ~now:(float_of_int i) 5.0
  done;
  for i = 90 to 99 do
    Slo.observe w ~now:(float_of_int i) 50.0
  done;
  let target = { Slo.slo_quantile = 99.0; slo_limit_us = 10.0 } in
  Alcotest.(check (float 1e-9)) "breach fraction" 0.1
    (Slo.breach_fraction w ~now:100.0 target);
  Alcotest.(check (float 1e-9)) "burn rate = breach / error budget" 10.0
    (Slo.burn_rate w ~now:100.0 target);
  let tight = { Slo.slo_quantile = 99.0; slo_limit_us = 1000.0 } in
  Alcotest.(check (float 1e-9)) "no breach, no burn" 0.0
    (Slo.burn_rate w ~now:100.0 tight)

(* An oracle for the bucketed estimators, on samples of which a third sit
   exactly on a bucket bound (a bound belongs to its own bucket) and some
   lie past the last bound.  Bucket [b] spans (bounds.(b-1), bounds.(b)]. *)
let oracle_samples () =
  (* [Hist.create]'s and [Slo.window]'s default buckets. *)
  let bounds =
    [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000. |]
  in
  let k = Array.length bounds in
  let rng = Rng.create 11 in
  let samples =
    List.init 301 (fun i ->
        if i mod 3 = 0 then bounds.(i / 3 mod k) else Rng.float rng (2.0 *. bounds.(k - 1)))
  in
  let bucket x =
    let rec go b = if b < k && x > bounds.(b) then go (b + 1) else b in
    go 0
  in
  (bounds, samples, bucket)

(* Both quantile estimators name the bucket of the rank-[p] sample, the
   sorted sample at index ceil(p/100 * (n-1)): its bucket's upper bound,
   or the largest sample when that bucket is the overflow.  Every rank is
   asked for. *)
let test_quantile_rank_oracle () =
  let bounds, samples, bucket = oracle_samples () in
  let k = Array.length bounds in
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  let h = Tel.Hist.create () and w = Slo.window () in
  List.iter
    (fun x ->
      Tel.Hist.observe h x;
      Slo.observe w ~now:0.0 x)
    samples;
  for r = 0 to n - 1 do
    let p = 100.0 *. float_of_int r /. float_of_int (n - 1) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int (n - 1))) in
    let b = bucket sorted.(rank) in
    let want = if b < k then bounds.(b) else sorted.(n - 1) in
    Alcotest.(check (float 0.0)) (Printf.sprintf "hist p%g" p) want (Tel.Hist.quantile h p);
    Alcotest.(check (float 0.0)) (Printf.sprintf "slo p%g" p) want (Slo.quantile w ~now:0.0 p)
  done

(* A sample breaches when its whole bucket lies at or above the limit, or
   when it overflows the last bound; limits on and between bounds. *)
let test_breach_edge_oracle () =
  let bounds, samples, bucket = oracle_samples () in
  let k = Array.length bounds in
  let w = Slo.window () in
  List.iter (Slo.observe w ~now:0.0) samples;
  let breaches limit x =
    let b = bucket x in
    b = k || (if b = 0 then 0.0 else bounds.(b - 1)) >= limit
  in
  List.iter
    (fun limit ->
      let bad = List.length (List.filter (breaches limit) samples) in
      let want = float_of_int bad /. float_of_int (List.length samples) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "limit %g" limit)
        want
        (Slo.breach_fraction w ~now:0.0 { Slo.slo_quantile = 99.0; slo_limit_us = limit }))
    (Array.to_list bounds @ [ 0.5; 3.0; 700.0; 20000.0 ])

let test_slo_validation () =
  Alcotest.(check bool) "zero sub-windows rejected" true
    (Kit.invalid (fun () -> Slo.window ~sub_windows:0 ()));
  Alcotest.(check bool) "zero sub-window span rejected" true
    (Kit.invalid (fun () -> Slo.window ~sub_us:0.0 ()))

let test_prometheus_format () =
  let sink = Tel.create () in
  Tel.Counter.incr ~by:3 (Tel.counter sink "net.bytes_sent");
  Tel.Gauge.set (Tel.gauge sink "slo.p99-us") 2.5;
  let h = Tel.hist sink "lat" in
  Tel.Hist.observe h 0.5;
  Tel.Hist.observe h 5.0;
  Tel.Hist.observe h 50.0;
  let out = Tel.metrics_to_prometheus sink in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (Kit.contains out needle))
    [
      (* names sanitized to [a-zA-Z0-9_:] *)
      "# TYPE net_bytes_sent counter\nnet_bytes_sent 3\n";
      "# TYPE slo_p99_us gauge\nslo_p99_us 2.5\n";
      "# TYPE lat histogram\n";
      (* cumulative buckets with the implicit +Inf overflow *)
      "lat_bucket{le=\"1\"} 1\n";
      "lat_bucket{le=\"10\"} 2\n";
      "lat_bucket{le=\"+Inf\"} 3\n";
      "lat_sum 55.5\n";
      "lat_count 3\n";
    ]

let () =
  Alcotest.run "bunshin_telemetry"
    [
      ( "ring",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hist matches Stats.histogram" `Quick test_hist_matches_stats;
          Alcotest.test_case "hist empty" `Quick test_hist_empty;
          Alcotest.test_case "hist rejects bad buckets" `Quick test_hist_rejects_bad_buckets;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json valid" `Quick test_chrome_json_valid;
          Alcotest.test_case "trace covers layers" `Quick test_trace_covers_layers;
          Alcotest.test_case "interp domain" `Quick test_interp_domain;
          Alcotest.test_case "variant lanes named" `Quick test_variant_lanes_named;
          Alcotest.test_case "chrome file structure" `Quick test_chrome_structure;
          Alcotest.test_case "metrics keys sorted" `Quick test_metrics_sorted;
        ] );
      ( "slo",
        [
          Alcotest.test_case "count and rotation" `Quick test_slo_count_and_rotation;
          Alcotest.test_case "quantile agrees with stats" `Quick
            test_slo_quantile_agrees_with_stats;
          Alcotest.test_case "breach and burn" `Quick test_slo_breach_and_burn;
          Alcotest.test_case "validation" `Quick test_slo_validation;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "quantile rank oracle" `Quick test_quantile_rank_oracle;
          Alcotest.test_case "breach edge oracle" `Quick test_breach_edge_oracle;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "disabled sink identical report" `Quick
            test_disabled_sink_identical_report;
          Alcotest.test_case "report histograms always on" `Quick
            test_report_histograms_always_on;
        ] );
    ]
