(* Tests for Bunshin_forensics: flight-recorder tape semantics, majority-vote
   blame attribution, mismatch classification, check-site attribution for
   real sanitizer detections, and the incident JSON round trip. *)

open Bunshin_ir
module B = Builder
module San = Bunshin_sanitizer.Sanitizer
module Inst = Bunshin_sanitizer.Instrument
module Sc = Bunshin_syscall.Syscall
module F = Bunshin_forensics.Forensics
module Nxe = Bunshin_nxe.Nxe
module Bridge = Bunshin_attack.Bridge
module Json = Bunshin_util.Json

let rec_ ?(pos = 0) ?(time = 0.0) name args =
  { F.r_pos = pos; r_name = name; r_args = args; r_time = time }

let issued ?pos ?time name args = F.Issued (rec_ ?pos ?time name args)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_tape_retention () =
  let t = F.Tape.create ~depth:3 in
  Alcotest.(check int) "depth" 3 (F.Tape.depth t);
  for i = 0 to 4 do
    F.Tape.record t ~pos:i ~time:(float_of_int i)
      (Sc.write ~args:[ 1L; Int64.of_int i ] ())
  done;
  Alcotest.(check int) "recorded counts everything" 5 (F.Tape.recorded t);
  let retained = F.Tape.to_list t in
  Alcotest.(check (list int)) "last 3 retained, oldest first" [ 2; 3; 4 ]
    (List.map (fun r -> r.F.r_pos) retained);
  List.iter
    (fun r ->
      Alcotest.(check string) "name kept" "write" r.F.r_name;
      Alcotest.(check (list int64)) "args kept" [ 1L; Int64.of_int r.F.r_pos ]
        r.F.r_args;
      Alcotest.(check (float 0.0)) "time kept" (float_of_int r.F.r_pos) r.F.r_time)
    retained

let test_tape_find () =
  let t = F.Tape.create ~depth:2 in
  for i = 0 to 3 do
    F.Tape.record t ~pos:i ~time:0.0 (Sc.write ~args:[ Int64.of_int i ] ())
  done;
  Alcotest.(check bool) "evicted slot gone" true (F.Tape.find t ~pos:0 = None);
  (match F.Tape.find t ~pos:3 with
   | Some r -> Alcotest.(check (list int64)) "retained slot found" [ 3L ] r.F.r_args
   | None -> Alcotest.fail "slot 3 should be retained")

let test_tape_bad_depth () =
  Alcotest.check_raises "depth 0 rejected"
    (Invalid_argument "Forensics.Tape.create: depth must be >= 1") (fun () ->
      ignore (F.Tape.create ~depth:0))

(* ------------------------------------------------------------------ *)
(* Blame attribution *)

let test_blame_majority_3 () =
  (* Two agree, one differs: the outlier is blamed no matter who was
     flagged by the monitor's first failing comparison. *)
  let votes =
    [| issued "write" [ 1L; 5L ]; issued "write" [ 1L; 5L ]; issued "write" [ 1L; 6L ] |]
  in
  let blamed, basis = F.blame ~votes ~flagged:1 in
  Alcotest.(check int) "outlier blamed" 2 blamed;
  Alcotest.(check bool) "majority of 2" true (basis = F.Majority 2)

let test_blame_majority_5 () =
  let w5 = issued "write" [ 1L; 5L ] and w6 = issued "write" [ 1L; 6L ] in
  let blamed, basis = F.blame ~votes:[| w5; w6; w5; w5; w5 |] ~flagged:1 in
  Alcotest.(check int) "outlier blamed" 1 blamed;
  Alcotest.(check bool) "majority of 4" true (basis = F.Majority 4);
  (* The leader itself can be the outlier: variant 0 went off-script but
     the monitor flags the first follower whose comparison failed. *)
  let blamed, basis = F.blame ~votes:[| w6; w5; w5; w5; w5 |] ~flagged:1 in
  Alcotest.(check int) "leader blamed" 0 blamed;
  Alcotest.(check bool) "majority of 4 again" true (basis = F.Majority 4)

let test_blame_tie_n2 () =
  let votes = [| issued "write" [ 1L; 5L ]; issued "write" [ 1L; 6L ] |] in
  let blamed, basis = F.blame ~votes ~flagged:1 in
  Alcotest.(check int) "flagged variant blamed on tie" 1 blamed;
  Alcotest.(check bool) "tie" true (basis = F.Tie)

let test_blame_pending_abstains () =
  (* A variant that never reached the slot casts no ballot: 1 vs 1 among
     the voters is a tie even with three variants. *)
  let votes = [| issued "write" [ 1L; 5L ]; issued "write" [ 1L; 6L ]; F.Pending |] in
  let blamed, basis = F.blame ~votes ~flagged:1 in
  Alcotest.(check int) "falls back to flagged" 1 blamed;
  Alcotest.(check bool) "tie" true (basis = F.Tie)

let test_classify () =
  let w5 = issued "write" [ 1L; 5L ] in
  Alcotest.(check bool) "same name, different args" true
    (F.classify ~votes:[| w5; issued "write" [ 1L; 6L ] |] ~blamed:1
     = F.Argument_mismatch);
  Alcotest.(check bool) "different syscall" true
    (F.classify ~votes:[| w5; issued "read" [ 3L; 5L ] |] ~blamed:1
     = F.Sequence_mismatch);
  Alcotest.(check bool) "one side exited" true
    (F.classify ~votes:[| w5; F.Exited |] ~blamed:1 = F.Premature_exit)

(* ------------------------------------------------------------------ *)
(* Check-site attribution, against real sanitizer detections *)

let detect_with san m args =
  let inst = Inst.apply_exn [ san ] m in
  let r = Interp.run inst ~entry:"main" ~args in
  match r.Interp.outcome with
  | Interp.Detected d -> (r, d)
  | _ -> Alcotest.fail "expected a sanitizer detection"

let overflow_prog () =
  let b = B.create "of" in
  B.start_func b ~name:"main" ~params:[ "i" ];
  let buf = B.alloca b 4 in
  let p = B.gep b buf (Ast.Reg "i") in
  B.store b (B.cst 1) p;
  B.ret b (Some (B.cst 0));
  B.finish b

let uninit_prog () =
  let b = B.create "uninit" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 1 ] in
  let v = B.load b p in
  B.call_void b "print" [ v ];
  B.ret b None;
  B.finish b

let test_check_site_asan () =
  let _, d = detect_with San.asan (overflow_prog ()) [ 10L ] in
  let cs = F.check_site_of_detection ~variant:1 d in
  Alcotest.(check int) "variant" 1 cs.F.cs_variant;
  Alcotest.(check string) "pass" "asan" cs.F.cs_pass;
  Alcotest.(check string) "handler" "__asan_report_store" cs.F.cs_handler;
  Alcotest.(check string) "func" "main" cs.F.cs_func;
  Alcotest.(check bool) "check id parsed from san.fail.N" true (cs.F.cs_check_id >= 0);
  Alcotest.(check string) "sink block"
    (Printf.sprintf "san.fail.%d" cs.F.cs_check_id)
    cs.F.cs_block

let test_check_site_msan () =
  let _, d = detect_with San.msan (uninit_prog ()) [] in
  let cs = F.check_site_of_detection ~variant:0 d in
  Alcotest.(check string) "pass" "msan" cs.F.cs_pass;
  Alcotest.(check string) "handler" "__msan_report" cs.F.cs_handler;
  Alcotest.(check string) "func" "main" cs.F.cs_func;
  Alcotest.(check bool) "check id parsed" true (cs.F.cs_check_id >= 0)

let test_pass_of_handler () =
  Alcotest.(check string) "asan" "asan" (F.pass_of_handler "__asan_report_load");
  Alcotest.(check string) "msan" "msan" (F.pass_of_handler "__msan_report");
  Alcotest.(check string) "stack cookie" "stackcookie"
    (F.pass_of_handler "__stackcookie_report");
  Alcotest.(check string) "interpreter trap" "ir" (F.pass_of_handler "unreachable");
  Alcotest.(check string) "unknown" "" (F.pass_of_handler "somebody_else");
  Alcotest.(check int) "block id" 7 (F.check_id_of_block "san.fail.7");
  Alcotest.(check int) "non-sink block" (-1) (F.check_id_of_block "entry")

(* ------------------------------------------------------------------ *)
(* Incidents from interpreter runs, filed by the NXE through the bridge *)

let print_prog () =
  let b = B.create "p" in
  B.start_func b ~name:"main" ~params:[ "x" ];
  B.call_void b "print" [ Ast.Reg "x" ];
  B.ret b (Some (B.cst 0));
  B.finish b

let group_incident runs =
  let report = Bridge.run_runs runs in
  Alcotest.(check bool) "incident iff aborted" (report.Nxe.outcome <> `All_finished)
    (report.Nxe.incident <> None);
  report.Nxe.incident

let test_incident_of_identical_runs () =
  let m = print_prog () in
  let r = Interp.run m ~entry:"main" ~args:[ 7L ] in
  Alcotest.(check bool) "no incident" true (group_incident [ r; r ] = None)

let test_incident_of_divergent_runs () =
  let m = print_prog () in
  let r1 = Interp.run m ~entry:"main" ~args:[ 7L ] in
  let r2 = Interp.run m ~entry:"main" ~args:[ 8L ] in
  (* Three variants, one outlier: the monitor blames it by majority. *)
  match group_incident [ r1; r1; r2 ] with
  | None -> Alcotest.fail "streams diverge, incident expected"
  | Some inc ->
    Alcotest.(check int) "divergent slot" 0 inc.F.inc_position;
    Alcotest.(check int) "outlier blamed" 2 inc.F.inc_blamed;
    Alcotest.(check bool) "majority basis" true (inc.F.inc_basis = F.Majority 2);
    Alcotest.(check bool) "argument mismatch" true
      (inc.F.inc_mismatch = F.Argument_mismatch);
    Alcotest.(check int) "one tape per variant" 3 (Array.length inc.F.inc_tapes)

let test_incident_with_detection_join () =
  (* The §5.3 story end to end: the ASan variant issues the report write,
     the unchecked variant does not; the bridge joins the detection in, so
     the 2-variant tie is broken and the check site is attributed. *)
  let m = overflow_prog () in
  let inst = Inst.apply_exn [ San.asan ] m in
  let ra = Interp.run inst ~entry:"main" ~args:[ 10L ] in
  let rb = Interp.run m ~entry:"main" ~args:[ 10L ] in
  (match ra.Interp.outcome with
   | Interp.Detected _ -> ()
   | _ -> Alcotest.fail "asan variant should detect");
  match group_incident [ ra; rb ] with
  | None -> Alcotest.fail "report write diverges the streams"
  | Some inc ->
    Alcotest.(check int) "detecting variant blamed" 0 inc.F.inc_blamed;
    Alcotest.(check bool) "tie broken by detection" true
      (inc.F.inc_basis = F.Tie_broken_by_detection);
    (match inc.F.inc_check_site with
     | Some cs ->
       Alcotest.(check string) "asan attributed" "asan" cs.F.cs_pass;
       Alcotest.(check string) "in main" "main" cs.F.cs_func
     | None -> Alcotest.fail "check site should be attributed");
    let text = F.to_text inc in
    Alcotest.(check bool) "text names the blame" true
      (let re = "blamed: variant 0" in
       let rec find i =
         i + String.length re <= String.length text
         && (String.sub text i (String.length re) = re || find (i + 1))
       in
       find 0)

(* ------------------------------------------------------------------ *)
(* JSON round trip *)

let test_json_roundtrip_extremes () =
  (* Hand-built incident with full-range int64 arguments and every vote
     constructor: the decimal-string encoding must survive the trip. *)
  let votes =
    [|
      issued ~pos:3 ~time:12.5 "write" [ Int64.max_int; Int64.min_int; -1L ];
      F.Exited;
      F.Pending;
    |]
  in
  let tapes =
    [|
      [ rec_ ~pos:2 ~time:1.25 "mmap" [ 4096L ]; rec_ ~pos:3 ~time:12.5 "write" [ 0L ] ];
      [];
      [ rec_ ~pos:0 ~time:0.0 "read" [] ];
    |]
  in
  let inc =
    F.build ~channel:2 ~position:3 ~flagged:1 ~expected:"write(1, 1)"
      ~got:"<exit>" ~time:99.0625 ~votes ~tapes ()
  in
  (match F.of_json (F.to_json inc) with
   | Ok inc' -> Alcotest.(check bool) "round trip equal" true (inc = inc')
   | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (* And with a check site joined in. *)
  let d = { Interp.d_handler = "__msan_report"; d_func = "f"; d_block = "san.fail.2" } in
  let inc = F.refine_with_detections inc [| None; Some d; None |] in
  match F.of_json (F.to_json inc) with
  | Ok inc' -> Alcotest.(check bool) "round trip with site" true (inc = inc')
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let test_json_roundtrip_real () =
  let m = print_prog () in
  let r1 = Interp.run m ~entry:"main" ~args:[ 7L ] in
  let r2 = Interp.run m ~entry:"main" ~args:[ 8L ] in
  match group_incident [ r1; r2 ] with
  | None -> Alcotest.fail "incident expected"
  | Some inc -> (
    match F.of_json (F.to_json inc) with
    | Ok inc' -> Alcotest.(check bool) "round trip equal" true (inc = inc')
    | Error e -> Alcotest.fail ("decode failed: " ^ e))

let test_json_rejects_garbage () =
  Alcotest.(check bool) "not json" true (F.of_json "][" |> Result.is_error);
  Alcotest.(check bool) "wrong shape" true (F.of_json "{\"x\": 1}" |> Result.is_error);
  Alcotest.(check bool) "trailing garbage" true
    (match Json.parse "{} junk" with Error _ -> true | Ok _ -> false)

let test_json_unicode_escapes () =
  let parses doc = match Json.parse doc with Ok v -> Some v | Error _ -> None in
  Alcotest.(check bool) "four hex digits" true (parses {|"\u0041\u004a"|} = Some (Json.Str "AJ"));
  Alcotest.(check bool) "two-byte utf-8" true (parses {|"\u00e9"|} = Some (Json.Str "\xc3\xa9"));
  Alcotest.(check bool) "surrogate pair" true
    (parses {|"\ud83d\ude00"|} = Some (Json.Str "\xf0\x9f\x98\x80"));
  (* [int_of_string] reads "0x0_41" as 0x41: the escape must not. *)
  List.iter
    (fun doc -> Alcotest.(check bool) doc true (parses doc = None))
    [ {|"\u0_41"|}; {|"\u_041"|}; {|"\u+041"|}; {|"\u 041"|}; {|"\u04g1"|}; {|"\u041"|} ]

(* Random JSON values with finite numbers and arbitrary byte strings. *)
let json_gen =
  let open QCheck.Gen in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map (fun f -> if Float.is_finite f then f else 0.5) float;
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) (string_size (int_bound 12));
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 6)) (self (depth - 1)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:1000
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* Documents the repository really emits: an incident, every committed
   bench baseline, and a Chrome trace of a traced group run. *)
let json_seeds =
  lazy
    (let m = print_prog () in
     let r1 = Interp.run m ~entry:"main" ~args:[ 7L ] in
     let r2 = Interp.run m ~entry:"main" ~args:[ 8L ] in
     let incident =
       match (Bridge.run_runs [ r1; r1; r2 ]).Nxe.incident with
       | Some inc -> F.to_json inc
       | None -> Alcotest.fail "incident expected"
     in
     let baselines =
       Sys.readdir ".."
       |> Array.to_list
       |> List.filter (fun f ->
              String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
       |> List.sort compare
       |> List.map (fun f -> In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all)
     in
     if baselines = [] then Alcotest.fail "no BENCH_*.json baseline beside the tests";
     let chrome =
       let sink = Bunshin_telemetry.Telemetry.create () in
       let config = { Nxe.default_config with Nxe.telemetry = Some sink } in
       ignore (Bridge.run_runs ~config [ r1; r1 ]);
       Bunshin_trace_ctx.Trace_ctx.to_chrome_json (Bunshin_telemetry.Telemetry.recorder sink)
     in
     Array.of_list ((incident :: chrome :: baselines)))

let json_alphabet = "{}[]:,\"\\/ u0123456789abcdefABCDEF.eE+-_ntrl\n\t\x00\xc3\xff"

let json_mutant seed =
  let rng = Bunshin_util.Rng.create seed in
  let seeds = Lazy.force json_seeds in
  let b = ref (Bytes.of_string seeds.(Bunshin_util.Rng.int rng (Array.length seeds))) in
  for _ = 1 to Bunshin_util.Rng.int_in rng 1 4 do
    let n = Bytes.length !b in
    let at = Bunshin_util.Rng.int rng (max 1 n) in
    let ch () = json_alphabet.[Bunshin_util.Rng.int rng (String.length json_alphabet)] in
    b :=
      match Bunshin_util.Rng.int rng 4 with
      | 0 when n > 0 -> Bytes.set !b at (ch ()); !b
      | 1 when n > 0 -> Bytes.cat (Bytes.sub !b 0 at) (Bytes.sub !b (at + 1) (n - at - 1))
      | 2 -> Bytes.cat (Bytes.sub !b 0 at) (Bytes.cat (Bytes.make 1 (ch ())) (Bytes.sub !b at (n - at)))
      | _ -> Bytes.sub !b 0 at (* truncate *)
  done;
  Bytes.to_string !b

let prop_json_mutants_never_raise =
  QCheck.Test.make ~name:"parse and of_json never raise on mutants" ~count:2000
    (QCheck.make ~print:json_mutant QCheck.Gen.int)
    (fun seed ->
      let doc = json_mutant seed in
      (match Json.parse doc with Ok _ | Error _ -> ());
      (match F.of_json doc with Ok _ | Error _ -> ());
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bunshin_forensics"
    [
      ( "tape",
        [
          Alcotest.test_case "retention window" `Quick test_tape_retention;
          Alcotest.test_case "find by position" `Quick test_tape_find;
          Alcotest.test_case "bad depth" `Quick test_tape_bad_depth;
        ] );
      ( "blame",
        [
          Alcotest.test_case "majority of 3" `Quick test_blame_majority_3;
          Alcotest.test_case "majority of 5" `Quick test_blame_majority_5;
          Alcotest.test_case "tie at n=2" `Quick test_blame_tie_n2;
          Alcotest.test_case "pending abstains" `Quick test_blame_pending_abstains;
          Alcotest.test_case "mismatch classification" `Quick test_classify;
        ] );
      ( "check-site",
        [
          Alcotest.test_case "asan attribution" `Quick test_check_site_asan;
          Alcotest.test_case "msan attribution" `Quick test_check_site_msan;
          Alcotest.test_case "handler table" `Quick test_pass_of_handler;
        ] );
      ( "incident",
        [
          Alcotest.test_case "identical runs: none" `Quick test_incident_of_identical_runs;
          Alcotest.test_case "divergent runs: majority" `Quick
            test_incident_of_divergent_runs;
          Alcotest.test_case "detection join + text" `Quick test_incident_with_detection_join;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip extremes" `Quick test_json_roundtrip_extremes;
          Alcotest.test_case "round trip real incident" `Quick test_json_roundtrip_real;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          QCheck_alcotest.to_alcotest ~verbose:false prop_json_round_trip;
          QCheck_alcotest.to_alcotest ~verbose:false prop_json_mutants_never_raise;
        ] );
    ]
