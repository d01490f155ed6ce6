(* Tests for Bunshin_util: deterministic RNG, statistics, table rendering. *)

module Rng = Bunshin_util.Rng
module Stats = Bunshin_util.Stats
module Table = Bunshin_util.Table

let check_float = Alcotest.(check (float 1e-9))
let check_close msg eps expected actual = Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let t = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int t 13 in
    Alcotest.(check bool) "in [0,13)" true (v >= 0 && v < 13)
  done

let test_rng_int_in_bounds () =
  let t = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.int_in t (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_rejects_bad_bound () =
  let t = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_rng_float_bounds () =
  let t = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create 10 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.int64 parent) in
  let ys = List.init 32 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "substreams differ" true (xs <> ys)

let test_rng_copy_preserves_state () =
  let a = Rng.create 11 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

let test_rng_uniformity () =
  (* Coarse check: each of 10 buckets receives 10% +- 3%. *)
  let t = Rng.create 12 in
  let buckets = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let b = Rng.int t 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 0.1" true (frac > 0.07 && frac < 0.13))
    buckets

let test_rng_no_modulo_bias () =
  (* Regression: [Rng.int] used a raw [v mod bound] over the 62-bit draw.
     For bound = 3 * 2^60 the partial bucket [0, 2^60) then receives twice
     the mass: P(v < 2^60) = 0.5 instead of 1/3.  Rejection sampling makes
     it uniform; 10k draws put the biased estimator ~25 sigma away, so this
     cannot pass by luck with the old code. *)
  let bound = 3 * 0x1000000000000000 (* 3 * 2^60 *) in
  let cut = 0x1000000000000000 in
  let t = Rng.create 21 in
  let n = 10_000 in
  let low = ref 0 in
  for _ = 1 to n do
    let v = Rng.int t bound in
    Alcotest.(check bool) "in range" true (v >= 0 && v < bound);
    if v < cut then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "low third near 1/3 (got %.3f)" frac)
    true
    (frac > 0.30 && frac < 0.37)

let test_rng_power_of_two_stream_unchanged () =
  (* Power-of-two bounds never reject, so they must draw exactly one raw
     value per call — the historical streams (ASLR pads etc.) are stable. *)
  let a = Rng.create 33 and b = Rng.create 33 in
  for _ = 1 to 100 do
    let x = Rng.int a 16 in
    let raw = Int64.to_int (Int64.logand (Rng.int64 b) (Int64.of_int max_int)) in
    Alcotest.(check int) "one raw draw per call" (raw mod 16) x
  done

(* The raw SplitMix64 streams, pinned: any change to how the state is
   stored or advanced shows here first, not only in downstream goldens.
   Seed 0's first output is the reference SplitMix64 value. *)
let test_rng_streams_pinned () =
  let first8 t = List.init 8 (fun _ -> Rng.int64 t) in
  let check name want t =
    Alcotest.(check (list string)) name
      (List.map (Printf.sprintf "%016Lx") want)
      (List.map (Printf.sprintf "%016Lx") (first8 t))
  in
  check "seed 0"
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL;
      0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ]
    (Rng.create 0);
  check "seed 1"
    [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L; 0xf440fe3b62c79d2cL;
      0x33ba2f29e7c168bbL; 0x98843f48a94b7866L; 0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL ]
    (Rng.create 1);
  check "seed 42"
    [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0x0c4b6b24ef01890eL;
      0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ]
    (Rng.create 42);
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  check "split child of seed 42"
    [ 0x5599b3e06d073327L; 0xd6171d07a31128dfL; 0xed057ba08584c10bL; 0x9ea45beebee33b1cL;
      0xb0d03117ca5e86c7L; 0x1fee6a4909479ccfL; 0xede4bcce07480405L; 0x6b330122e9c444dbL ]
    child;
  check "seed 42 after the split"
    [ 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L;
      0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L; 0xc2bc249e28760ccdL ]
    parent;
  let t = Rng.create 1 in
  ignore (Rng.int64 t);
  ignore (Rng.int64 t);
  let c = Rng.copy t in
  let after_two =
    [ 0x70335fc3daf3d8a7L; 0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
      0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL; 0x509a840d44beedbdL; 0xe1d9d25350c18b44L ]
  in
  check "copy of seed 1 after two draws" after_two c;
  check "seed 1 after the copy" after_two t

let test_rng_exponential_mean () =
  let t = Rng.create 14 in
  let xs = List.init 20000 (fun _ -> Rng.exponential t ~mean:3.0) in
  check_close "mean" 0.15 3.0 (Stats.mean xs)

let test_rng_chance_extremes () =
  let t = Rng.create 15 in
  Alcotest.(check bool) "p=0" false (Rng.chance t 0.0);
  Alcotest.(check bool) "p=1" true (Rng.chance t 1.0)

let test_rng_weighted_choice () =
  let t = Rng.create 16 in
  let counts = Hashtbl.create 3 in
  let bump k =
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  for _ = 1 to 10000 do
    bump (Rng.draw t (Rng.weighted [| ("a", 1.0); ("b", 3.0); ("c", 0.0) |]))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check int) "zero-weight never drawn" 0 (get "c");
  let ratio = float_of_int (get "b") /. float_of_int (get "a") in
  Alcotest.(check bool) "3x ratio approx" true (ratio > 2.5 && ratio < 3.5)

let test_rng_weighted_rejects_bad_weights () =
  (* A NaN weight poisons every later prefix sum ([target < nan] is false),
     so a draw would return the last element every time; a negative weight
     makes an earlier element unreachable.  Both are rejected when the
     table is built. *)
  let rejects name pairs =
    Alcotest.(check bool) name true (Kit.invalid (fun () -> Rng.weighted pairs))
  in
  rejects "nan" [| ("a", 1.0); ("b", nan); ("c", 1.0) |];
  rejects "negative" [| ("a", 2.0); ("b", -1.0); ("c", 1.0) |];
  rejects "infinite" [| ("a", 1.0); ("b", infinity) |];
  rejects "all zero" [| ("a", 0.0); ("b", 0.0) |];
  rejects "empty" [||]

(* [sample] of every element is the shuffle it draws from. *)
let test_rng_shuffle_permutation () =
  let t = Rng.create 17 in
  let arr = Rng.sample t 50 (Array.init 50 Fun.id) in
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_distinct () =
  let t = Rng.create 18 in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample t 10 arr in
  Alcotest.(check int) "size" 10 (Array.length s);
  let uniq = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length uniq)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty" 0.0 (Stats.mean [])

let test_stats_median () =
  check_float "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check_float "p0" 10.0 (Stats.percentile 0.0 xs);
  check_float "p100" 40.0 (Stats.percentile 100.0 xs);
  check_float "p50" 25.0 (Stats.percentile 50.0 xs)

let test_stats_percentiles_agree () =
  (* The single-sort multi-quantile helper must agree exactly with the
     one-rank-at-a-time [percentile] — same rank arithmetic, one sort. *)
  let xs = [ 12.0; 3.5; 99.0; 0.25; 47.0; 47.0; 8.0 ] in
  let ps = [ 0.0; 25.0; 50.0; 90.0; 99.0; 99.9; 100.0 ] in
  let multi = Stats.percentiles (Array.of_list xs) ps in
  List.iter2
    (fun p v -> check_float (Printf.sprintf "p%g" p) (Stats.percentile p xs) v)
    ps multi

let test_stats_percentile_clamped () =
  (* p outside [0,100] used to index out of bounds in [percentile]; both
     helpers must clamp to the extreme order statistics and agree with
     each other on every input, valid or not. *)
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  let ps = [ -10.0; 0.0; 50.0; 100.0; 150.0 ] in
  check_float "p<0 clamps to min" 10.0 (Stats.percentile (-10.0) xs);
  check_float "p>100 clamps to max" 40.0 (Stats.percentile 150.0 xs);
  check_float "singleton out of range" 7.0 (Stats.percentile 200.0 [ 7.0 ]);
  let multi = Stats.percentiles (Array.of_list xs) ps in
  List.iter2
    (fun p v -> check_float (Printf.sprintf "p%g" p) (Stats.percentile p xs) v)
    ps multi

let test_stats_percentiles_edges () =
  Alcotest.(check (list (float 1e-9))) "empty -> zeros" [ 0.0; 0.0 ]
    (Stats.percentiles [||] [ 50.0; 99.0 ]);
  Alcotest.(check (list (float 1e-9))) "singleton" [ 7.0; 7.0 ]
    (Stats.percentiles [| 7.0 |] [ 0.0; 100.0 ]);
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.percentiles a [ 50.0 ]);
  Alcotest.(check (list (float 1e-9))) "input not modified" [ 3.0; 1.0; 2.0 ]
    (Array.to_list a)

let test_stats_overhead () =
  check_float "7% slowdown" 0.07 (Stats.overhead ~baseline:100.0 ~measured:107.0);
  check_float "speedup negative" (-0.5) (Stats.overhead ~baseline:2.0 ~measured:1.0)

let test_stats_pct () = Alcotest.(check string) "render" "47.1%" (Stats.pct 0.471)

let test_stats_minmax () =
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ])

(* Exact structural equality: bucket bounds are never computed, so no
   epsilon is needed, and (=) treats the infinity overflow bound correctly
   where Alcotest's float-epsilon testable would not. *)
let hist =
  Alcotest.testable
    (fun fmt h ->
      Format.fprintf fmt "[%s]"
        (String.concat "; " (List.map (fun (b, c) -> Printf.sprintf "(%g,%d)" b c) h)))
    ( = )

let test_histogram_explicit_buckets () =
  (* A sample lands in the first bucket with x <= bound; boundary values
     belong to their own bucket, not the next. *)
  Alcotest.check hist "bucketing"
    [ (1.0, 2); (2.0, 1); (5.0, 1); (infinity, 1) ]
    (Stats.histogram ~buckets:[ 1.0; 2.0; 5.0 ] [ 0.5; 1.0; 2.0; 3.0; 7.0 ])

let test_histogram_overflow_and_below () =
  Alcotest.check hist "below first and above last"
    [ (10.0, 1); (infinity, 2) ]
    (Stats.histogram ~buckets:[ 10.0 ] [ -5.0; 11.0; 1e9 ])

let test_histogram_unsorted_dup_buckets () =
  (* Bounds are sorted and deduplicated before use. *)
  Alcotest.check hist "normalized bounds"
    [ (1.0, 1); (2.0, 1); (infinity, 0) ]
    (Stats.histogram ~buckets:[ 2.0; 1.0; 2.0 ] [ 0.5; 1.5 ])

let test_histogram_default_buckets () =
  let xs = List.init 100 (fun i -> float_of_int i) in
  let h = Stats.histogram xs in
  Alcotest.(check int) "10 buckets + overflow" 11 (List.length h);
  Alcotest.(check int) "total preserved" 100 (List.fold_left (fun a (_, c) -> a + c) 0 h);
  Alcotest.(check int) "overflow empty" 0 (snd (List.nth h 10))

let test_histogram_empty_and_constant () =
  Alcotest.check hist "empty samples" [ (infinity, 0) ] (Stats.histogram []);
  Alcotest.check hist "constant samples" [ (4.0, 3); (infinity, 0) ]
    (Stats.histogram [ 4.0; 4.0; 4.0 ])

let test_histogram_rejects_bad_buckets () =
  Alcotest.check_raises "empty bucket list"
    (Invalid_argument "Stats.histogram: empty bucket list") (fun () ->
      ignore (Stats.histogram ~buckets:[] [ 1.0 ]));
  Alcotest.check_raises "non-finite bucket"
    (Invalid_argument "Stats.histogram: non-finite bucket") (fun () ->
      ignore (Stats.histogram ~buckets:[ 1.0; infinity ] [ 1.0 ]))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_renders_rows () =
  let t = Table.create ~title:"T" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check bool) "contains alpha" true (Kit.contains s "alpha");
  Alcotest.(check bool) "contains 22" true (Kit.contains s "22")

let test_table_wrong_arity () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_alignment () =
  let t = Table.create [ ("col", Table.Right) ] in
  Table.add_row t [ "1" ];
  Table.add_row t [ "100" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  (* Right-aligned: the short value is padded on the left within its cell. *)
  let row1 = List.nth lines 2 in
  Alcotest.(check string) "padded" "   1 " row1

let test_table_separator () =
  let t = Table.create [ ("a", Table.Left) ] in
  Table.add_row t [ "x" ];
  Table.add_sep t;
  Table.add_row t [ "y" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  Alcotest.(check int) "line count" 6 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng: int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let v = Rng.int t bound in
      v >= 0 && v < bound)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"rng: shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let t = Rng.create seed in
      let arr = Rng.sample t (List.length xs) (Array.of_list xs) in
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let prop_percentile_bounded =
  (* Including out-of-range p: the clamp keeps results inside [min,max]. *)
  QCheck.Test.make ~name:"stats: percentile within min/max" ~count:300
    QCheck.(pair (float_range (-50.0) 150.0) (list_of_size Gen.(1 -- 50) (float_range (-1e3) 1e3)))
    (fun (p, xs) ->
      let v = Stats.percentile p xs in
      v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

let prop_percentiles_agree =
  QCheck.Test.make ~name:"stats: percentiles agrees with percentile" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_range (-1e3) 1e3))
        (list_of_size Gen.(1 -- 8) (float_range (-50.0) 150.0)))
    (fun (xs, ps) ->
      let multi = Stats.percentiles (Array.of_list xs) ps in
      List.for_all2
        (fun p v -> Float.abs (v -. Stats.percentile p xs) <= 1e-9)
        ps multi)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"stats: mean within min/max" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1e3) 1e3))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

(* The linear-scan [weighted_choice] the cumulative table replaced, kept
   verbatim as the reference the table must reproduce draw for draw. *)
let scan_weighted_choice t pairs =
  if Array.length pairs = 0 then invalid_arg "Rng.weighted_choice: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  if total <= 0.0 then invalid_arg "Rng.weighted_choice: weights sum to zero";
  let target = Rng.float t total in
  let rec scan i acc =
    if i = Array.length pairs - 1 then fst pairs.(i)
    else
      let acc = acc +. snd pairs.(i) in
      if target < acc then fst pairs.(i) else scan (i + 1) acc
  in
  scan 0 0.0

(* Three kinds of table:
   - zeros, a few repeated values and arbitrary ones, so ties between
     prefix sums and runs of equal sums both occur;
   - weights from 1e-9 to 1e9 (log-uniform, zeros mixed in), so a huge
     weight swallows the small ones after it and the guide's buckets hold
     anything from no prefix sum to dozens;
   - the SPEC models' tables (Spec.func_weights): one hot item, then
     12-120 items decaying geometrically by 0.92 and normalised to the rest
     of the total. *)
let weights_gen =
  let open QCheck.Gen in
  let mixed =
    list_size (1 -- 150)
      (frequency
         [
           (2, return 0.0);
           (3, oneofl [ 1.0; 0.5; 3.25 ]);
           (5, float_range 0.0 100.0);
         ])
  in
  let wide =
    list_size (1 -- 150)
      (frequency [ (1, return 0.0); (9, map (fun e -> 10.0 ** e) (float_range (-9.0) 9.0)) ])
  in
  let spec =
    map2
      (fun n hot ->
        let raw = List.init (n - 1) (fun i -> 0.92 ** float_of_int i) in
        let total = List.fold_left ( +. ) 0.0 raw in
        hot :: List.map (fun w -> (1.0 -. hot) *. w /. total) raw)
      (12 -- 120) (float_range 0.05 0.99)
  in
  frequency [ (2, mixed); (1, wide); (1, spec) ]

let prop_weighted_draw_matches_scan =
  QCheck.Test.make ~name:"rng: table draw matches linear scan" ~count:300
    QCheck.(pair small_int (make ~print:Print.(list float) weights_gen))
    (fun (seed, ws) ->
      QCheck.assume (List.exists (fun w -> w > 0.0) ws);
      let pairs = Array.of_list (List.mapi (fun i w -> (i, w)) ws) in
      let table = Rng.weighted pairs in
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all (fun _ -> Rng.draw a table = scan_weighted_choice b pairs) (List.init 1000 Fun.id))

let () =
  Alcotest.run "bunshin_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy preserves state" `Quick test_rng_copy_preserves_state;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "no modulo bias" `Quick test_rng_no_modulo_bias;
          Alcotest.test_case "pow2 stream unchanged" `Quick
            test_rng_power_of_two_stream_unchanged;
          Alcotest.test_case "streams pinned" `Quick test_rng_streams_pinned;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "weighted choice" `Quick test_rng_weighted_choice;
          Alcotest.test_case "weighted rejects bad weights" `Quick
            test_rng_weighted_rejects_bad_weights;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentiles agree" `Quick test_stats_percentiles_agree;
          Alcotest.test_case "percentile clamped" `Quick test_stats_percentile_clamped;
          Alcotest.test_case "percentiles edges" `Quick test_stats_percentiles_edges;
          Alcotest.test_case "overhead" `Quick test_stats_overhead;
          Alcotest.test_case "pct" `Quick test_stats_pct;
          Alcotest.test_case "minmax" `Quick test_stats_minmax;
          Alcotest.test_case "histogram explicit buckets" `Quick test_histogram_explicit_buckets;
          Alcotest.test_case "histogram overflow" `Quick test_histogram_overflow_and_below;
          Alcotest.test_case "histogram unsorted buckets" `Quick test_histogram_unsorted_dup_buckets;
          Alcotest.test_case "histogram default buckets" `Quick test_histogram_default_buckets;
          Alcotest.test_case "histogram empty/constant" `Quick test_histogram_empty_and_constant;
          Alcotest.test_case "histogram rejects bad buckets" `Quick test_histogram_rejects_bad_buckets;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders rows" `Quick test_table_renders_rows;
          Alcotest.test_case "wrong arity" `Quick test_table_wrong_arity;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "separator" `Quick test_table_separator;
        ] );
      ( "properties",
        Kit.qcheck
          [
            prop_rng_int_in_range;
            prop_shuffle_preserves_multiset;
            prop_weighted_draw_matches_scan;
            prop_percentile_bounded;
            prop_percentiles_agree;
            prop_mean_between_min_max;
          ] );
    ]
