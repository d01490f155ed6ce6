(* Tests for Bunshin_partition: LPT, Karmarkar-Karp, exact, local search. *)

module P = Bunshin_partition.Partition

let items_of weights = List.mapi (fun i w -> { P.label = Printf.sprintf "u%d" i; weight = w }) weights

let test_lpt_basic () =
  let r = P.lpt 2 (items_of [ 8.0; 7.0; 6.0; 5.0; 4.0 ]) in
  (* LPT: 8+5+4=17 vs 7+6=13... actually 8,7 -> bins; 6->13; 5->13+... *)
  Alcotest.(check bool) "valid" true (P.valid (items_of [ 8.0; 7.0; 6.0; 5.0; 4.0 ]) r);
  Alcotest.(check (float 1e-9)) "total preserved" 30.0 (r.P.loads.(0) +. r.P.loads.(1));
  Alcotest.(check bool) "reasonable makespan" true (P.makespan r <= 17.0)

(* LPT puts each item in the lightest bin, ties to the lowest index. *)
let test_lpt_tie_rule () =
  let labels r = Array.to_list (Array.map (List.map (fun i -> i.P.label)) r.P.bins) in
  Alcotest.(check (list (list string)))
    "equal items" [ [ "u0" ]; [ "u1" ]; [ "u2" ] ]
    (labels (P.lpt 3 (items_of [ 5.0; 5.0; 5.0 ])));
  Alcotest.(check (list (list string)))
    "tied loads" [ [ "u0"; "u3" ]; [ "u1"; "u2" ] ]
    (labels (P.lpt 2 (items_of [ 6.0; 4.0; 2.0; 2.0 ])))

let test_round_robin () =
  let items = items_of [ 1.0; 2.0; 3.0; 4.0 ] in
  let r = P.round_robin 2 items in
  Alcotest.(check bool) "valid" true (P.valid items r);
  Alcotest.(check (float 1e-9)) "bin0 = 1+3" 4.0 r.P.loads.(0);
  Alcotest.(check (float 1e-9)) "bin1 = 2+4" 6.0 r.P.loads.(1)

let test_kk_perfect_split () =
  (* 4,5,6,7,8 into 2: optimal makespan 15.  Pure differencing lands on 16
     here (it is a heuristic); the production `best` closes the gap with a
     swap in its local-search pass. *)
  let items = items_of [ 4.0; 5.0; 6.0; 7.0; 8.0 ] in
  let kk = P.karmarkar_karp 2 items in
  Alcotest.(check bool) "valid" true (P.valid items kk);
  Alcotest.(check bool) "kk near-optimal" true (P.makespan kk <= 16.0 +. 1e-9);
  let b = P.best 2 items in
  Alcotest.(check bool) "best valid" true (P.valid items b);
  Alcotest.(check (float 1e-9)) "best optimal" 15.0 (P.makespan b)

let test_kk_beats_lpt_on_classic_instance () =
  (* Classic example where greedy is suboptimal: {8,7,6,5,4} 2-way is fine,
     use {5,5,4,4,3,3,3,3} 2-way: total 30, optimal 15. *)
  let items = items_of [ 5.0; 5.0; 4.0; 4.0; 3.0; 3.0; 3.0; 3.0 ] in
  let kk = P.karmarkar_karp 2 items in
  Alcotest.(check (float 1e-9)) "kk optimal" 15.0 (P.makespan kk)

let test_exact_small () =
  let items = items_of [ 3.0; 3.0; 2.0; 2.0; 2.0 ] in
  let r = P.exact 2 items in
  Alcotest.(check bool) "valid" true (P.valid items r);
  Alcotest.(check (float 1e-9)) "optimal 6" 6.0 (P.makespan r)

let test_exact_three_way () =
  let items = items_of [ 9.0; 8.0; 7.0; 6.0; 5.0; 4.0; 3.0 ] in
  let r = P.exact 3 items in
  Alcotest.(check bool) "valid" true (P.valid items r);
  (* total 42, perfect would be 14: 9+5, 8+6, 7+4+3. *)
  Alcotest.(check (float 1e-9)) "optimal 14" 14.0 (P.makespan r)

let test_exact_guard () =
  Alcotest.(check bool) "too many items rejected" true
    (try
       ignore (P.exact 2 (items_of (List.init 25 (fun i -> float_of_int i))));
       false
     with Invalid_argument _ -> true)

let test_best_never_worse_than_lpt () =
  let items = items_of [ 10.0; 9.0; 8.0; 7.0; 6.0; 5.0; 4.0; 3.0; 2.0; 1.0 ] in
  let b = P.best 3 items in
  let g = P.lpt 3 items in
  Alcotest.(check bool) "best <= lpt" true (P.makespan b <= P.makespan g +. 1e-9)

let test_imbalance_zero_when_even () =
  let items = items_of [ 5.0; 5.0; 5.0; 5.0 ] in
  let r = P.best 2 items in
  Alcotest.(check (float 1e-9)) "balanced" 0.0 (P.imbalance r)

(* Regression: [imbalance] is the MEAN absolute deviation of bin loads.
   It used to return the raw deviation sum, which grows with the bin
   count even for equally-shaped splits and made values incomparable
   across bin counts (the bench table leaned on that comparison). *)
let test_imbalance_is_mean_absolute_deviation () =
  let mk loads =
    {
      P.bins = Array.of_list (List.map (fun w -> [ { P.label = "u"; weight = w } ]) loads);
      P.loads = Array.of_list loads;
    }
  in
  (* loads 1,3,8: avg 4, |dev| sum = 3 + 1 + 4 = 8, normalized by n = 3. *)
  Alcotest.(check (float 1e-9)) "mad/n" (8.0 /. 3.0) (P.imbalance (mk [ 1.0; 3.0; 8.0 ]));
  (* Same skew shape replicated across twice the bins: identical value.
     The old raw sum gave 10 vs 20 here. *)
  Alcotest.(check (float 1e-9))
    "comparable across bin counts"
    (P.imbalance (mk [ 0.0; 10.0 ]))
    (P.imbalance (mk [ 0.0; 10.0; 0.0; 10.0 ]));
  Alcotest.(check (float 1e-9)) "no bins" 0.0 (P.imbalance (mk []))

let test_empty_items () =
  let r = P.best 3 [] in
  Alcotest.(check bool) "valid" true (P.valid [] r);
  Alcotest.(check (float 1e-9)) "zero" 0.0 (P.makespan r)

let test_single_bin () =
  let items = items_of [ 1.0; 2.0; 3.0 ] in
  let r = P.best 1 items in
  Alcotest.(check (float 1e-9)) "everything in one" 6.0 (P.makespan r)

let test_more_bins_than_items () =
  let items = items_of [ 2.0; 1.0 ] in
  let r = P.best 4 items in
  Alcotest.(check bool) "valid" true (P.valid items r);
  Alcotest.(check (float 1e-9)) "makespan = max item" 2.0 (P.makespan r)

let test_hot_function_outlier () =
  (* The hmmer/lbm case: one unit dominates, distribution cannot help —
     makespan stays ~= the hot weight (§5.4 outliers). *)
  let items = items_of [ 95.0; 1.0; 1.0; 1.0; 1.0; 1.0 ] in
  let r = P.best 3 items in
  Alcotest.(check (float 1e-9)) "hot unit bounds makespan" 95.0 (P.makespan r)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_weights = QCheck.(list_of_size Gen.(1 -- 30) (float_range 0.1 100.0))

let prop_valid algo_name algo =
  QCheck.Test.make ~name:(algo_name ^ ": partition is a partition") ~count:200
    QCheck.(pair (int_range 1 6) gen_weights)
    (fun (n, ws) ->
      let items = items_of ws in
      P.valid items (algo n items))

let prop_makespan_lower_bound algo_name algo =
  QCheck.Test.make ~name:(algo_name ^ ": makespan >= total/n and >= max") ~count:200
    QCheck.(pair (int_range 1 6) gen_weights)
    (fun (n, ws) ->
      let items = items_of ws in
      let r = algo n items in
      let total = List.fold_left ( +. ) 0.0 ws in
      let mx = List.fold_left Float.max 0.0 ws in
      P.makespan r +. 1e-6 >= total /. float_of_int n && P.makespan r +. 1e-6 >= mx)

let prop_kk_le_lpt_often =
  (* Guaranteed by construction: best picks the better of polished-KK and
     LPT.  (Round-robin can get lucky on adversarial multisets, so it is
     not a valid upper bound.) *)
  QCheck.Test.make ~name:"best: never worse than lpt" ~count:200
    QCheck.(pair (int_range 2 4) gen_weights)
    (fun (n, ws) ->
      let items = items_of ws in
      P.makespan (P.best n items) <= P.makespan (P.lpt n items) +. 1e-6)

let prop_best_matches_exact_small =
  QCheck.Test.make ~name:"best: within 15% of exact on small instances" ~count:60
    QCheck.(pair (int_range 2 3) (list_of_size Gen.(2 -- 10) (float_range 1.0 50.0)))
    (fun (n, ws) ->
      let items = items_of ws in
      let b = P.makespan (P.best n items) in
      let e = P.makespan (P.exact n items) in
      b <= (e *. 1.15) +. 1e-6)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "bunshin_partition"
    [
      ( "algorithms",
        [
          Alcotest.test_case "lpt basic" `Quick test_lpt_basic;
          Alcotest.test_case "round robin" `Quick test_round_robin;
          Alcotest.test_case "kk perfect split" `Quick test_kk_perfect_split;
          Alcotest.test_case "kk classic instance" `Quick test_kk_beats_lpt_on_classic_instance;
          Alcotest.test_case "exact small" `Quick test_exact_small;
          Alcotest.test_case "exact 3-way" `Quick test_exact_three_way;
          Alcotest.test_case "exact guard" `Quick test_exact_guard;
          Alcotest.test_case "best <= lpt" `Quick test_best_never_worse_than_lpt;
          Alcotest.test_case "imbalance zero" `Quick test_imbalance_zero_when_even;
          Alcotest.test_case "imbalance is MAD" `Quick test_imbalance_is_mean_absolute_deviation;
          Alcotest.test_case "empty items" `Quick test_empty_items;
          Alcotest.test_case "single bin" `Quick test_single_bin;
          Alcotest.test_case "more bins than items" `Quick test_more_bins_than_items;
          Alcotest.test_case "hot-function outlier" `Quick test_hot_function_outlier;
          Alcotest.test_case "lpt tie rule" `Quick test_lpt_tie_rule;
        ] );
      ( "properties",
        qcheck
          [
            prop_valid "lpt" P.lpt;
            prop_valid "kk" P.karmarkar_karp;
            prop_valid "best" P.best;
            prop_valid "round_robin" P.round_robin;
            prop_makespan_lower_bound "lpt" P.lpt;
            prop_makespan_lower_bound "kk" P.karmarkar_karp;
            prop_makespan_lower_bound "best" P.best;
            prop_kk_le_lpt_often;
            prop_best_matches_exact_small;
          ] );
    ]
