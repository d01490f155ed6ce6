let total profile = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 profile

let keep_set ~budget ~overhead_profile =
  let budget = Float.max 0.0 (Float.min 1.0 budget) in
  let limit = budget *. total overhead_profile in
  let by_cost =
    List.sort (fun (_, a) (_, b) -> compare a b) overhead_profile
  in
  let _, kept =
    List.fold_left
      (fun (spent, kept) (f, w) ->
        if spent +. w <= limit +. 1e-9 then (spent +. w, f :: kept) else (spent, kept))
      (0.0, []) by_cost
  in
  List.rev kept

