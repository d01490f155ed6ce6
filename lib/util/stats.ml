let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: non-positive" else log x) xs in
    exp (mean logs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    let a = Array.of_list s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation on the sorted sample [a] at rank p/100*(n-1).
   The rank is clamped into [0, n-1] BEFORE flooring, so out-of-range p
   degrades to the extreme order statistic (p < 0 -> minimum,
   p > 100 -> maximum) instead of indexing out of bounds; in-range p is
   untouched.  Shared by [percentile] and [percentiles] so the two agree
   on every input, including boundary and invalid p (pinned in
   test_util). *)
let rank_value a n p =
  if n = 1 then a.(0)
  else begin
    let top = float_of_int (n - 1) in
    let rank = p /. 100.0 *. top in
    let rank = if rank < 0.0 then 0.0 else if rank > top then top else rank in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    rank_value a (Array.length a) p

(* Single-sort multi-quantile: one [Array.sort] serves every requested
   rank, where calling [percentile] k times would sort k times.  The
   rank arithmetic is [rank_value], the same as [percentile]'s, so the
   two agree exactly (pinned in test_util). *)
let percentiles samples ps =
  let n = Array.length samples in
  if n = 0 then List.map (fun _ -> 0.0) ps
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    List.map (rank_value a n) ps
  end

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left min x xs
let maximum = function [] -> 0.0 | x :: xs -> List.fold_left max x xs

let bucket_bounds bs =
  if bs = [] then invalid_arg "Stats.histogram: empty bucket list";
  List.iter
    (fun b -> if not (Float.is_finite b) then invalid_arg "Stats.histogram: non-finite bucket")
    bs;
  List.sort_uniq compare bs

let histogram ?buckets xs =
  let bounds =
    match buckets with
    | Some bs -> bucket_bounds bs
    | None -> (
      match xs with
      | [] -> []
      | _ ->
        let lo = minimum xs and hi = maximum xs in
        if hi <= lo then [ hi ]
        else
          let w = (hi -. lo) /. 10.0 in
          (* The last bound is exactly [hi] so the overflow bucket stays
             empty despite floating-point accumulation. *)
          List.init 10 (fun i -> if i = 9 then hi else lo +. (w *. float_of_int (i + 1))))
  in
  let barr = Array.of_list bounds in
  let k = Array.length barr in
  let counts = Array.make (k + 1) 0 in
  List.iter
    (fun x ->
      let i = ref 0 in
      while !i < k && x > barr.(!i) do
        incr i
      done;
      counts.(!i) <- counts.(!i) + 1)
    xs;
  List.mapi (fun i b -> (b, counts.(i))) bounds @ [ (infinity, counts.(k)) ]

let overhead ~baseline ~measured =
  if baseline <= 0.0 then invalid_arg "Stats.overhead: non-positive baseline";
  (measured -. baseline) /. baseline

let pct x = Printf.sprintf "%.1f%%" (x *. 100.0)
