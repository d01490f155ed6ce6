(* The SplitMix64 state, in an 8-byte buffer rather than a mutable [int64]
   field: writing a field boxes a fresh [Int64] on every draw, while
   [Bytes.set_int64_ne] stores the raw bits, so a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (int64 t)
let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  (* Rejection sampling: a raw draw is uniform over [0, 2^62).  When
     [bound] does not divide 2^62 the last partial bucket of
     (2^62 mod bound) values would bias low residues, so draws landing
     there are rejected and retried.  Power-of-two bounds never reject. *)
  let tail = ((max_int mod bound) + 1) mod bound in
  let limit = max_int - tail in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (int64 t) mask) in
    if v > limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 high bits give a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)
let bool t = Int64.logand (int64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let exponential t ~mean =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  -.mean *. log (draw ())

let pareto t ~shape ~scale =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  scale /. (draw () ** (1.0 /. shape))

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

(* [guide.(j)] is the first element whose prefix sum falls in bucket [j]
   or a later one, where a value [x] falls in bucket [bucket scale x]:
   the prefix sums are cut into [n] buckets of equal width. *)
type 'a weighted = { items : 'a array; cum : float array; scale : float; guide : int array }

let bucket scale x = int_of_float (x *. scale)

let weighted pairs =
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Rng.weighted: empty array";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (_, w) ->
      if not (Float.is_finite w && w >= 0.0) then
        invalid_arg (Printf.sprintf "Rng.weighted: weight %d is %g" i w);
      acc := !acc +. w;
      cum.(i) <- !acc)
    pairs;
  if !acc <= 0.0 then invalid_arg "Rng.weighted: weights sum to zero";
  if not (Float.is_finite !acc) then invalid_arg "Rng.weighted: weights overflow";
  (* A total so small that [n /. total] overflows gets one bucket. *)
  let scale =
    let s = float_of_int n /. !acc in
    if Float.is_finite s then s else 0.0
  in
  let guide = Array.make n 0 in
  let i = ref 0 in
  for j = 0 to n - 1 do
    while !i < n - 1 && bucket scale cum.(!i) < j do
      incr i
    done;
    guide.(j) <- !i
  done;
  { items = Array.map fst pairs; cum; scale; guide }

(* The first prefix sum above [target], the last element if none is: what
   a left-to-right scan accumulating the same sums returns.  Rounded
   multiplication by [scale >= 0] and truncation are both monotone, so a
   prefix sum in an earlier bucket than [target] is below it: the answer
   is never before [guide.(bucket target)], and the walk forward from
   there only passes sums at or below [target].  A target past the last
   bucket (rounding at the top) starts from the last bucket's entry, which
   is earlier still. *)
let draw t w =
  let n = Array.length w.cum in
  let target = float t w.cum.(n - 1) in
  let j = bucket w.scale target in
  let i = ref w.guide.(if j < n then j else n - 1) in
  while !i < n - 1 && w.cum.(!i) <= target do
    incr i
  done;
  w.items.(!i)

let weighted_choice t pairs = draw t (weighted pairs)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k arr =
  if k < 0 || k > Array.length arr then invalid_arg "Rng.sample: bad k";
  let pool = Array.copy arr in
  shuffle t pool;
  Array.sub pool 0 k
