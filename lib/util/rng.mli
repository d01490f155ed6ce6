(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the reproduction draws from an explicit
    [Rng.t] so that experiments are replayable from a single seed.  The
    generator is splittable: independent substreams can be derived for
    independent subsystems without sharing mutable state. *)

type t
(** Mutable generator state.  Drawing from it updates the state in place
    and allocates nothing; the streams are those of the reference
    SplitMix64 (state advanced by the golden gamma, output mixed). *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal deviate. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto deviate; heavy-tailed sizes (e.g. file sizes, function costs). *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

type 'a weighted
(** A cumulative-weight table over a fixed set of weighted elements, with
    a guide that maps each of [n] equal-width slices of the total to the
    first element that can end in it.  Building it costs O(n); a {!draw}
    costs one multiplication, one guide read and a short forward walk.
    Build it once per generated trace, not once per draw. *)

val weighted : ('a * float) array -> 'a weighted
(** [weighted pairs] tabulates the prefix sums of the weights, left to
    right, and their guide.  @raise Invalid_argument if [pairs] is empty,
    a weight is negative, NaN or infinite, or the weights sum to zero or
    overflow. *)

val draw : t -> 'a weighted -> 'a
(** Element drawn proportionally to its weight, with one uniform draw in
    [\[0, total)]: the first element whose prefix sum exceeds it, or the
    last element when rounding leaves none.  This is the element a linear
    scan over the same pairs returns, and the element a binary search of
    the prefix sums returns, for every weight table and every generator
    state; the guide changes how the element is found, never which one,
    and the draw consumes exactly one raw output, as both of those do. *)

val weighted_choice : t -> ('a * float) array -> 'a
(** [weighted_choice t pairs] is [draw t (weighted pairs)]: a one-off
    draw that pays for building the table. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [k] distinct elements (k <= length). *)
