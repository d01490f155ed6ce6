(** Small statistics toolkit used by the profiler and the benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val median : float list -> float
(** Median (average of middle two for even length); 0. on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], linear interpolation. *)

val percentiles : float array -> float list -> float list
(** [percentiles samples ps] computes every quantile in [ps] (each in
    [\[0,100\]]) from one sort of [samples] — use instead of repeated
    [percentile] calls over the same sample (p50/p95/p99/p999 reports).
    Agrees exactly with [percentile] on each rank; [samples] is not
    modified.  Returns all zeros on an empty array. *)

val minimum : float list -> float
val maximum : float list -> float
val sum : float list -> float

val bucket_bounds : float list -> float list
(** The bucket normaliser of {!histogram}: the bounds sorted and
    deduplicated.  [Telemetry.Hist.bounds] calls it too, so the two
    bucket the same way.
    @raise Invalid_argument on an empty list or a non-finite bound. *)

val histogram : ?buckets:float list -> float list -> (float * int) list
(** Fixed-bucket histogram of the samples: [(upper_bound, count)] per
    bucket, where a sample [x] lands in the first bucket with [x <= bound],
    plus a final [(infinity, n)] overflow bucket.  [buckets] are upper
    bounds (sorted and deduplicated; must be finite and non-empty when
    given); without [buckets], ten equal-width buckets span
    [\[minimum xs, maximum xs\]].  On an empty sample list with no
    [buckets], only the empty overflow bucket is returned.
    @raise Invalid_argument on an empty or non-finite explicit bucket list. *)

val overhead : baseline:float -> measured:float -> float
(** Relative slowdown [(measured - baseline) / baseline]; the unit used
    throughout the paper ("107%" = 1.07). *)

val pct : float -> string
(** Render an overhead fraction as a percentage string, e.g. [0.471 -> "47.1%"]. *)
