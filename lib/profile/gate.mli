(** Perf-regression gate over the versioned bench JSON artifacts
    ([BENCH_*.json]).

    Every bench section emits a document of the shape
    [{"schema_version":1,"section":S,"quick":B,"suites":[{"name":N,
    <numeric metrics>}]}] (see {!emit_json}); committed documents are
    baselines.  {!compare_json} re-reads a baseline, takes a fresh run of
    the same section, and checks each thresholded metric suite-by-suite:
    a breach, or a suite/metric that vanished from the fresh run, fails
    the gate — [bench diff] turns that into a non-zero exit. *)

type direction =
  | Lower_is_better   (** times: regression when fresh > baseline * (1+tol) *)
  | Higher_is_better  (** rates: regression when fresh < baseline * (1-tol) *)

type threshold

val threshold : ?direction:direction -> tolerance:float -> string -> threshold
(** [threshold ~tolerance metric]: gate the named metric (default
    {!Lower_is_better}).  [tolerance] is the allowed relative drift, e.g.
    [0.1] = 10%.  @raise Invalid_argument on a negative tolerance. *)

type comparison = {
  c_suite : string;
  c_metric : string;
  c_baseline : float;
  c_fresh : float;
  c_ratio : float;     (** fresh / baseline *)
  c_regressed : bool;
}

type result_t = {
  r_section : string;
  r_comparisons : comparison list;
  r_regressions : comparison list;
  r_missing : string list;  (** suites/metrics absent from the fresh run *)
}

val passed : result_t -> bool

val compare_json :
  thresholds:threshold list -> baseline:string -> fresh:string ->
  (result_t, string) result
(** Both arguments are raw JSON documents.  [Error] on malformed input, a
    schema-version mismatch, or a quick/full mode mismatch between the two
    runs (those numbers are not comparable). *)

val result_to_text : result_t -> string
(** One line per comparison, [FAIL]-prefixed on breaches. *)

val emit_json : section:string -> quick:bool -> (string * (string * float) list) list -> string
(** [emit_json ~section ~quick suites] renders the versioned document;
    each suite is [(name, metrics)] and non-finite metric values render as
    [null] (ignored by the gate). *)
