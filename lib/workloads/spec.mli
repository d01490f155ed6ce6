(** Models of the 19 C/C++ SPEC CPU2006 benchmarks used in the paper.

    Each model encodes the traits that drive the evaluation's shape: the
    function-hotness distribution (hmmer and lbm concentrate >95% of time
    in one function — the Fig. 6 outliers), the instruction mix per
    function (memory-bound mcf/lbm suffer most under ASan; arithmetic-heavy
    dealII/xalancbmk suffer most under UBSan), heap-allocation intensity,
    working-set size, and whether MSan can run it at all (gcc cannot,
    §5.6). *)

val all : Bench.t list
(** The 19 benchmarks, C-int then C-fp, in the paper's customary order. *)

val find : string -> Bench.t
(** @raise Not_found for unknown names. *)

val names : string list

