(** ASAP-style profile-guided check pruning (Wagner et al., cited in the
    paper's §2.3) — the baseline Bunshin argues against.

    ASAP fits a sanitizer into an overhead budget by {e removing} the
    hottest checks and keeping the cold ones, maximizing check count per
    cycle.  That trades security away: the hot code is usually where the
    attacker-reachable bugs live, and (paper, §2.3) eliminating one of two
    exploitable overflows does not help — one bug is enough.

    Bunshin hits the same budget by {e distributing} all checks instead:
    the comparison lives in {!Bunshin.Experiments} and the bench's
    [ablations] section. *)

val keep_set :
  budget:float -> overhead_profile:(string * float) list -> string list
(** Functions whose checks fit the budget (a fraction, 0..1, of the full
    check overhead), chosen cheapest-first — ASAP's cost ranking. *)
