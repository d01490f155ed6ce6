(** Deterministic fault injection for the NXE (chaos testing).

    A {!plan} is a fixed, seed-derived list of injections the engine
    applies while it runs a variant group: a variant can be stalled (a
    hung fiber that stops heartbeating), killed mid-trace (a benign crash
    the monitor observes as a death, not as a divergence), have its
    synchronized syscalls delayed, or have one syscall's arguments
    corrupted (which IS a divergence and must abort the group regardless
    of the recovery policy).

    Positions are ordinals in the victim's own synchronized-syscall
    stream, counted across all of its threads in issue order, so the same
    plan hits the same logical point on every run — injections are part of
    the deterministic schedule, not noise on top of it. *)

type kind =
  | Stall
      (** the victim's current fiber hangs (sleeps practically forever):
          detected only by the heartbeat watchdog *)
  | Die
      (** benign death (OOM kill, stray crash outside the synced stream):
          the victim stops issuing ops and the monitor is told directly,
          as waitpid would *)
  | Delay of { d_each : float; d_count : int }
      (** the victim sleeps [d_each] µs before each of the next [d_count]
          synchronized syscalls — slow, not dead, unless the heartbeat
          timeout says otherwise *)
  | Corrupt of { c_arg : int; c_delta : int64 }
      (** add [c_delta] to argument [c_arg] of one syscall: a real
          argument divergence, indistinguishable from compromise *)

type injection = {
  i_variant : int;  (** victim variant index (0 = leader) *)
  i_at : int;       (** 0-based ordinal in the victim's synchronized-syscall stream *)
  i_kind : kind;
}

type plan = { p_seed : int; p_injections : injection list }

val none : plan
(** The empty plan: inject nothing. *)

val make : ?seed:int -> injection list -> plan
(** Wrap explicit injections ([seed] is only bookkeeping here). *)

val plan :
  seed:int -> variants:int -> ?syscalls:int -> ?count:int -> unit -> plan
(** A seeded random plan: [count] (default 1) injections over victims drawn
    from the followers (never the leader: leader faults always abort, there
    is no follower promotion), positions drawn from [0, syscalls) (default
    8), kinds and parameters drawn from the same stream.  Identical
    arguments give identical plans.
    @raise Invalid_argument if [variants < 2], [syscalls < 1] or
    [count < 0]. *)

val describe : injection -> string
(** One-line human description, e.g. ["stall v2 at syscall #4"]. *)

val pp_plan : Format.formatter -> plan -> unit
