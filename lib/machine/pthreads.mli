(** Pthread-style mutexes and barriers simulated over {!Machine} fibers.

    One instance models the lock namespace of a single process.  Used by
    the plain trace executor and by the NXE (which layers weak-determinism
    ordering on top, §3.3/§4.2).  The plain executor makes one per run.
    The NXE makes one per (process, variant) on that process's first
    Lock, Unlock or Barrier, so a group whose traces take no lock makes
    none. *)

type t

val create : unit -> t
(** An empty namespace. *)

val lock : Machine.t -> t -> int -> unit
(** Acquire mutex [id] (created on first use), blocking while held. *)

val unlock : Machine.t -> t -> int -> unit
(** Release mutex [id] and wake one waiter. *)

val barrier : Machine.t -> t -> int -> int -> unit
(** [barrier m t id expected]: block until [expected] threads arrive. *)
