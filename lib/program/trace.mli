(** Execution traces: the abstract behaviour of one program thread.

    A trace is what a variant "does": compute attributed to functions,
    syscalls, pthread-style synchronization operations, and thread/process
    creation.  Workload models ({!Bunshin_workloads}) generate traces; the
    variant generator rewrites their costs per sanitizer; the NXE executes
    N of them in lockstep on the simulated machine. *)

module Sc := Bunshin_syscall.Syscall

type marker =
  | Main_entered   (** NXE synchronization starts here (§3.3) *)
  | About_to_exit  (** NXE synchronization stops here (first exit handler) *)
  | Killed of string
      (** the process dies here by the named fatal signal (a sanitizer's
          abort after its report, a crash); the NXE treats it as an alarm *)

type op =
  | Work of { func : string; cost : float }
      (** compute, in us, attributed to a program function *)
  | Idle of float
      (** off-CPU time (memory stalls, load imbalance): occupies wall clock
          but no core — what keeps 4-thread benchmarks from saturating the
          machine *)
  | Sys of Sc.t
  | Lock of int        (** pthread_mutex_lock on lock [id] *)
  | Unlock of int
  | Incr of int
      (** increment shared counter [id] — a shared-memory write; racy when
          not guarded by a lock *)
  | Sys_shared of Sc.t * int
      (** syscall whose final argument is the current value of shared
          counter [id]: the mechanism by which shared-memory races become
          observable syscall-argument divergence across variants *)
  | Shared_read of { region : int; counter : int }
      (** read from an externally shared mmap'd region into local counter
          [counter].  Only the leader's mapping is connected to the outside
          world; the NXE propagates the value to followers the way §3.3's
          poisoned-page mechanism copies accessed content (a follower with
          propagation disabled sees its own stale copy) *)
  | Barrier of int * int  (** barrier [id] with expected arrival count *)
  | Spawn of t         (** pthread_create: child thread trace *)
  | Fork of t          (** fork(): child process trace *)
  | Marker of marker

and t = op list

val length : t -> int
(** Total number of ops, including nested spawned/forked traces. *)

val work_by_func : t -> (string * float) list
(** Total Work cost per function name (including nested traces), sorted by
    name. *)

val scale : float -> t -> t
(** Uniformly scale all Work costs, recursing into Spawn/Fork. *)

val concat : t list -> t

val perturb_syscall : k:int -> t -> t
(** An injected compromise: add 500 to the second argument of the [k]-th
    (from 0) [Sys] op of the top level of [t] that has arguments.
    A one-argument syscall counts but keeps its argument; nested traces
    and [Sys_shared] ops are left alone, and so is [t] when it has [k] or
    fewer such syscalls. *)

val functions : t -> string list
(** Distinct function names appearing in Work ops, sorted. *)
