(** Model of the Linux syscall interface as seen by the NXE.

    The NXE never interprets syscall semantics beyond three questions, which
    this module answers: (1) what class is it (IO-write-like syscalls are
    the lockstep-selected set of the paper's {e selective-lockstep} mode);
    (2) is it memory-management (sanitizer-introduced, ignored during
    synchronization per §3.3); (3) do two occurrences agree (sequence and
    argument comparison for divergence detection). *)

type klass =
  | Io_read      (** read, recv, accept, ... — input: results must be replicated *)
  | Io_write     (** write, send, ... — output: the selected lockstep set *)
  | File_meta    (** open, close, stat, ... *)
  | Memory       (** mmap, munmap, brk, mprotect, madvise *)
  | Process      (** fork, execve, exit, wait *)
  | Thread       (** clone with CLONE_THREAD *)
  | Sync         (** futex and friends *)
  | Signal       (** rt_sigaction, kill, ... *)
  | Time         (** nanosleep, clock_gettime (non-vdso) *)
  | Info         (** getpid, uname, getrusage *)
  | Virtual      (** vdso-serviced: no kernel entry, never synchronized *)

type t = {
  name : string;
  number : int;           (** x86-64 syscall number, -1 for modelled extras *)
  klass : klass;
  args : int64 list;      (** argument values compared across variants *)
}

val classify : string -> klass
(** Class of a syscall by name; unknown names map to [Info]. *)

val make : ?args:int64 list -> string -> t
(** Build a syscall record, classifying and numbering by name.  Names use
    the kernel spelling ([write], [mmap], ...). *)

val with_args : t -> int64 list -> t
(** Same syscall with different argument values, reusing the name-based
    classification already paid for by {!make} — use this on hot paths
    that rewrite arguments instead of rebuilding from the name. *)

val is_lockstep_selected : t -> bool
(** True for the syscalls the selective-lockstep mode still synchronizes
    strictly: the write-flavoured IO calls through which information leaks
    must pass (§3.3). *)

val is_synchronized : t -> bool
(** Whether the NXE synchronizes this syscall at all (everything except
    [Virtual] and [Memory]). *)

val args_match : t -> t -> bool
(** Same name and same argument values. *)

val base_cost : t -> float
(** Kernel-entry plus service cost in simulated microseconds; [Virtual]
    syscalls are nearly free (vdso). *)

val pp : Format.formatter -> t -> unit

(** {1 Well-known syscalls} — convenience constructors. *)

val read : ?args:int64 list -> unit -> t
val write : ?args:int64 list -> unit -> t
val open_ : ?args:int64 list -> unit -> t
val close : ?args:int64 list -> unit -> t
val mmap : ?args:int64 list -> unit -> t
val munmap : ?args:int64 list -> unit -> t
val futex : ?args:int64 list -> unit -> t
val clone_thread : ?args:int64 list -> unit -> t
val fork : ?args:int64 list -> unit -> t
val accept : ?args:int64 list -> unit -> t
val send : ?args:int64 list -> unit -> t
