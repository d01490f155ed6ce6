type klass =
  | Io_read
  | Io_write
  | File_meta
  | Memory
  | Process
  | Thread
  | Sync
  | Signal
  | Time
  | Info
  | Virtual

type t = { name : string; number : int; klass : klass; args : int64 list }

(* A representative subset of the x86-64 syscall table: (name, number, class).
   Numbers follow arch/x86/entry/syscalls/syscall_64.tbl. *)
let table =
  [
    ("read", 0, Io_read);
    ("write", 1, Io_write);
    ("open", 2, File_meta);
    ("close", 3, File_meta);
    ("stat", 4, File_meta);
    ("fstat", 5, File_meta);
    ("lstat", 6, File_meta);
    ("poll", 7, Io_read);
    ("lseek", 8, File_meta);
    ("mmap", 9, Memory);
    ("mprotect", 10, Memory);
    ("munmap", 11, Memory);
    ("brk", 12, Memory);
    ("rt_sigaction", 13, Signal);
    ("rt_sigprocmask", 14, Signal);
    ("rt_sigreturn", 15, Signal);
    ("ioctl", 16, File_meta);
    ("pread64", 17, Io_read);
    ("pwrite64", 18, Io_write);
    ("readv", 19, Io_read);
    ("writev", 20, Io_write);
    ("access", 21, File_meta);
    ("pipe", 22, File_meta);
    ("select", 23, Io_read);
    ("sched_yield", 24, Info);
    ("mremap", 25, Memory);
    ("msync", 26, Memory);
    ("madvise", 28, Memory);
    ("dup", 32, File_meta);
    ("nanosleep", 35, Time);
    ("getpid", 39, Info);
    ("sendfile", 40, Io_write);
    ("socket", 41, File_meta);
    ("connect", 42, File_meta);
    ("accept", 43, Io_read);
    ("sendto", 44, Io_write);
    ("recvfrom", 45, Io_read);
    ("sendmsg", 46, Io_write);
    ("recvmsg", 47, Io_read);
    ("shutdown", 48, File_meta);
    ("bind", 49, File_meta);
    ("listen", 50, File_meta);
    ("clone", 56, Process);
    ("clone_thread", 56, Thread);
    ("fork", 57, Process);
    ("vfork", 58, Process);
    ("execve", 59, Process);
    ("exit", 60, Process);
    ("wait4", 61, Process);
    ("kill", 62, Signal);
    ("uname", 63, Info);
    ("fcntl", 72, File_meta);
    ("fsync", 74, Io_write);
    ("getdents", 78, Io_read);
    ("getcwd", 79, Info);
    ("unlink", 87, File_meta);
    ("gettimeofday", 96, Time);
    ("getrusage", 98, Info);
    ("futex", 202, Sync);
    ("epoll_wait", 232, Io_read);
    ("epoll_ctl", 233, File_meta);
    ("openat", 257, File_meta);
    ("exit_group", 231, Process);
    ("accept4", 288, Io_read);
    ("gettimeofday_vdso", -1, Virtual);
    ("clock_gettime_vdso", -1, Virtual);
    ("synccall", -1, Sync); (* Bunshin's own locking-order syscall (§4.2) *)
  ]

let lookup name =
  match List.find_opt (fun (n, _, _) -> n = name) table with
  | Some (_, num, k) -> (num, k)
  | None -> (-1, Info)

let classify name = snd (lookup name)

let make ?(args = []) name =
  let number, klass = lookup name in
  { name; number; klass; args }

(* Same syscall, different argument values: reuses the classification done
   at [make] time instead of re-scanning the table — the identity every
   hot-path caller that rewrites arguments (shared-memory results, fault
   corruption) should use. *)
let with_args t args = { t with args }

let is_lockstep_selected t =
  match t.klass with
  | Io_write -> true
  | Io_read | File_meta | Memory | Process | Thread | Sync | Signal | Time | Info | Virtual ->
    false

let is_synchronized t =
  match t.klass with
  | Virtual | Memory -> false
  | Io_read | Io_write | File_meta | Process | Thread | Sync | Signal | Time | Info -> true

(* Argument agreement is the divergence-detection hot path: short-circuit
   on physical equality (variants fed from a shared trace present the very
   same record) and compare the args with a monomorphic Int64 loop rather
   than polymorphic equality. *)
let rec args_eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: a', y :: b' -> Int64.equal x y && args_eq a' b'
  | _ -> false

let args_match a b = a == b || (a.name = b.name && args_eq a.args b.args)

let base_cost t =
  match t.klass with
  | Virtual -> 0.02
  | Io_read | Io_write -> 1.5
  | File_meta -> 2.0
  | Memory -> 2.5
  | Process -> 50.0
  | Thread -> 20.0
  | Sync -> 0.8
  | Signal -> 1.2
  | Time -> 0.6
  | Info -> 0.5

let pp fmt t =
  Format.fprintf fmt "%s(%s)" t.name (String.concat ", " (List.map Int64.to_string t.args))

let read ?args () = make ?args "read"
let write ?args () = make ?args "write"
let open_ ?args () = make ?args "open"
let close ?args () = make ?args "close"
let mmap ?args () = make ?args "mmap"
let munmap ?args () = make ?args "munmap"
let futex ?args () = make ?args "futex"
let clone_thread ?args () = make ?args "clone_thread"
let fork ?args () = make ?args "fork"
let accept ?args () = make ?args "accept"
let send ?args () = make ?args "sendto"
