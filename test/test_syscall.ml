(* Tests for Bunshin_syscall: classification, lockstep selection, matching. *)

module Sc = Bunshin_syscall.Syscall

let test_classify_known () =
  Alcotest.(check bool) "write is Io_write" true (Sc.classify "write" = Sc.Io_write);
  Alcotest.(check bool) "read is Io_read" true (Sc.classify "read" = Sc.Io_read);
  Alcotest.(check bool) "mmap is Memory" true (Sc.classify "mmap" = Sc.Memory);
  Alcotest.(check bool) "futex is Sync" true (Sc.classify "futex" = Sc.Sync);
  Alcotest.(check bool) "fork is Process" true (Sc.classify "fork" = Sc.Process);
  Alcotest.(check bool) "clone_thread is Thread" true (Sc.classify "clone_thread" = Sc.Thread)

let test_classify_unknown_defaults_info () =
  Alcotest.(check bool) "unknown" true (Sc.classify "frobnicate" = Sc.Info)

(* x86-64 table numbers; -1 outside the modelled subset. *)
let numbers =
  [ ("read", 0); ("write", 1); ("mmap", 9); ("futex", 202); ("fork", 57); ("accept", 43);
    ("gettimeofday_vdso", -1); ("unknown_call", -1) ]

let test_numbers () =
  List.iter
    (fun (name, n) -> Alcotest.(check int) name n (Sc.make name).Sc.number)
    numbers

let test_lockstep_selection () =
  (* The selective-lockstep set is exactly the write-flavoured IO calls. *)
  Alcotest.(check bool) "write selected" true (Sc.is_lockstep_selected (Sc.write ()));
  Alcotest.(check bool) "sendto selected" true (Sc.is_lockstep_selected (Sc.send ()));
  Alcotest.(check bool) "sendfile selected" true (Sc.is_lockstep_selected (Sc.make "sendfile"));
  Alcotest.(check bool) "read not selected" false (Sc.is_lockstep_selected (Sc.read ()));
  Alcotest.(check bool) "open not selected" false (Sc.is_lockstep_selected (Sc.open_ ()));
  Alcotest.(check bool) "futex not selected" false (Sc.is_lockstep_selected (Sc.futex ()))

(* Sanitizers issue memory-management syscalls for their metadata at
   unpredictable points, so the NXE never synchronizes them. *)
let test_memory_mgmt_ignored () =
  Alcotest.(check bool) "brk is memory" true (Sc.classify "brk" = Sc.Memory);
  Alcotest.(check bool) "mmap ignored" false (Sc.is_synchronized (Sc.mmap ()));
  Alcotest.(check bool) "brk ignored" false (Sc.is_synchronized (Sc.make "brk"));
  Alcotest.(check bool) "munmap ignored" false (Sc.is_synchronized (Sc.munmap ()));
  Alcotest.(check bool) "write is not" true (Sc.is_synchronized (Sc.write ()))

let test_synchronization_scope () =
  Alcotest.(check bool) "write synced" true (Sc.is_synchronized (Sc.write ()));
  Alcotest.(check bool) "mmap not synced" false (Sc.is_synchronized (Sc.mmap ()));
  Alcotest.(check bool) "vdso not synced" false (Sc.is_synchronized (Sc.make "gettimeofday_vdso"))

let test_args_match () =
  let a = Sc.write ~args:[ 1L; 64L ] () in
  let b = Sc.write ~args:[ 1L; 64L ] () in
  let c = Sc.write ~args:[ 2L; 64L ] () in
  let d = Sc.read ~args:[ 1L; 64L ] () in
  Alcotest.(check bool) "same" true (Sc.args_match a b);
  Alcotest.(check bool) "diff args" false (Sc.args_match a c);
  Alcotest.(check bool) "diff name" false (Sc.args_match a d)

let test_pp () =
  let s = Format.asprintf "%a" Sc.pp (Sc.write ~args:[ 1L; 2L ] ()) in
  Alcotest.(check string) "render" "write(1, 2)" s

let prop_make_consistent =
  QCheck.Test.make ~name:"make agrees with classify/number_of" ~count:100
    (QCheck.oneofl [ "read"; "write"; "mmap"; "futex"; "fork"; "accept"; "unknown_call" ])
    (fun name ->
      let s = Sc.make name in
      s.Sc.name = name && s.Sc.klass = Sc.classify name && s.Sc.number = List.assoc name numbers)

let () =
  Alcotest.run "bunshin_syscall"
    [
      ( "classify",
        [
          Alcotest.test_case "known" `Quick test_classify_known;
          Alcotest.test_case "unknown defaults" `Quick test_classify_unknown_defaults_info;
          Alcotest.test_case "numbers" `Quick test_numbers;
        ] );
      ( "nxe-view",
        [
          Alcotest.test_case "lockstep selection" `Quick test_lockstep_selection;
          Alcotest.test_case "memory mgmt ignored" `Quick test_memory_mgmt_ignored;
          Alcotest.test_case "synchronization scope" `Quick test_synchronization_scope;
          Alcotest.test_case "args match" `Quick test_args_match;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest ~verbose:false prop_make_consistent ]);
    ]
