(* What the tests read off a generated or built trace: totals over every
   op, nested spawned and forked traces included. *)

module Trace = Bunshin_program.Trace

let rec fold f acc trace =
  List.fold_left
    (fun acc op ->
      let acc = f acc op in
      match op with Trace.Spawn sub | Trace.Fork sub -> fold f acc sub | _ -> acc)
    acc trace

let total_work t =
  fold (fun acc op -> match op with Trace.Work w -> acc +. w.cost | _ -> acc) 0.0 t

let syscall_count t =
  fold (fun n op -> match op with Trace.Sys _ | Trace.Sys_shared _ -> n + 1 | _ -> n) 0 t
