(* The test kit every test executable shares, beside [Golden] and
   [Trace_sum]: the qcheck runner, the trace vocabulary of the NXE suites,
   the heap program of the IR suites, random traces and fleets with
   printers and shrinkers, and the canonical rendering of the golden
   reports.  Only what two or more suites use lives here.  The NXE suites
   open it. *)

open struct
  module Sc = Bunshin_syscall.Syscall
  module Trace = Bunshin_program.Trace
  module Nxe = Bunshin_nxe.Nxe
  module Cluster = Bunshin_cluster.Cluster
  module Faults = Bunshin_faults.Faults
  module F = Bunshin_forensics.Forensics
  module Ast = Bunshin_ir.Ast
  module B = Bunshin_ir.Builder
  module Interp = Bunshin_ir.Interp
end

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

(* Whether [f ()] raises [Invalid_argument]. *)
let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* IR *)

(* main(idx) { p = malloc(4); p[idx] = 7; print(p[idx]); return 0 } *)
let heap_prog () =
  let b = B.create "heap" in
  B.start_func b ~name:"main" ~params:[ "idx" ];
  let p = B.call b "malloc" [ B.cst 4 ] in
  let q = B.gep b p (Ast.Reg "idx") in
  B.store b (B.cst 7) q;
  let v = B.load b q in
  B.call_void b "print" [ v ];
  B.ret b (Some (B.cst 0));
  B.finish b

let run_main ?config m args =
  Interp.run_compiled ?config (Interp.compile m) ~entry:"main" ~args

(* ------------------------------------------------------------------ *)
(* Trace vocabulary *)

let names n = List.init n (fun i -> Printf.sprintf "v%d" i)
let work c = Trace.Work { func = "f"; cost = c }

(* write(1, x) and read(3, x). *)
let wr x = Trace.Sys (Sc.write ~args:[ 1L; Int64.of_int x ] ())
let rd x = Trace.Sys (Sc.read ~args:[ 3L; Int64.of_int x ] ())
let finished outcome = outcome = `All_finished

(* A CPU+syscall mix: [units] rounds of work and a write. *)
let basic_trace units = List.concat (List.init units (fun i -> [ work 50.0; wr i ]))

(* [n] variants of eight work+write rounds; the last one writes [tag] at
   round [pos].  [~pos:(-1)] is a clean identical-variant corpus. *)
let diverge_at ~pos ~tag n =
  List.init n (fun v ->
      List.concat
        (List.init 8 (fun i -> [ work 4.0; wr (if v = n - 1 && i = pos then tag else i) ])))

(* The chaos workload: [chaos_units] synchronized reads per variant. *)
let chaos_units = 12
let chaos_trace () = List.concat (List.init chaos_units (fun i -> [ work 5.0; rd i ]))

let coverage3 = [ [ "asan"; "ubsan" ]; [ "asan"; "msan" ]; [ "msan"; "lowfat" ] ]
let stall_v1 = Faults.make [ { Faults.i_variant = 1; i_at = 4; i_kind = Faults.Stall } ]

(* ------------------------------------------------------------------ *)
(* Random traces *)

type op = [ `Work of float | `Read of int | `Write of int | `Locked of int ]

let gen_op : op QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun c -> `Work (float_of_int (1 + c))) (int_bound 30));
        (2, map (fun i -> `Read i) (int_bound 100));
        (2, map (fun i -> `Write i) (int_bound 100));
        (2, map (fun l -> `Locked l) (int_bound 2));
      ])

let gen_ops max = QCheck.Gen.(list_size (1 -- max) gen_op)

let print_ops ops =
  "["
  ^ String.concat " "
      (List.map
         (function
           | `Work c -> Printf.sprintf "w%g" c
           | `Read i -> Printf.sprintf "r%d" i
           | `Write i -> Printf.sprintf "W%d" i
           | `Locked l -> Printf.sprintf "L%d" l)
         ops)
  ^ "]"

let shrink_op : op QCheck.Shrink.t = function
  | `Work c -> if c > 1.0 then QCheck.Iter.return (`Work 1.0) else QCheck.Iter.empty
  | `Read i -> QCheck.Iter.map (fun i -> `Read i) (QCheck.Shrink.int i)
  | `Write i -> QCheck.Iter.map (fun i -> `Write i) (QCheck.Shrink.int i)
  | `Locked l -> if l > 0 then QCheck.Iter.return (`Locked 0) else QCheck.Iter.empty

let shrink_ops = QCheck.Shrink.list ~shrink:shrink_op

let ops = QCheck.make ~print:print_ops ~shrink:shrink_ops (gen_ops 25)

(* One thread's trace: each op in order, a locked op being a short
   critical section, then a final write, so every trace has a lockstep
   syscall. *)
let trace_of_ops ops =
  List.concat_map
    (function
      | `Work c -> [ work c ]
      | `Read i -> [ rd i ]
      | `Write i -> [ wr i ]
      | `Locked l -> [ Trace.Lock l; Trace.Work { func = "crit"; cost = 1.0 }; Trace.Unlock l ])
    ops
  @ [ wr 9999 ]

(* What a run's outcome says about the first divergence: channel,
   position, blamed variant, expected and got. *)
let verdict = function
  | `All_finished -> None
  | `Aborted a ->
    Some (a.Nxe.al_channel, a.Nxe.al_position, a.Nxe.al_variant, a.Nxe.al_expected, a.Nxe.al_got)

let signature = Option.map Cluster.incident_signature

(* ------------------------------------------------------------------ *)
(* Fleets *)

let ship_modes = [ Cluster.Full_remote_lockstep; Cluster.Selective; Cluster.Selective_replicated ]

(* [f_n] variants over [f_nodes] nodes.  Each variant runs [f_main],
   spawning [f_spawn] first when there is one, with its work scaled by
   its entry of [f_skew].  [f_diverge = Some (k, v)] perturbs variant v's
   k-th syscall ([Trace.perturb_syscall]); [f_fault] injects a stall or an
   argument corruption into variant 1 at that syscall, under the
   quarantine policy with a watchdog. *)
type fleet = {
  f_n : int;
  f_nodes : int;
  f_ship : Cluster.ship_mode;
  f_main : op list;
  f_spawn : op list option;
  f_skew : float list;
  f_diverge : (int * int) option;
  f_fault : ([ `Stall | `Corrupt ] * int) option;
}

let gen_fleet ~max_nodes ~diverge ~fault =
  let open QCheck.Gen in
  let* f_n = 2 -- 4 in
  let* f_nodes = 1 -- max_nodes in
  let* f_ship = oneofl ship_modes in
  let* f_main = gen_ops 16 in
  let* f_spawn = opt (gen_ops 8) in
  let* f_skew = list_repeat f_n (float_range 0.8 1.25) in
  let* f_diverge = if diverge then opt (pair (int_bound 16) (1 -- (f_n - 1))) else return None in
  let* f_fault = if fault then opt (pair (oneofl [ `Stall; `Corrupt ]) (0 -- 6)) else return None in
  return { f_n; f_nodes; f_ship; f_main; f_spawn; f_skew; f_diverge; f_fault }

let print_fleet f =
  Printf.sprintf "n=%d nodes=%d %s skew=[%s] main=%s spawn=%s diverge=%s fault=%s" f.f_n
    f.f_nodes (Cluster.mode_name f.f_ship)
    (String.concat ";" (List.map (Printf.sprintf "%.3f") f.f_skew))
    (print_ops f.f_main)
    (match f.f_spawn with Some s -> print_ops s | None -> "-")
    (match f.f_diverge with Some (k, v) -> Printf.sprintf "#%d@v%d" k v | None -> "-")
    (match f.f_fault with
     | Some (`Stall, at) -> Printf.sprintf "stall@%d" at
     | Some (`Corrupt, at) -> Printf.sprintf "corrupt@%d" at
     | None -> "-")

(* Drop the fault, the divergence and the spawned thread, then a variant
   and a node, then even out the skew, then shrink the ops and positions.
   Every candidate stays inside the draw's constraints. *)
let shrink_fleet f yield =
  Option.iter (fun _ -> yield { f with f_fault = None }) f.f_fault;
  Option.iter (fun _ -> yield { f with f_diverge = None }) f.f_diverge;
  Option.iter (fun _ -> yield { f with f_spawn = None }) f.f_spawn;
  if f.f_n > 2 then begin
    let n = f.f_n - 1 in
    yield
      {
        f with
        f_n = n;
        f_skew = List.filteri (fun v _ -> v < n) f.f_skew;
        f_diverge = Option.map (fun (k, v) -> (k, min v (n - 1))) f.f_diverge;
      }
  end;
  if f.f_nodes > 1 then yield { f with f_nodes = f.f_nodes - 1 };
  if List.exists (fun s -> s <> 1.0) f.f_skew then
    yield { f with f_skew = List.map (fun _ -> 1.0) f.f_skew };
  shrink_ops f.f_main (fun m -> yield { f with f_main = m });
  Option.iter (fun s -> shrink_ops s (fun s -> yield { f with f_spawn = Some s })) f.f_spawn;
  Option.iter
    (fun (k, v) -> QCheck.Shrink.int k (fun k -> yield { f with f_diverge = Some (k, v) }))
    f.f_diverge;
  Option.iter
    (fun (kind, at) -> QCheck.Shrink.int at (fun at -> yield { f with f_fault = Some (kind, at) }))
    f.f_fault

(* Fleets of 2-4 variants on 1 to [max_nodes] (default 4) nodes; [diverge]
   and [fault] (default true) allow a seeded divergence and a fault. *)
let fleet ?(max_nodes = 4) ?(diverge = true) ?(fault = true) () =
  QCheck.make ~print:print_fleet ~shrink:shrink_fleet (gen_fleet ~max_nodes ~diverge ~fault)

let fleet_traces f =
  List.mapi
    (fun v skew ->
      let skewed ops = Trace.scale skew (trace_of_ops ops) in
      let main =
        match f.f_diverge with
        | Some (k, dv) when dv = v -> Trace.perturb_syscall ~k (skewed f.f_main)
        | _ -> skewed f.f_main
      in
      match f.f_spawn with Some sub -> Trace.Spawn (skewed sub) :: main | None -> main)
    f.f_skew

(* The fleet's fault plan and the policy it runs under. *)
let fleet_faults f =
  match f.f_fault with
  | None -> (Faults.none, Nxe.default_policy)
  | Some (kind, i_at) ->
    let i_kind =
      match kind with
      | `Stall -> Faults.Stall
      | `Corrupt -> Faults.Corrupt { c_arg = 1; c_delta = 7L }
    in
    ( Faults.make [ { Faults.i_variant = 1; i_at; i_kind } ],
      { Nxe.policy = Nxe.Quarantine; heartbeat_timeout = 2000.0; restart_backoff = 50.0 } )

(* ------------------------------------------------------------------ *)
(* Golden rendering: floats in hex, so a comparison is bit-exact *)

let fl f = Printf.sprintf "%h" f
let fls xs = String.concat " " (List.map fl xs)

let sc_str = function
  | None -> "-"
  | Some sc -> Format.asprintf "%a" Sc.pp sc

(* Append one formatted line to [b]. *)
let line b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt

(* The outcome, the alert's syscalls and the divergence incident. *)
let render_verdict b outcome incident =
  (match outcome with
   | `All_finished -> line b "outcome: all_finished"
   | `Aborted a ->
     line b "outcome: aborted chan=%d pos=%d variant=%d" a.Nxe.al_channel a.Nxe.al_position
       a.Nxe.al_variant;
     line b "  expected: %s" a.Nxe.al_expected;
     line b "  got: %s" a.Nxe.al_got;
     line b "  expected_sc: %s" (sc_str a.Nxe.al_expected_sc);
     line b "  got_sc: %s" (sc_str a.Nxe.al_got_sc));
  match incident with
  | None -> line b "incident: -"
  | Some inc -> line b "incident: %s" (F.to_json inc)

(* Each variant's status, the coverage lost and the fault incidents. *)
let render_health b ~status ~coverage_loss ~fault_incidents =
  List.iteri
    (fun v st ->
      match st with
      | Nxe.Healthy -> line b "variant_status[%d]: healthy" v
      | Nxe.Quarantined { q_time; q_cause; q_restarts } ->
        line b "variant_status[%d]: quarantined t=%s cause=%s restarts=%d" v (fl q_time)
          (Nxe.cause_string q_cause) q_restarts
      | Nxe.Recovered { q_time; q_cause; r_time } ->
        line b "variant_status[%d]: recovered q=%s cause=%s r=%s" v (fl q_time)
          (Nxe.cause_string q_cause) (fl r_time))
    status;
  line b "coverage_loss: %s" (String.concat "," coverage_loss);
  List.iteri (fun i inc -> line b "fault_incident[%d]: %s" i (F.to_json inc)) fault_incidents

let render_histograms b hists =
  List.iter
    (fun (name, cells) ->
      line b "hist %s: %s" name
        (String.concat " " (List.map (fun (ub, c) -> Printf.sprintf "%s:%d" (fl ub) c) cells)))
    hists
