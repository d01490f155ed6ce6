module Interp = Bunshin_ir.Interp
module Trace = Bunshin_program.Trace
module Sc = Bunshin_syscall.Syscall
module Nxe = Bunshin_nxe.Nxe
module Forensics = Bunshin_forensics.Forensics

let strip_sys_prefix name =
  let p = Bunshin_ir.Runtime_api.syscall_prefix in
  let lp = String.length p in
  if String.length name > lp && String.sub name 0 lp = p then
    String.sub name lp (String.length name - lp)
  else name

(* Simulated µs per 1000 interpreted instructions. *)
let us_per_kinstr = 10.0

let trace_of_run (run : Interp.run) =
  let work steps =
    if steps <= 0 then []
    else [ Trace.Work { func = "ir"; cost = float_of_int steps *. us_per_kinstr /. 1000.0 } ]
  in
  let rec go prev = function
    | [] ->
      (* Tail compute after the last event; then how the run ended: a
         detection writes its report and aborts, a crash dies by a signal. *)
      let tail = work (run.Interp.steps - prev) in
      (match run.Interp.outcome with
       | Interp.Detected _ ->
         tail
         @ [ Trace.Sys (Sc.write ~args:[ 2L; 0xBADL ] ()); Trace.Marker (Trace.Killed "SIGABRT") ]
       | Interp.Crashed Interp.Div_by_zero -> tail @ [ Trace.Marker (Trace.Killed "SIGFPE") ]
       | Interp.Crashed _ -> tail @ [ Trace.Marker (Trace.Killed "SIGSEGV") ]
       | Interp.Finished _ | Interp.Fuel_exhausted -> tail)
    | (step, ev) :: rest ->
      let sys =
        match ev with
        | Interp.Output v -> Sc.write ~args:[ 1L; v ] ()
        | Interp.Syscall (name, args) -> Sc.make ~args (strip_sys_prefix name)
      in
      work (step - prev) @ (Trace.Sys sys :: go step rest)
  in
  go 0 run.Interp.timeline

let run_runs ?config runs =
  let traces = List.map trace_of_run runs in
  let names = List.mapi (fun i _ -> Printf.sprintf "ir-v%d" i) runs in
  let report = Nxe.run_traces ?config ~names traces in
  match report.Nxe.incident with
  | None -> report
  | Some inc ->
    (* This layer knows each variant's sanitizer outcome: join the firing
       check site into the incident (and let a lone detection break a
       2-variant blame tie). *)
    let dets =
      Array.of_list
        (List.map
           (fun r ->
             match r.Interp.outcome with Interp.Detected d -> Some d | _ -> None)
           runs)
    in
    { report with Nxe.incident = Some (Forensics.refine_with_detections inc dets) }

let run_ir_variants ?config ~entry ~args moduls =
  let sink = Option.bind config (fun c -> c.Nxe.telemetry) in
  let runs =
    List.mapi
      (fun i m ->
        (* Each variant interprets in its own instruction-step clock domain
           ("interp:v0", "interp:v1", ...) on the NXE's sink, if any. *)
        let telemetry =
          Option.map
            (fun s ->
              Bunshin_telemetry.Telemetry.domain s ~name:(Printf.sprintf "interp:v%d" i))
            sink
        in
        Interp.run_compiled ?telemetry (Interp.compile m) ~entry ~args)
      moduls
  in
  run_runs ?config runs
