module Rng = Bunshin_util.Rng

type kind =
  | Stall
  | Die
  | Delay of { d_each : float; d_count : int }
  | Corrupt of { c_arg : int; c_delta : int64 }

type injection = { i_variant : int; i_at : int; i_kind : kind }

type plan = { p_seed : int; p_injections : injection list }

let none = { p_seed = 0; p_injections = [] }

let make ?(seed = 0) injections = { p_seed = seed; p_injections = injections }

let plan ~seed ~variants ?(syscalls = 8) ?(count = 1) () =
  if variants < 2 then invalid_arg "Faults.plan: variants must be >= 2";
  if syscalls < 1 then invalid_arg "Faults.plan: syscalls must be >= 1";
  if count < 0 then invalid_arg "Faults.plan: count must be >= 0";
  let rng = Rng.create seed in
  let injections =
    List.init count (fun _ ->
        let i_variant = Rng.int_in rng 1 (variants - 1) in
        let i_at = Rng.int rng syscalls in
        let i_kind =
          match Rng.int rng 4 with
          | 0 -> Stall
          | 1 -> Die
          | 2 ->
            Delay
              { d_each = Rng.float_in rng 5.0 50.0; d_count = Rng.int_in rng 1 4 }
          | _ ->
            Corrupt
              { c_arg = Rng.int rng 2; c_delta = Int64.of_int (Rng.int_in rng 1 0xFFFF) }
        in
        { i_variant; i_at; i_kind })
  in
  { p_seed = seed; p_injections = injections }

let describe i =
  let what =
    match i.i_kind with
    | Stall -> "stall"
    | Die -> "die"
    | Delay { d_each; d_count } ->
      Printf.sprintf "delay %d syscalls by %.1fus" d_count d_each
    | Corrupt { c_arg; c_delta } ->
      Printf.sprintf "corrupt arg %d by +%Ld" c_arg c_delta
  in
  Printf.sprintf "%s v%d at syscall #%d" what i.i_variant i.i_at

let pp_plan fmt p =
  Format.fprintf fmt "plan(seed=%d):" p.p_seed;
  if p.p_injections = [] then Format.fprintf fmt " (no injections)"
  else List.iter (fun i -> Format.fprintf fmt "@ %s;" (describe i)) p.p_injections
