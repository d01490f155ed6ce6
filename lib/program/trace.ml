module Sc = Bunshin_syscall.Syscall

type marker = Main_entered | About_to_exit | Killed of string

type op =
  | Work of { func : string; cost : float }
  | Idle of float
  | Sys of Sc.t
  | Lock of int
  | Unlock of int
  | Incr of int
  | Sys_shared of Sc.t * int
  | Shared_read of { region : int; counter : int }
  | Barrier of int * int
  | Spawn of t
  | Fork of t
  | Marker of marker

and t = op list

let rec fold f acc trace =
  List.fold_left
    (fun acc op ->
      let acc = f acc op in
      match op with Spawn sub | Fork sub -> fold f acc sub | _ -> acc)
    acc trace

let length t = fold (fun n _ -> n + 1) 0 t

let work_by_func t =
  let tbl = Hashtbl.create 16 in
  let add name cost =
    let sum =
      match Hashtbl.find_opt tbl name with
      | Some sum -> sum
      | None ->
        let sum = ref 0.0 in
        Hashtbl.add tbl name sum;
        sum
    in
    sum := !sum +. cost
  in
  fold (fun () op -> match op with Work w -> add w.func w.cost | _ -> ()) () t;
  Hashtbl.fold (fun k sum acc -> (k, !sum) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let rec map_cost f t =
  List.map
    (fun op ->
      match op with
      | Work w -> Work { w with cost = f w.func w.cost }
      | Spawn sub -> Spawn (map_cost f sub)
      | Fork sub -> Fork (map_cost f sub)
      | Idle _ | Sys _ | Sys_shared _ | Shared_read _ | Lock _ | Unlock _ | Incr _ | Barrier _ | Marker _ -> op)
    t

let scale k t = map_cost (fun _ c -> k *. c) t

let concat = List.concat

let perturb_syscall ~k t =
  let seen = ref 0 in
  List.map
    (fun op ->
      match op with
      | Sys ({ Sc.args = a :: rest; _ } as sc) -> (
        let here = !seen in
        incr seen;
        match rest with
        | x :: tail when here = k -> Sys (Sc.with_args sc (a :: Int64.add x 500L :: tail))
        | _ -> op)
      | _ -> op)
    t

let functions t = List.map fst (work_by_func t)
