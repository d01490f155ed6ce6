type code_profile = {
  mem_op_density : float;
  arith_density : float;
  ptr_density : float;
  branch_density : float;
  alloc_intensity : float;
}

let typical_profile =
  {
    mem_op_density = 0.35;
    arith_density = 0.30;
    ptr_density = 0.15;
    branch_density = 0.15;
    alloc_intensity = 2.0;
  }

type t = {
  check_cost : code_profile -> float;
  residual_cost : code_profile -> float;
  ws_multiplier : float;
  ram_overhead : float;
}

let total t p = t.check_cost p +. t.residual_cost p

let zero =
  {
    check_cost = (fun _ -> 0.0);
    residual_cost = (fun _ -> 0.0);
    ws_multiplier = 1.0;
    ram_overhead = 0.0;
  }

let scale k t =
  {
    check_cost = (fun p -> k *. t.check_cost p);
    residual_cost = (fun p -> k *. t.residual_cost p);
    ws_multiplier = 1.0 +. (k *. (t.ws_multiplier -. 1.0));
    ram_overhead = k *. t.ram_overhead;
  }
