(* Perf-regression gate over versioned bench JSON (the BENCH_*.json shape:
   {"schema_version":1,"section":...,"quick":...,"suites":[{"name":...,
   <numeric metrics>...}]}).  A fresh run is compared suite-by-suite
   against a committed baseline under per-metric thresholds; any breach is
   a regression and the CLI turns it into a non-zero exit. *)

module Json = Bunshin_util.Json

let schema_version = 1

type direction = Lower_is_better | Higher_is_better

type threshold = { t_metric : string; t_direction : direction; t_tolerance : float }

let threshold ?(direction = Lower_is_better) ~tolerance metric =
  if tolerance < 0.0 || not (Float.is_finite tolerance) then
    invalid_arg "Gate.threshold: tolerance must be finite and non-negative";
  { t_metric = metric; t_direction = direction; t_tolerance = tolerance }

type comparison = {
  c_suite : string;
  c_metric : string;
  c_baseline : float;
  c_fresh : float;
  c_ratio : float;     (* fresh / baseline; 1.0 when baseline = 0 and fresh = 0 *)
  c_regressed : bool;
}

type result_t = {
  r_section : string;
  r_comparisons : comparison list;
  r_regressions : comparison list;
  r_missing : string list; (* suites/metrics the fresh run no longer has *)
}

let passed r = r.r_regressions = [] && r.r_missing = []

(* ------------------------------------------------------------------ *)
(* Document decoding *)

type suite = { su_name : string; su_metrics : (string * float) list }

type doc = { d_section : string; d_quick : bool; d_suites : suite list }

let decode_doc s =
  match Json.parse s with
  | Error e -> Error ("bench JSON: " ^ e)
  | Ok j -> (
    let str name = match Json.member name j with Some (Json.Str v) -> Some v | _ -> None in
    match Json.member "schema_version" j with
    | Some (Json.Num v) when int_of_float v <> schema_version ->
      Error
        (Printf.sprintf "bench JSON: schema_version %d, expected %d" (int_of_float v)
           schema_version)
    | None -> Error "bench JSON: missing schema_version"
    | _ -> (
      match Json.member "suites" j with
      | Some (Json.Arr suites) ->
        let decode_suite sj =
          match (sj, Json.member "name" sj) with
          | Json.Obj fields, Some (Json.Str name) ->
            let metrics =
              List.filter_map
                (fun (k, v) -> match v with Json.Num n -> Some (k, n) | _ -> None)
                fields
            in
            Ok { su_name = name; su_metrics = metrics }
          | _ -> Error "bench JSON: suite without a name"
        in
        let rec all acc = function
          | [] -> Ok (List.rev acc)
          | s :: rest -> (
            match decode_suite s with Ok d -> all (d :: acc) rest | Error e -> Error e)
        in
        (match all [] suites with
         | Error e -> Error e
         | Ok ds ->
           Ok
             {
               d_section = Option.value ~default:"?" (str "section");
               d_quick =
                 (match Json.member "quick" j with Some (Json.Bool b) -> b | _ -> false);
               d_suites = ds;
             })
      | _ -> Error "bench JSON: missing suites array"))

(* ------------------------------------------------------------------ *)
(* Comparison *)

let compare_docs ~thresholds ~(baseline : doc) ~(fresh : doc) =
  let comparisons = ref [] and missing = ref [] in
  List.iter
    (fun bs ->
      match List.find_opt (fun s -> s.su_name = bs.su_name) fresh.d_suites with
      | None -> missing := Printf.sprintf "suite %s" bs.su_name :: !missing
      | Some fs ->
        List.iter
          (fun th ->
            match List.assoc_opt th.t_metric bs.su_metrics with
            | None -> () (* baseline never tracked it; nothing to gate *)
            | Some bv -> (
              match List.assoc_opt th.t_metric fs.su_metrics with
              | None ->
                missing := Printf.sprintf "%s.%s" bs.su_name th.t_metric :: !missing
              | Some fv ->
                let ratio = if bv = 0.0 then (if fv = 0.0 then 1.0 else infinity) else fv /. bv in
                let regressed =
                  match th.t_direction with
                  | Lower_is_better -> ratio > 1.0 +. th.t_tolerance
                  | Higher_is_better -> ratio < 1.0 -. th.t_tolerance
                in
                comparisons :=
                  {
                    c_suite = bs.su_name;
                    c_metric = th.t_metric;
                    c_baseline = bv;
                    c_fresh = fv;
                    c_ratio = ratio;
                    c_regressed = regressed;
                  }
                  :: !comparisons))
          thresholds)
    baseline.d_suites;
  let comparisons = List.rev !comparisons in
  {
    r_section = baseline.d_section;
    r_comparisons = comparisons;
    r_regressions = List.filter (fun c -> c.c_regressed) comparisons;
    r_missing = List.rev !missing;
  }

let compare_json ~thresholds ~baseline ~fresh =
  match decode_doc baseline with
  | Error e -> Error ("baseline: " ^ e)
  | Ok b -> (
    match decode_doc fresh with
    | Error e -> Error ("fresh run: " ^ e)
    | Ok f ->
      if b.d_quick <> f.d_quick then
        Error
          (Printf.sprintf "quick-mode mismatch: baseline quick=%b, fresh quick=%b — rerun with matching flags"
             b.d_quick f.d_quick)
      else Ok (compare_docs ~thresholds ~baseline:b ~fresh:f))

let result_to_text r =
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "perf gate: section %s — %d comparison(s), %d regression(s), %d missing\n" r.r_section
    (List.length r.r_comparisons) (List.length r.r_regressions) (List.length r.r_missing);
  List.iter
    (fun c ->
      p "  %s %s/%s: baseline %.6g fresh %.6g (x%.3f)\n"
        (if c.c_regressed then "FAIL" else "ok  ")
        c.c_suite c.c_metric c.c_baseline c.c_fresh c.c_ratio)
    r.r_comparisons;
  List.iter (fun m -> p "  FAIL missing in fresh run: %s\n" m) r.r_missing;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Emission: the versioned document bench sections write *)

let emit_json ~section ~quick suites =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n  \"schema_version\": %d,\n  \"section\": \"%s\",\n  \"quick\": %b,\n  \"suites\": [\n"
    schema_version section quick;
  List.iteri
    (fun i (name, metrics) ->
      if i > 0 then p ",\n";
      p "    { \"name\": \"%s\"" name;
      List.iter
        (fun (k, v) ->
          if Float.is_finite v then p ",\n      \"%s\": %.6g" k v
          else p ",\n      \"%s\": null" k)
        metrics;
      p " }")
    suites;
  p "\n  ]\n}\n";
  Buffer.contents buf
