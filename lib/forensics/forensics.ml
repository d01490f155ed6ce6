module Sc = Bunshin_syscall.Syscall
module Interp = Bunshin_ir.Interp
module Runtime_api = Bunshin_ir.Runtime_api

type syscall_rec = { r_pos : int; r_name : string; r_args : int64 list; r_time : float }

let pp_rec fmt r =
  Format.fprintf fmt "%s(%s)" r.r_name
    (String.concat ", " (List.map Int64.to_string r.r_args))

let rec_str r = Format.asprintf "%a" pp_rec r

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

module Tape = struct
  (* Parallel preallocated arrays: recording is three stores (a pointer,
     an immediate int, an unboxed float) — nothing allocates, so the
     recorder can stay on for every synced syscall like the NXE's
     always-on histograms.  [syscall_rec] values only materialize on the
     abort path ([to_list]/[find]). *)
  type t = {
    cap : int;
    scs : Sc.t array;
    poss : int array;      (* -1 = never written *)
    times : float array;
    mutable total : int;   (* records ever written *)
  }

  (* Fills never-written entries; built once, because [Sc.make] scans the
     whole syscall table for a name it will not find. *)
  let placeholder = Sc.make "tape.empty"

  let create ~depth =
    if depth < 1 then invalid_arg "Forensics.Tape.create: depth must be >= 1";
    {
      cap = depth;
      scs = Array.make depth placeholder;
      poss = Array.make depth (-1);
      times = Array.make depth 0.0;
      total = 0;
    }

  let depth t = t.cap

  let record t ~pos ~time sc =
    let i = t.total mod t.cap in
    t.scs.(i) <- sc;
    t.poss.(i) <- pos;
    t.times.(i) <- time;
    t.total <- t.total + 1

  let recorded t = t.total

  let rec_at t idx =
    { r_pos = t.poss.(idx); r_name = t.scs.(idx).Sc.name; r_args = t.scs.(idx).Sc.args;
      r_time = t.times.(idx) }

  let to_list t =
    let k = min t.total t.cap in
    List.init k (fun j -> rec_at t ((t.total - k + j) mod t.cap))

  let find t ~pos =
    let k = min t.total t.cap in
    let rec scan j =
      if j < 0 then None
      else
        let idx = (t.total - k + j) mod t.cap in
        if t.poss.(idx) = pos then Some (rec_at t idx) else scan (j - 1)
    in
    scan (k - 1)
end

(* ------------------------------------------------------------------ *)
(* Blame attribution *)

type vote = Issued of syscall_rec | Exited | Pending

type basis = Majority of int | Tie | Tie_broken_by_detection

type mismatch = Argument_mismatch | Sequence_mismatch | Premature_exit | Fault_isolation

let vote_str = function
  | Issued r -> rec_str r
  | Exited -> "<exit>"
  | Pending -> "<pending>"

(* A voter's ballot: the identity of what it did at the slot.  Pending
   variants abstain — they carry no information about the slot. *)
let ballot = function
  | Issued r -> Some (r.r_name, r.r_args)
  | Exited -> Some ("<exit>", [])
  | Pending -> None

let blame ~votes ~flagged =
  let n = Array.length votes in
  if flagged < 0 || flagged >= n then invalid_arg "Forensics.blame: flagged out of range";
  (* Group voters by ballot, preserving first-seen order. *)
  let groups : ((string * int64 list) * int list ref) list ref = ref [] in
  Array.iteri
    (fun v vote ->
      match ballot vote with
      | None -> ()
      | Some key -> (
        match List.assoc_opt key !groups with
        | Some l -> l := v :: !l
        | None -> groups := !groups @ [ (key, ref [ v ]) ]))
    votes;
  let sized =
    List.map (fun (_, l) -> (List.rev !l, List.length !l)) !groups
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  match sized with
  | [] | [ _ ] -> (flagged, Tie) (* zero or one ballot: no visible disagreement *)
  | (_, top) :: (_, second) :: _ when top = second -> (flagged, Tie)
  | (winners, top) :: _ -> (
    let outliers =
      List.filter
        (fun v -> ballot votes.(v) <> None && not (List.mem v winners))
        (List.init n Fun.id)
    in
    match outliers with
    | [ v ] -> (v, Majority top)
    | vs when List.mem flagged vs -> (flagged, Majority top)
    | v :: _ -> (v, Majority top)
    | [] -> (flagged, Tie))

let classify ~votes ~blamed =
  let n = Array.length votes in
  if blamed < 0 || blamed >= n then invalid_arg "Forensics.classify: blamed out of range";
  let peers = List.filter (fun v -> v <> blamed) (List.init n Fun.id) in
  let peer_issued =
    (* Prefer a peer that actually disagrees with the blamed variant. *)
    let issued =
      List.filter_map (fun v -> match votes.(v) with Issued r -> Some r | _ -> None) peers
    in
    match
      List.find_opt (fun r -> ballot (Issued r) <> ballot votes.(blamed)) issued
    with
    | Some r -> Some r
    | None -> ( match issued with r :: _ -> Some r | [] -> None)
  in
  let peer_exited = List.exists (fun v -> votes.(v) = Exited) peers in
  match votes.(blamed) with
  | Exited -> Premature_exit
  | Issued r -> (
    match peer_issued with
    | Some r' ->
      if r'.r_name = r.r_name && r'.r_args <> r.r_args then Argument_mismatch
      else Sequence_mismatch
    | None -> if peer_exited then Premature_exit else Sequence_mismatch)
  | Pending -> if peer_exited then Premature_exit else Sequence_mismatch

(* ------------------------------------------------------------------ *)
(* Check-site attribution *)

type check_site = {
  cs_variant : int;
  cs_pass : string;
  cs_handler : string;
  cs_func : string;
  cs_block : string;
  cs_check_id : int;
}

let pass_of_handler h =
  if h = "unreachable" then "ir"
  else
    match
      List.find_opt
        (fun p -> String.starts_with ~prefix:p h)
        Runtime_api.report_prefixes
    with
    | None -> ""
    | Some p ->
      (* "__asan_report_" -> "asan": the segment between the leading
         underscores and the "_report" suffix names the pass. *)
      let core = String.sub p 2 (String.length p - 2) in
      (match String.index_opt core '_' with
       | Some i -> String.sub core 0 i
       | None -> core)

let check_id_of_block label =
  if not (String.starts_with ~prefix:"san." label) then -1
  else
    match String.rindex_opt label '.' with
    | None -> -1
    | Some i -> (
      match int_of_string_opt (String.sub label (i + 1) (String.length label - i - 1)) with
      | Some n -> n
      | None -> -1)

let check_site_of_detection ~variant (d : Interp.detection) =
  {
    cs_variant = variant;
    cs_pass = pass_of_handler d.Interp.d_handler;
    cs_handler = d.Interp.d_handler;
    cs_func = d.Interp.d_func;
    cs_block = d.Interp.d_block;
    cs_check_id = check_id_of_block d.Interp.d_block;
  }

(* ------------------------------------------------------------------ *)
(* Incidents *)

type incident = {
  inc_channel : int;
  inc_position : int;
  inc_blamed : int;
  inc_basis : basis;
  inc_mismatch : mismatch;
  inc_expected : string;
  inc_got : string;
  inc_time : float;
  inc_votes : vote array;
  inc_tapes : syscall_rec list array;
  inc_check_site : check_site option;
}

let expected_of ~votes ~blamed =
  let n = Array.length votes in
  let peers = List.filter (fun v -> v <> blamed) (List.init n Fun.id) in
  let differing =
    List.find_opt (fun v -> ballot votes.(v) <> None
                            && ballot votes.(v) <> ballot votes.(blamed)) peers
  in
  match differing with
  | Some v -> vote_str votes.(v)
  | None -> (
    match List.find_opt (fun v -> ballot votes.(v) <> None) peers with
    | Some v -> vote_str votes.(v)
    | None -> "<pending>")

let build ?mismatch_override ~channel ~position ~flagged ~expected ~got ~time ~votes ~tapes
    () =
  if Array.length votes <> Array.length tapes then
    invalid_arg "Forensics.build: votes/tapes length mismatch";
  if flagged < 0 || flagged >= Array.length votes then
    invalid_arg "Forensics.build: flagged out of range";
  let blamed, basis = blame ~votes ~flagged in
  {
    inc_channel = channel;
    inc_position = position;
    inc_blamed = blamed;
    inc_basis = basis;
    inc_mismatch =
      (match mismatch_override with Some m -> m | None -> classify ~votes ~blamed);
    inc_expected = expected;
    inc_got = got;
    inc_time = time;
    inc_votes = votes;
    inc_tapes = tapes;
    inc_check_site = None;
  }

let refine_with_detections inc dets =
  let get v = if v < Array.length dets then dets.(v) else None in
  let firing =
    List.filter_map
      (fun v -> Option.map (fun d -> (v, d)) (get v))
      (List.init (Array.length inc.inc_votes) Fun.id)
  in
  match firing with
  | [ (v, d) ] -> (
    let inc = { inc with inc_check_site = Some (check_site_of_detection ~variant:v d) } in
    match inc.inc_basis with
    | Tie ->
      (* The detecting variant is the one that went off-script (it issues
         the report write the others never make): break the 2-variant tie
         in its direction. *)
      let blamed = v in
      {
        inc with
        inc_blamed = blamed;
        inc_basis = Tie_broken_by_detection;
        inc_mismatch = classify ~votes:inc.inc_votes ~blamed;
        inc_expected = expected_of ~votes:inc.inc_votes ~blamed;
        inc_got = vote_str inc.inc_votes.(blamed);
      }
    | Majority _ | Tie_broken_by_detection -> inc)
  | _ -> inc

(* ------------------------------------------------------------------ *)
(* Incidents straight from interpreter runs (no NXE in the loop) *)

let strip_sys_prefix name =
  let p = Runtime_api.syscall_prefix in
  let lp = String.length p in
  if String.length name > lp && String.sub name 0 lp = p then
    String.sub name lp (String.length name - lp)
  else name

(* The virtual synchronized-syscall stream of a run: the syscalls the
   bridge's trace would put through an NXE channel, with step counts
   converted to µs — including the trailing report write of a [Detected]
   run (§5.3's extra write that betrays the detecting variant). *)
let stream_of_run ~us_per_kinstr (run : Interp.run) =
  let time step = float_of_int step *. us_per_kinstr /. 1000.0 in
  let evs =
    List.filter_map
      (fun (step, ev) ->
        let sc =
          match ev with
          | Interp.Output v -> Sc.write ~args:[ 1L; v ] ()
          | Interp.Syscall (name, args) -> Sc.make ~args (strip_sys_prefix name)
        in
        if Sc.is_synchronized sc then Some (sc, time step) else None)
      run.Interp.timeline
  in
  match run.Interp.outcome with
  | Interp.Detected _ ->
    evs @ [ (Sc.write ~args:[ 2L; 0xBADL ] (), time run.Interp.steps) ]
  | Interp.Finished _ | Interp.Crashed _ | Interp.Fuel_exhausted -> evs

let incident_of_runs ?(depth = 16) ?(us_per_kinstr = 10.0) runs =
  if depth < 1 then invalid_arg "Forensics.incident_of_runs: depth must be >= 1";
  match runs with
  | [] | [ _ ] -> None
  | _ ->
    let streams =
      Array.of_list (List.map (fun r -> Array.of_list (stream_of_run ~us_per_kinstr r)) runs)
    in
    let n = Array.length streams in
    let maxlen = Array.fold_left (fun acc s -> max acc (Array.length s)) 0 streams in
    let agree_at p =
      let present =
        List.filter_map
          (fun v ->
            if p < Array.length streams.(v) then Some (fst streams.(v).(p)) else None)
          (List.init n Fun.id)
      in
      match present with
      | [] -> true
      | first :: rest ->
        List.length present = n && List.for_all (Sc.args_match first) rest
    in
    let rec first_divergence p =
      if p >= maxlen then None else if agree_at p then first_divergence (p + 1) else Some p
    in
    (match first_divergence 0 with
     | None -> None
     | Some p ->
       let votes =
         Array.map
           (fun s ->
             if p < Array.length s then
               let sc, t = s.(p) in
               Issued { r_pos = p; r_name = sc.Sc.name; r_args = sc.Sc.args; r_time = t }
             else Exited)
           streams
       in
       let tapes =
         Array.map
           (fun s ->
             let upto = min (Array.length s) (p + 1) in
             let first = max 0 (upto - depth) in
             List.init (upto - first) (fun j ->
                 let sc, t = s.(first + j) in
                 { r_pos = first + j; r_name = sc.Sc.name; r_args = sc.Sc.args; r_time = t }))
           streams
       in
       let flagged =
         let rec go v =
           if v >= n then 1
           else if ballot votes.(v) <> ballot votes.(0) then v
           else go (v + 1)
         in
         go 1
       in
       let blamed, _ = blame ~votes ~flagged in
       let time =
         match votes.(blamed) with
         | Issued r -> r.r_time
         | _ ->
           Array.fold_left
             (fun acc tape ->
               List.fold_left (fun acc r -> Float.max acc r.r_time) acc tape)
             0.0 tapes
       in
       Some
         (build ~channel:0 ~position:p ~flagged
            ~expected:(expected_of ~votes ~blamed)
            ~got:(vote_str votes.(blamed))
            ~time ~votes ~tapes ()))

(* ------------------------------------------------------------------ *)
(* Text rendering *)

let basis_str = function
  | Majority k -> Printf.sprintf "outvoted by %d agreeing peer%s" k (if k = 1 then "" else "s")
  | Tie -> "tie: flagged by the monitor's first failing comparison"
  | Tie_broken_by_detection -> "tie broken by sanitizer detection"

let mismatch_str = function
  | Argument_mismatch -> "argument mismatch"
  | Sequence_mismatch -> "sequence mismatch"
  | Premature_exit -> "premature exit"
  | Fault_isolation -> "fault isolation (benign)"

let to_text inc =
  let b = Buffer.create 512 in
  let n = Array.length inc.inc_votes in
  Buffer.add_string b
    (Printf.sprintf "divergence incident: channel %d, slot %d, t=%.2f us\n" inc.inc_channel
       inc.inc_position inc.inc_time);
  Buffer.add_string b
    (Printf.sprintf "blamed: variant %d of %d (%s; %s)\n" inc.inc_blamed n
       (basis_str inc.inc_basis) (mismatch_str inc.inc_mismatch));
  Buffer.add_string b (Printf.sprintf "expected: %s\n" inc.inc_expected);
  Buffer.add_string b (Printf.sprintf "got:      %s\n" inc.inc_got);
  (match inc.inc_check_site with
   | Some cs ->
     Buffer.add_string b
       (Printf.sprintf "check site: %s%s via %s in %s%s (variant %d)\n" cs.cs_pass
          (if cs.cs_check_id >= 0 then Printf.sprintf " check #%d" cs.cs_check_id else "")
          cs.cs_handler cs.cs_func
          (if cs.cs_block = "" then "" else " @ " ^ cs.cs_block)
          cs.cs_variant)
   | None -> Buffer.add_string b "check site: none attributed\n");
  Buffer.add_string b
    (Printf.sprintf "tapes (last %d slots; >> marks slot %d, !! marks the disagreement):\n"
       (Array.fold_left (fun acc t -> max acc (List.length t)) 0 inc.inc_tapes)
       inc.inc_position);
  Array.iteri
    (fun v tape ->
      Buffer.add_string b
        (Printf.sprintf "  v%d%s:\n" v (if v = inc.inc_blamed then " (blamed)" else ""));
      if tape = [] then
        Buffer.add_string b
          (Printf.sprintf "    %s\n"
             (match inc.inc_votes.(v) with
              | Exited -> "<exited before this window>"
              | Pending -> "<no syscalls recorded>"
              | Issued _ -> "<tape empty>"))
      else
        List.iter
          (fun r ->
            let at_div = r.r_pos = inc.inc_position in
            let s = rec_str r in
            Buffer.add_string b
              (Printf.sprintf "    %s %4d  %s%s\n"
                 (if at_div then ">>" else "  ")
                 r.r_pos s
                 (if at_div && s <> inc.inc_expected then "  !!" else "")))
          tape;
      (match inc.inc_votes.(v) with
       | Exited when List.for_all (fun r -> r.r_pos < inc.inc_position) tape ->
         Buffer.add_string b
           (Printf.sprintf "    >> %4d  <exit>%s\n" inc.inc_position
              (if "<exit>" <> inc.inc_expected then "  !!" else ""))
       | Pending ->
         Buffer.add_string b
           (Printf.sprintf "    >> %4d  <pending: never arrived>\n" inc.inc_position)
       | _ -> ()))
    inc.inc_tapes;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let num_str f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let rec to_string = function
    | Null -> "null"
    | Bool b -> if b then "true" else "false"
    | Num f -> num_str f
    | Str s -> "\"" ^ escape s ^ "\""
    | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
    | Obj l ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) l)
      ^ "}"

  let member k = function Obj l -> List.assoc_opt k l | _ -> None

  exception Bad of string

  let parse s =
    let len = String.length s in
    let pos = ref 0 in
    let error msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> error (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else error ("expected " ^ word)
    in
    let utf8_of_code b code =
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else if code < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let hex4 () =
      if !pos + 4 > len then error "truncated \\u escape";
      let h = String.sub s !pos 4 in
      pos := !pos + 4;
      match int_of_string_opt ("0x" ^ h) with
      | Some v -> v
      | None -> error "bad \\u escape"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> error "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          (match peek () with
           | Some '"' -> Buffer.add_char b '"'; advance ()
           | Some '\\' -> Buffer.add_char b '\\'; advance ()
           | Some '/' -> Buffer.add_char b '/'; advance ()
           | Some 'b' -> Buffer.add_char b '\b'; advance ()
           | Some 'f' -> Buffer.add_char b '\012'; advance ()
           | Some 'n' -> Buffer.add_char b '\n'; advance ()
           | Some 'r' -> Buffer.add_char b '\r'; advance ()
           | Some 't' -> Buffer.add_char b '\t'; advance ()
           | Some 'u' ->
             advance ();
             let c1 = hex4 () in
             let code =
               (* Combine a surrogate pair when the low half follows. *)
               if c1 >= 0xD800 && c1 <= 0xDBFF && !pos + 6 <= len
                  && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let c2 = hex4 () in
                 if c2 >= 0xDC00 && c2 <= 0xDFFF then
                   0x10000 + ((c1 - 0xD800) lsl 10) + (c2 - 0xDC00)
                 else c1
               end
               else c1
             in
             utf8_of_code b code
           | _ -> error "bad escape");
          go ())
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let consume pred =
        while (match peek () with Some c -> pred c | None -> false) do
          advance ()
        done
      in
      (match peek () with Some '-' -> advance () | _ -> ());
      consume (fun c -> c >= '0' && c <= '9');
      (match peek () with
       | Some '.' ->
         advance ();
         consume (fun c -> c >= '0' && c <= '9')
       | _ -> ());
      (match peek () with
       | Some ('e' | 'E') ->
         advance ();
         (match peek () with Some ('+' | '-') -> advance () | _ -> ());
         consume (fun c -> c >= '0' && c <= '9')
       | _ -> ());
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> error "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> error "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> len then error "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
end

(* ------------------------------------------------------------------ *)
(* Incident <-> JSON *)

let json_of_rec r =
  Json.Obj
    [
      ("pos", Json.Num (float_of_int r.r_pos));
      ("name", Json.Str r.r_name);
      ("args", Json.Arr (List.map (fun a -> Json.Str (Int64.to_string a)) r.r_args));
      ("time", Json.Num r.r_time);
    ]

let json_of_vote = function
  | Issued r -> Json.Obj [ ("kind", Json.Str "issued"); ("rec", json_of_rec r) ]
  | Exited -> Json.Obj [ ("kind", Json.Str "exited") ]
  | Pending -> Json.Obj [ ("kind", Json.Str "pending") ]

let json_of_basis = function
  | Majority k ->
    Json.Obj [ ("kind", Json.Str "majority"); ("agreeing", Json.Num (float_of_int k)) ]
  | Tie -> Json.Obj [ ("kind", Json.Str "tie") ]
  | Tie_broken_by_detection -> Json.Obj [ ("kind", Json.Str "tie-detection") ]

let json_of_mismatch = function
  | Argument_mismatch -> Json.Str "argument"
  | Sequence_mismatch -> Json.Str "sequence"
  | Premature_exit -> Json.Str "premature-exit"
  | Fault_isolation -> Json.Str "fault-isolation"

let json_of_check_site cs =
  Json.Obj
    [
      ("variant", Json.Num (float_of_int cs.cs_variant));
      ("pass", Json.Str cs.cs_pass);
      ("handler", Json.Str cs.cs_handler);
      ("func", Json.Str cs.cs_func);
      ("block", Json.Str cs.cs_block);
      ("check_id", Json.Num (float_of_int cs.cs_check_id));
    ]

let to_json inc =
  Json.to_string
    (Json.Obj
       [
         ("channel", Json.Num (float_of_int inc.inc_channel));
         ("position", Json.Num (float_of_int inc.inc_position));
         ("blamed", Json.Num (float_of_int inc.inc_blamed));
         ("basis", json_of_basis inc.inc_basis);
         ("mismatch", json_of_mismatch inc.inc_mismatch);
         ("expected", Json.Str inc.inc_expected);
         ("got", Json.Str inc.inc_got);
         ("time", Json.Num inc.inc_time);
         ("votes", Json.Arr (Array.to_list (Array.map json_of_vote inc.inc_votes)));
         ( "tapes",
           Json.Arr
             (Array.to_list
                (Array.map (fun t -> Json.Arr (List.map json_of_rec t)) inc.inc_tapes)) );
         ( "check_site",
           match inc.inc_check_site with
           | Some cs -> json_of_check_site cs
           | None -> Json.Null );
       ])

exception Decode of string

let dfail msg = raise (Decode msg)

let dmember k j =
  match Json.member k j with Some v -> v | None -> dfail ("missing field " ^ k)

let dint k j =
  match dmember k j with
  | Json.Num f -> int_of_float f
  | _ -> dfail ("field " ^ k ^ " is not a number")

let dfloat k j =
  match dmember k j with
  | Json.Num f -> f
  | _ -> dfail ("field " ^ k ^ " is not a number")

let dstr k j =
  match dmember k j with
  | Json.Str s -> s
  | _ -> dfail ("field " ^ k ^ " is not a string")

let darr k j =
  match dmember k j with
  | Json.Arr l -> l
  | _ -> dfail ("field " ^ k ^ " is not an array")

let rec_of_json j =
  {
    r_pos = dint "pos" j;
    r_name = dstr "name" j;
    r_args =
      List.map
        (function
          | Json.Str s -> (
            match Int64.of_string_opt s with
            | Some v -> v
            | None -> dfail "bad int64 argument")
          | _ -> dfail "argument is not a string")
        (darr "args" j);
    r_time = dfloat "time" j;
  }

let vote_of_json j =
  match dstr "kind" j with
  | "issued" -> Issued (rec_of_json (dmember "rec" j))
  | "exited" -> Exited
  | "pending" -> Pending
  | k -> dfail ("unknown vote kind " ^ k)

let basis_of_json j =
  match dstr "kind" j with
  | "majority" -> Majority (dint "agreeing" j)
  | "tie" -> Tie
  | "tie-detection" -> Tie_broken_by_detection
  | k -> dfail ("unknown basis kind " ^ k)

let mismatch_of_json = function
  | Json.Str "argument" -> Argument_mismatch
  | Json.Str "sequence" -> Sequence_mismatch
  | Json.Str "premature-exit" -> Premature_exit
  | Json.Str "fault-isolation" -> Fault_isolation
  | _ -> dfail "unknown mismatch"

let check_site_of_json j =
  {
    cs_variant = dint "variant" j;
    cs_pass = dstr "pass" j;
    cs_handler = dstr "handler" j;
    cs_func = dstr "func" j;
    cs_block = dstr "block" j;
    cs_check_id = dint "check_id" j;
  }

let of_json s =
  match Json.parse s with
  | Error e -> Error ("Forensics.of_json: " ^ e)
  | Ok j -> (
    match
      {
        inc_channel = dint "channel" j;
        inc_position = dint "position" j;
        inc_blamed = dint "blamed" j;
        inc_basis = basis_of_json (dmember "basis" j);
        inc_mismatch = mismatch_of_json (dmember "mismatch" j);
        inc_expected = dstr "expected" j;
        inc_got = dstr "got" j;
        inc_time = dfloat "time" j;
        inc_votes = Array.of_list (List.map vote_of_json (darr "votes" j));
        inc_tapes =
          Array.of_list
            (List.map
               (function
                 | Json.Arr recs -> List.map rec_of_json recs
                 | _ -> dfail "tape is not an array")
               (darr "tapes" j));
        inc_check_site =
          (match dmember "check_site" j with
           | Json.Null -> None
           | cs -> Some (check_site_of_json cs));
      }
    with
    | inc -> Ok inc
    | exception Decode msg -> Error ("Forensics.of_json: " ^ msg))
