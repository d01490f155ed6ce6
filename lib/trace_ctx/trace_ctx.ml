(* Span recorder.  Spans live in preallocated struct-of-arrays columns
   (PR-7 discipline: no records, no per-span allocation; names and texts
   are strings the caller already holds); analysis functions and the
   exporter at the bottom allocate freely but run only after the
   simulation.  See trace_ctx.mli for the model. *)

module Json = Bunshin_util.Json

type kind =
  | Rendezvous
  | Publish
  | Fetch
  | Arrival
  | Lockstep_wait
  | Sanitizer
  | Sched_wait
  | Net_msg
  | Slice
  | Mark

let kind_name = function
  | Rendezvous -> "rendezvous"
  | Publish -> "publish"
  | Fetch -> "fetch"
  | Arrival -> "arrival"
  | Lockstep_wait -> "lockstep_wait"
  | Sanitizer -> "sanitizer"
  | Sched_wait -> "sched_wait"
  | Net_msg -> "net_msg"
  | Slice -> "slice"
  | Mark -> "mark"

(* An entry outside every tree (trace -1) keeps its clock domain in the
   node column, its track in the channel column, its name, detail key and
   detail text in the string columns, and a mark's value in [s_a0] (NaN
   for none). *)
type t = {
  cap : int;
  mutable len : int;
  mutable drop : int;
  mutable next_trace : int;
  s_kind : kind array; (* constant constructors: stored unboxed *)
  s_trace : int array;
  s_parent : int array;
  s_node : int array;
  s_variant : int array;
  s_chan : int array;
  s_pos : int array;
  s_t0 : float array;
  s_t1 : float array; (* nan while open *)
  s_a0 : float array;
  s_a1 : float array;
  s_a2 : float array;
  s_name : string array;
  s_key : string array;
  s_text : string array;
  mutable domains : string list; (* newest first *)
  mutable tracks : ((int * int) * string) list; (* newest first *)
}

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace_ctx.create: capacity must be positive";
  {
    cap = capacity;
    len = 0;
    drop = 0;
    next_trace = 0;
    s_kind = Array.make capacity Rendezvous;
    s_trace = Array.make capacity (-1);
    s_parent = Array.make capacity (-1);
    s_node = Array.make capacity 0;
    s_variant = Array.make capacity (-1);
    s_chan = Array.make capacity (-1);
    s_pos = Array.make capacity (-1);
    s_t0 = Array.make capacity 0.0;
    s_t1 = Array.make capacity nan;
    s_a0 = Array.make capacity 0.0;
    s_a1 = Array.make capacity 0.0;
    s_a2 = Array.make capacity 0.0;
    s_name = Array.make capacity "";
    s_key = Array.make capacity "";
    s_text = Array.make capacity "";
    domains = [];
    tracks = [];
  }

let used tc = tc.len
let dropped tc = tc.drop

let new_trace tc =
  let id = tc.next_trace in
  tc.next_trace <- id + 1;
  id

(* The store never evicts, so each slot is written once: the columns'
   initial values (open, no annotations, no name) stand for unset
   fields. *)
let start tc kind ~trace ~parent ~node ~variant ~chan ~pos ~t0 =
  if tc.len >= tc.cap then begin
    tc.drop <- tc.drop + 1;
    -1
  end
  else begin
    let id = tc.len in
    tc.len <- id + 1;
    tc.s_kind.(id) <- kind;
    tc.s_trace.(id) <- trace;
    tc.s_parent.(id) <- parent;
    tc.s_node.(id) <- node;
    tc.s_variant.(id) <- variant;
    tc.s_chan.(id) <- chan;
    tc.s_pos.(id) <- pos;
    tc.s_t0.(id) <- t0;
    id
  end

let finish tc id ~t1 = if id >= 0 && id < tc.len then tc.s_t1.(id) <- t1
let is_open tc id = id >= 0 && id < tc.len && Float.is_nan tc.s_t1.(id)

let extend_t0 tc id ~t0 =
  if id >= 0 && id < tc.len && t0 < tc.s_t0.(id) then tc.s_t0.(id) <- t0

let annotate tc id ~a0 ~a1 ~a2 =
  if id >= 0 && id < tc.len then begin
    tc.s_a0.(id) <- a0;
    tc.s_a1.(id) <- a1;
    tc.s_a2.(id) <- a2
  end

let record tc kind ~trace ~parent ~node ~variant ~chan ~pos ~t0 ~t1 =
  let id = start tc kind ~trace ~parent ~node ~variant ~chan ~pos ~t0 in
  finish tc id ~t1;
  id

let record_child tc kind ~parent ~node ~variant ~chan ~pos ~t0 ~t1 =
  if parent < 0 || parent >= tc.len then -1
  else begin
    let pt1 = tc.s_t1.(parent) in
    if Float.is_finite pt1 && t1 > pt1 then -1
    else begin
      let t0 = Float.max t0 tc.s_t0.(parent) in
      if t1 < t0 then -1
      else
        record tc kind ~trace:tc.s_trace.(parent) ~parent ~node ~variant ~chan ~pos ~t0
          ~t1
    end
  end

(* ------------------------------------------------------------------ *)
(* Entries outside every tree *)

let domain tc ~name =
  tc.domains <- name :: tc.domains;
  List.length tc.domains - 1

let name_track tc ~domain ~tid name =
  tc.tracks <- ((domain, tid), name) :: List.remove_assoc (domain, tid) tc.tracks

let entry tc kind ~domain ~tid ~variant ~t0 name =
  let id =
    start tc kind ~trace:(-1) ~parent:(-1) ~node:domain ~variant ~chan:tid ~pos:(-1) ~t0
  in
  if id >= 0 then tc.s_name.(id) <- name;
  id

let open_slice tc ~domain ~tid ~t0 name = entry tc Slice ~domain ~tid ~variant:(-1) ~t0 name

let slice tc ~domain ~tid ~t0 ~t1 name =
  finish tc (entry tc Slice ~domain ~tid ~variant:(-1) ~t0 name) ~t1

let mark tc ~domain ~tid ~variant ~key ~text ~value ~ts name =
  let id = entry tc Mark ~domain ~tid ~variant ~t0:ts name in
  if id >= 0 then begin
    tc.s_t1.(id) <- ts;
    tc.s_a0.(id) <- value;
    tc.s_key.(id) <- key;
    tc.s_text.(id) <- text
  end

(* ------------------------------------------------------------------ *)
(* Post-run analysis *)

type span = {
  sp_id : int;
  sp_kind : kind;
  sp_trace : int;
  sp_parent : int;
  sp_node : int;
  sp_variant : int;
  sp_chan : int;
  sp_pos : int;
  sp_t0 : float;
  sp_t1 : float;
  sp_a0 : float;
  sp_a1 : float;
  sp_a2 : float;
}

let span_t0 tc id = if id >= 0 && id < tc.len then tc.s_t0.(id) else 0.0

let span tc id =
  if id < 0 || id >= tc.len then invalid_arg "Trace_ctx.span: id out of range";
  {
    sp_id = id;
    sp_kind = tc.s_kind.(id);
    sp_trace = tc.s_trace.(id);
    sp_parent = tc.s_parent.(id);
    sp_node = tc.s_node.(id);
    sp_variant = tc.s_variant.(id);
    sp_chan = tc.s_chan.(id);
    sp_pos = tc.s_pos.(id);
    sp_t0 = tc.s_t0.(id);
    sp_t1 = tc.s_t1.(id);
    sp_a0 = tc.s_a0.(id);
    sp_a1 = tc.s_a1.(id);
    sp_a2 = tc.s_a2.(id);
  }

let spans tc = List.init tc.len (fun id -> span tc id)

let traces tc =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  for id = 0 to tc.len - 1 do
    let tr = tc.s_trace.(id) in
    if tr >= 0 && not (Hashtbl.mem seen tr) then begin
      Hashtbl.add seen tr ();
      out := tr :: !out
    end
  done;
  List.rev !out

let tree tc trace =
  List.filter_map
    (fun id -> if tc.s_trace.(id) = trace then Some (span tc id) else None)
    (List.init tc.len (fun i -> i))

let nodes_spanned tc trace =
  let seen = Hashtbl.create 8 in
  for id = 0 to tc.len - 1 do
    if tc.s_trace.(id) = trace && not (Hashtbl.mem seen tc.s_node.(id)) then
      Hashtbl.add seen tc.s_node.(id) ()
  done;
  Hashtbl.length seen

let well_formed tc =
  let eps = 1e-6 in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  for id = 0 to tc.len - 1 do
    let p = tc.s_parent.(id) in
    if p >= 0 then begin
      (* Acyclic by construction iff every parent was recorded first. *)
      if p >= id then fail "span %d: parent %d does not precede it" id p
      else if p >= tc.len then fail "span %d: parent %d never recorded" id p
      else begin
        if tc.s_trace.(p) <> tc.s_trace.(id) then
          fail "span %d (trace %d): parent %d is in trace %d" id tc.s_trace.(id) p
            tc.s_trace.(p);
        if tc.s_t0.(id) +. eps < tc.s_t0.(p) then
          fail "span %d: opens %.3f before its parent %d (%.3f)" id tc.s_t0.(id) p
            tc.s_t0.(p);
        let t1 = tc.s_t1.(id) and pt1 = tc.s_t1.(p) in
        if Float.is_finite t1 && Float.is_finite pt1 && t1 > pt1 +. eps then
          fail "span %d: closes %.3f after its parent %d (%.3f)" id t1 p pt1
      end
    end;
    let t1 = tc.s_t1.(id) in
    if Float.is_finite t1 && t1 +. eps < tc.s_t0.(id) then
      fail "span %d: negative interval (%.3f .. %.3f)" id tc.s_t0.(id) t1
  done;
  match !err with None -> Ok () | Some e -> Error e

(* ------------------------------------------------------------------ *)
(* Critical-path attribution *)

type cause =
  | Straggler of int
  | Link_serialization
  | Link_latency
  | Link_retransmit
  | Sched of int
  | Publish_cost

let cause_name = function
  | Straggler v -> Printf.sprintf "straggler v%d" v
  | Link_serialization -> "link serialization"
  | Link_latency -> "link latency"
  | Link_retransmit -> "link retransmit"
  | Sched n -> Printf.sprintf "sched wait node%d" n
  | Publish_cost -> "leader publish"

type path = {
  pa_trace : int;
  pa_chan : int;
  pa_pos : int;
  pa_latency : float;
  pa_cause : cause;
  pa_edge_us : float;
}

(* The deciding child of a span is the closed child finishing last.  Some
   kinds are symptoms rather than causes and are considered only when
   nothing else explains the tail: the leader's Lockstep_wait (it ends
   exactly when the straggler arrives) and Fetch (the post-release
   epilogue — consuming the slot never delayed the release).  At the
   {e root} level, Net_msg children join them: a root-direct link span is
   either a ship leg (upstream of the arrival it gates — its delay shows
   up inside that arrival and is netted out there) or a release leg (the
   retirement epilogue, which by construction outlives every arrival and
   would otherwise always win), so neither is ever the decision. *)
let deciding_child ?(at_root = false) tc children =
  let best = ref (-1) and best_t1 = ref neg_infinity in
  let pick level =
    List.iter
      (fun id ->
        let k = tc.s_kind.(id) in
        let ok =
          match level with
          | 0 -> k <> Lockstep_wait && k <> Fetch && not (at_root && k = Net_msg)
          | 1 -> k <> Lockstep_wait && k <> Fetch
          | _ -> true
        in
        let t1 = tc.s_t1.(id) in
        if ok && Float.is_finite t1 && t1 >= !best_t1 then begin
          best := id;
          best_t1 := t1
        end)
      children
  in
  pick 0;
  if !best < 0 then pick 1;
  if !best < 0 then pick 2;
  !best

let critical_paths tc =
  (* children indexed once: children.(p) = ids with parent p, in order *)
  let children = Array.make (max 1 tc.len) [] in
  for id = tc.len - 1 downto 0 do
    let p = tc.s_parent.(id) in
    if p >= 0 && p < tc.len then children.(p) <- id :: children.(p)
  done;
  let classify id =
    let k = tc.s_kind.(id) in
    let dur =
      let t1 = tc.s_t1.(id) in
      if Float.is_finite t1 then t1 -. tc.s_t0.(id) else 0.0
    in
    match k with
    | Net_msg ->
      let a0 = tc.s_a0.(id) and a1 = tc.s_a1.(id) and a2 = tc.s_a2.(id) in
      let c =
        if a2 >= a0 && a2 >= a1 then Link_retransmit
        else if a0 >= a1 then Link_serialization
        else Link_latency
      in
      (c, dur)
    | Sched_wait | Lockstep_wait -> (Sched tc.s_node.(id), dur)
    | Publish -> (Publish_cost, dur)
    | Arrival | Fetch | Sanitizer | Rendezvous | Slice | Mark ->
      (Straggler tc.s_variant.(id), dur)
  in
  (* Follow deciding children down from the root, collecting one
     (cause, duration) per chain element; the chain ends at a leaf, at an
     arrival (decomposed below), or at a nested rendezvous, which owns its
     own tail.  The path's cause is the LARGEST edge on the chain, not the
     leaf: a straggler's ack ends the chain with a wire hop, but if the
     variant's lateness dwarfs the hop, the lateness — not the link —
     determined the latency.

     An arrival's interval spans everything that gated it: the ship leg
     that delivered the slot to its node (a root-direct Net_msg sibling)
     and the ack leg that reported it back (a nested Net_msg child).  Its
     straggler edge is the remainder after netting those wire hops out,
     and the hops enter the chain as their own link edges — this is what
     separates "the variant computed slowly" from "the wire was slow" on
     a cluster, where both end the same chain. *)
  let out = ref [] in
  for id = 0 to tc.len - 1 do
    if
      tc.s_parent.(id) < 0
      && tc.s_kind.(id) = Rendezvous
      && Float.is_finite tc.s_t1.(id)
    then begin
      let root_children = children.(id) in
      (* The ship leg gating an arrival on [node]: the latest root-direct
         link span to that node delivered before the arrival closed
         (release legs deliver after it, so they never qualify). *)
      let ship_leg node t_end =
        let best = ref (-1) and best_t1 = ref neg_infinity in
        List.iter
          (fun c ->
            if tc.s_kind.(c) = Net_msg && tc.s_node.(c) = node
            then begin
              let t1 = tc.s_t1.(c) in
              if Float.is_finite t1 && t1 <= t_end && t1 >= !best_t1 then begin
                best := c;
                best_t1 := t1
              end
            end)
          root_children;
        if !best < 0 then [] else [ classify !best ]
      in
      let rec chain acc cid =
        if tc.s_kind.(cid) = Arrival then begin
          let t1 = tc.s_t1.(cid) in
          let dur = if Float.is_finite t1 then t1 -. tc.s_t0.(cid) else 0.0 in
          let acks =
            List.filter_map
              (fun c ->
                if
                  tc.s_kind.(c) = Net_msg
                  && Float.is_finite tc.s_t1.(c)
                then Some (classify c)
                else None)
              children.(cid)
          in
          let wire =
            ship_leg tc.s_node.(cid) (if Float.is_finite t1 then t1 else infinity)
            @ acks
          in
          let paid = List.fold_left (fun a (_, d) -> a +. d) 0.0 wire in
          ((Straggler tc.s_variant.(cid), Float.max 0.0 (dur -. paid)) :: wire)
          @ acc
        end
        else begin
          let acc = classify cid :: acc in
          match deciding_child tc children.(cid) with
          | -1 -> acc
          | c ->
            if tc.s_kind.(c) = Rendezvous then acc else chain acc c
        end
      in
      let cause, edge =
        match deciding_child ~at_root:true tc root_children with
        | -1 -> (Publish_cost, tc.s_t1.(id) -. tc.s_t0.(id))
        | c ->
          (match chain [] c with
           | [] -> (Publish_cost, tc.s_t1.(id) -. tc.s_t0.(id))
           | e :: es ->
             List.fold_left
               (fun (bc, bd) (c', d') -> if d' > bd then (c', d') else (bc, bd))
               e es)
      in
      out :=
        {
          pa_trace = tc.s_trace.(id);
          pa_chan = tc.s_chan.(id);
          pa_pos = tc.s_pos.(id);
          pa_latency = tc.s_t1.(id) -. tc.s_t0.(id);
          pa_cause = cause;
          pa_edge_us = edge;
        }
        :: !out
    end
  done;
  List.rev !out

type attribution = {
  ca_cause : cause;
  ca_count : int;
  ca_total_us : float;
  ca_share : float;
}

let attribute paths =
  let total = List.fold_left (fun acc p -> acc +. p.pa_latency) 0.0 paths in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let c, us = try Hashtbl.find tbl p.pa_cause with Not_found -> (0, 0.0) in
      Hashtbl.replace tbl p.pa_cause (c + 1, us +. p.pa_latency))
    paths;
  Hashtbl.fold
    (fun cause (count, us) acc ->
      {
        ca_cause = cause;
        ca_count = count;
        ca_total_us = us;
        ca_share = (if total > 0.0 then us /. total else 0.0);
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (b.ca_total_us, b.ca_count) (a.ca_total_us, a.ca_count))

let attribution_to_text ?(label = "critical-path attribution") paths =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "%s: %d rendezvous\n" label (List.length paths);
  List.iter
    (fun a ->
      p "  %-22s %6d  %12.1f us  %5.1f%%\n" (cause_name a.ca_cause) a.ca_count
        a.ca_total_us (100.0 *. a.ca_share))
    (attribute paths);
  Buffer.contents buf

let tree_to_text tc trace =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let children = Hashtbl.create 16 in
  let roots = ref [] in
  for id = tc.len - 1 downto 0 do
    if tc.s_trace.(id) = trace then
      if tc.s_parent.(id) >= 0 then
        Hashtbl.replace children tc.s_parent.(id)
          (id :: (try Hashtbl.find children tc.s_parent.(id) with Not_found -> []))
      else roots := id :: !roots
  done;
  let rec render indent id =
    let s = span tc id in
    let dur = if Float.is_finite s.sp_t1 then s.sp_t1 -. s.sp_t0 else nan in
    p "%s%-13s node%d%s t0=%.1f dur=%.1f" indent (kind_name s.sp_kind) s.sp_node
      (if s.sp_variant >= 0 then Printf.sprintf " v%d" s.sp_variant else "")
      s.sp_t0 dur;
    if s.sp_kind = Net_msg then
      p " (ser %.1f, lat %.1f, retrans %.1f)" s.sp_a0 s.sp_a1 s.sp_a2;
    p "\n";
    List.iter (render (indent ^ "  ")) (try Hashtbl.find children id with Not_found -> [])
  in
  p "trace %d:\n" trace;
  List.iter (render "  ") !roots;
  Buffer.contents buf

let spans_to_json tc =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "[";
  let first = ref true in
  for id = 0 to tc.len - 1 do
    if tc.s_trace.(id) >= 0 then begin
      if not !first then p ",";
      first := false;
      let t1 = tc.s_t1.(id) in
      p
        "\n  {\"id\":%d,\"kind\":\"%s\",\"trace\":%d,\"parent\":%d,\"node\":%d,\"variant\":%d,\"chan\":%d,\"pos\":%d,\"t0\":%.3f,\"t1\":%s,\"a0\":%.3f,\"a1\":%.3f,\"a2\":%.3f}"
        id
        (kind_name tc.s_kind.(id))
        tc.s_trace.(id) tc.s_parent.(id) tc.s_node.(id) tc.s_variant.(id) tc.s_chan.(id)
        tc.s_pos.(id) tc.s_t0.(id)
        (if Float.is_finite t1 then Printf.sprintf "%.3f" t1 else "null")
        tc.s_a0.(id) tc.s_a1.(id) tc.s_a2.(id)
    end
  done;
  p "\n]\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

(* Entries outside the trees are complete ("X") and instant ("i") events
   on their domain's tracks.  A causal span is an async pair ("b"/"e")
   keyed by its trace id, in one extra process after the domains: its
   track is [variant + 1] (0 for a span without a variant), and its args
   name the span and its parent so a reader can rebuild the tree.  Open
   spans are left out. *)
let to_chrome_json tc =
  let buf = Buffer.create (256 + (128 * tc.len)) in
  let p fmt = Printf.bprintf buf fmt in
  let first = ref true in
  let next () = if !first then first := false else Buffer.add_string buf ",\n" in
  let num = Json.compact_float and esc = Json.escape in
  let domain_names = Array.of_list (List.rev tc.domains) in
  let spans_pid = Array.length domain_names in
  let meta kind pid tid name =
    next ();
    p "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}" kind
      pid tid (esc name)
  in
  p "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Array.iteri (fun pid name -> meta "process_name" pid 0 name) domain_names;
  List.iter
    (fun ((pid, tid), name) -> meta "thread_name" pid tid name)
    (List.rev tc.tracks);
  let top_lane = ref (-1) in
  for id = 0 to tc.len - 1 do
    if tc.s_trace.(id) >= 0 then top_lane := max !top_lane (tc.s_variant.(id) + 1)
  done;
  if !top_lane >= 0 then meta "process_name" spans_pid 0 "spans";
  for lane = 0 to !top_lane do
    meta "thread_name" spans_pid lane
      (if lane = 0 then "group" else Printf.sprintf "v%d" (lane - 1))
  done;
  for id = 0 to tc.len - 1 do
    let t0 = tc.s_t0.(id) and t1 = tc.s_t1.(id) in
    let kind = tc.s_kind.(id) in
    let causal = tc.s_trace.(id) >= 0 in
    let pid, tid, cat, name =
      if causal then (spans_pid, tc.s_variant.(id) + 1, "span", kind_name kind)
      else (tc.s_node.(id), tc.s_chan.(id), domain_names.(tc.s_node.(id)), tc.s_name.(id))
    in
    let head ph =
      next ();
      p "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d" (esc name)
        (esc cat) ph pid tid
    in
    if kind = Mark then begin
      head "i";
      p ",\"s\":\"t\",\"ts\":%s,\"args\":{" (num t0);
      let sep = ref "" in
      let arg fmt =
        Buffer.add_string buf !sep;
        sep := ",";
        p fmt
      in
      if tc.s_variant.(id) >= 0 then arg "\"variant\":%d" tc.s_variant.(id);
      if tc.s_key.(id) <> "" then
        arg "\"%s\":\"%s\"" (esc tc.s_key.(id)) (esc tc.s_text.(id));
      if not (Float.is_nan tc.s_a0.(id)) then arg "\"value\":%s" (num tc.s_a0.(id));
      p "}}"
    end
    else if Float.is_finite t1 then
      if causal then begin
        head "b";
        p ",\"id\":%d,\"ts\":%s,\"args\":{\"span\":%d,\"parent\":%d" tc.s_trace.(id)
          (num t0) id tc.s_parent.(id);
        p ",\"node\":%d,\"variant\":%d,\"chan\":%d,\"pos\":%d}}" tc.s_node.(id)
          tc.s_variant.(id) tc.s_chan.(id) tc.s_pos.(id);
        head "e";
        p ",\"id\":%d,\"ts\":%s,\"args\":{\"span\":%d}}" tc.s_trace.(id) (num t1) id
      end
      else begin
        head "X";
        p ",\"ts\":%s,\"dur\":%s}" (num t0) (num (t1 -. t0))
      end
  done;
  p "\n]}\n";
  Buffer.contents buf
