let page_bits = 12
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1

let tag_unmapped = '\000'
let tag_live = '\001'
let tag_redzone = '\002'

type 'a page = {
  tags : Bytes.t;
  owner : int array;
  values : 'a array;
  init : Bytes.t;
}

type 'a t = { fill : 'a; mutable pages : 'a page option array }

(* The one all-unmapped page of the process, returned for never-mapped
   indices so [page_of] is total and allocation-free.  Never written to:
   every write is guarded by a tag check, and its tags stay [tag_unmapped].
   Its value plane is empty, which is what lets one page serve every
   ['a t]; each read of [values] comes after a tag check that fails here.
   The planes are bound first so that the record is a value and
   generalises. *)
let empty_tags = Bytes.make page_slots tag_unmapped
let empty_owner = Array.make page_slots (-1)
let empty_init = Bytes.make page_slots '\000'
let empty = { tags = empty_tags; owner = empty_owner; values = [||]; init = empty_init }

let make_page fill =
  {
    tags = Bytes.make page_slots tag_unmapped;
    owner = Array.make page_slots (-1);
    values = Array.make page_slots fill;
    init = Bytes.make page_slots '\000';
  }

let create ~fill = { fill; pages = Array.make 64 None }

let page_of t addr =
  (* [lsr] is a logical shift, so a negative address yields a huge page
     index and falls through to the empty page — no sign check needed. *)
  let pi = addr lsr page_bits in
  if pi >= Array.length t.pages then empty
  else match Array.unsafe_get t.pages pi with Some p -> p | None -> empty

let ensure t pi =
  if pi >= Array.length t.pages then begin
    let cap = max (pi + 1) (2 * Array.length t.pages) in
    let pages = Array.make cap None in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  match t.pages.(pi) with
  | Some p -> p
  | None ->
    let p = make_page t.fill in
    t.pages.(pi) <- Some p;
    p

let map_range t ~base ~len ~tag ~owner =
  if base < 0 then invalid_arg "Shadow.map_range: negative base";
  let pos = ref base and remaining = ref len in
  while !remaining > 0 do
    let off = !pos land page_mask in
    let n = min !remaining (page_slots - off) in
    let p = ensure t (!pos lsr page_bits) in
    Bytes.fill p.tags off n tag;
    Array.fill p.owner off n owner;
    pos := !pos + n;
    remaining := !remaining - n
  done
