(** Paged shadow memory for the interpreter fast path.

    The reference interpreter keeps one hashtable entry per mapped address
    ([cells] for values, [region] for classification), which makes every
    load, store and allocation hash — and makes [malloc n] perform [n]
    [Hashtbl.replace]s.  This module replaces both tables with chunked
    arrays, the way ASan's flat shadow works (one metadata byte per
    application byte at a fixed stride): a page table indexed by
    the address's high bits, where each present page carries

    - a {b tag byte} per slot classifying the region
      ([tag_unmapped] / [tag_live] / [tag_redzone]);
    - an {b owner id} per slot pointing at the allocation record covering
      it (so use-after-free checks read one mutable flag, and [free] can
      validate that its argument is an allocation base);
    - a {b value} and an {b init byte} per slot (the former hashtable
      cell).

    Lookups never allocate and never fault: addresses outside every page
    (including negative ones) resolve to the {b empty page}, so the
    interpreter's wild-pointer path needs no bounds check of its own.
    There is one empty page per process, shared by every ['a t] and built
    at module initialisation, so {!create} costs a small page table and
    nothing else.  Its [tags], [owner] and [init] planes are full-size
    (all [tag_unmapped], [-1] and ['\000']), so any slot of them may be
    read unchecked.  Its [values] plane is empty, because it must serve
    every ['a]: a [values] read is valid only after a tag check that
    rejects [tag_unmapped], and with [Array.unsafe_get] a read that skips
    the check reads out of bounds instead of raising.

    Pages are materialised only by {!map_range}, i.e. only for address
    ranges an allocation actually covers. *)

val page_mask : int
(** [addr land page_mask] is the slot offset within its page. *)

val tag_unmapped : char
(** No allocation or redzone covers the slot — dereference is a wild
    pointer.  This is the tag of every slot of a fresh page (and of the
    shared empty page), so tag [0] doubles as "page absent". *)

val tag_live : char
(** Slot lies inside an allocation; its temporal state (live vs freed) is
    the owner record's business, so [free] stays O(1). *)

val tag_redzone : char
(** Slot lies in the redzone after an allocation. *)

type 'a page = {
  tags : Bytes.t;        (** region tag per slot *)
  owner : int array;     (** allocation id per slot; [-1] where no owner *)
  values : 'a array;     (** stored value per slot *)
  init : Bytes.t;        (** ['\001'] once the slot has been stored to *)
}

type 'a t

val create : fill:'a -> 'a t
(** An empty page table.  [fill] populates the value arrays of pages
    {!map_range} materialises; it is never observable through the
    interpreter because loads consult [init] first. *)

val page_of : 'a t -> int -> 'a page
(** Total: the page covering the address, or the shared empty page (all
    tags [tag_unmapped]) when none was ever mapped.  Callers must check
    the tag before reading [values] (empty on the shared page) and before
    writing any plane — writing through an unmapped tag would corrupt the
    page every shadow shares. *)

val map_range : 'a t -> base:int -> len:int -> tag:char -> owner:int -> unit
(** Tag [len] slots starting at [base] (materialising pages as needed)
    and record their owner.  Addresses are never reused by the
    interpreter, so values/init of a freshly mapped range are already at
    their defaults.  [base] must be non-negative; [len = 0] is a no-op. *)
