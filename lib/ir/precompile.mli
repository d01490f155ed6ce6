(** Module precompilation for the interpreter fast path.

    The reference interpreter ({!Interp.run_reference}) re-resolves
    everything on every step: callees with [List.find_opt] over
    [m_funcs], jump targets with [List.find_opt] over [f_blocks],
    registers through a per-call [(string, rvalue) Hashtbl], phis by
    re-partitioning each block's instruction list, and intrinsics through
    a chain of string comparisons.  This module performs all of those
    resolutions {e once per module}:

    - functions and block labels become array indices;
    - registers are numbered into dense slots, so a call frame is an
      [rvalue array] instead of a hashtable;
    - each block's phis are pre-split from its straight-line body, with
      incoming edges resolved to predecessor block indices;
    - intrinsic names collapse to a variant tag ({!intr}), so dispatch is
      a [match] rather than an [if name = ...] chain, and the
      "is this a check helper" telemetry test is a tag test instead of
      [List.mem name Runtime_api.helpers].

    Resolution failures that the reference interpreter reports lazily
    (unbound registers, unknown globals, unknown callees, jumps to
    missing blocks) compile to poison forms ({!pvalue.PUnbound},
    {!pvalue.PBadGlobal}, {!intr.IUnknown}, {!ptarget.TUnknown}) that
    raise the identical [Invalid_argument] only if actually executed —
    precompilation itself never rejects a module.

    The compiled form is a snapshot: mutating the source {!Ast.modul}
    afterwards (e.g. with the slicer) does not update it — recompile.
    Blocks carry a scratch buffer for simultaneous phi evaluation, so a
    compiled module must not be executed from two threads at once (the
    interpreter stack is single-threaded throughout this codebase). *)

open Ast

(** Runtime values of the fast engine.  Unlike the reference
    interpreter's internal value type, function values carry their module
    index, making code-address arithmetic O(1).  [VFunc] with a negative
    index is reserved by the engine as its unbound-slot sentinel and is
    never produced by compilation. *)
type rvalue = VInt of int64 | VPtr of int | VFunc of int | VUndef

type pvalue =
  | PReg of int              (** read a frame slot *)
  | PConst of rvalue         (** literal, [null], [undef], or a function address *)
  | PGlobal of int           (** base address of the module global, resolved per run *)
  | PUnbound of string       (** register never defined in the function *)
  | PBadGlobal of string     (** [@name] naming neither a global nor a function *)

(** Intrinsic tag, mirroring the reference dispatch chain. *)
type intr =
  | IPrint
  | IMalloc
  | IFree
  | IBoundsOk
  | IInAlloc
  | INotFreed
  | IInitOk
  | IAddOk
  | IMulOk
  | IShiftOk
  | ICodePtrOk
  | IReport of string        (** report handler; the name feeds the detection *)
  | ISyscall of string       (** [sys_*]; the full name is the event payload *)
  | IUnknown of string       (** raises [Invalid_argument] when called *)

val intr_name : intr -> string

val intr_is_helper : intr -> bool
(** The eight check helpers of [Runtime_api.helpers] — the ones the
    per-variant telemetry counters track. *)

type callee = CFunc of int | CIntr of intr

type ptarget = TBlock of int | TUnknown of string

(** Straight-line instructions (phis live in {!pblock.pb_phis}).
    Destination slot [-1] means the result is discarded.  [Gep] compiles
    to [PBin Add], which is exactly its reference semantics. *)
type pinstr =
  | PBin of int * binop * pvalue * pvalue
  | PCmp of int * cmpop * pvalue * pvalue
  | PAlloca of int * int
  | PLoad of int * pvalue
  | PStore of pvalue * pvalue
  | PCall of int * callee * pvalue array
  | PCallInd of int * pvalue * pvalue array
  | PSelect of int * pvalue * pvalue * pvalue

type pphi = {
  ph_dst : int;
  ph_incoming : (int * pvalue) array;
      (** predecessor block index (or [-2] for a label that names no
          block, which can never match) paired with the merged value *)
}

type pterm =
  | PRet of pvalue option
  | PBr of ptarget
  | PCondBr of pvalue * ptarget * ptarget
  | PUnreachable

type pblock = {
  pb_label : string;
      (** original AST label — kept so detections can name the IR location
          (check-site attribution) identically to the reference engine *)
  pb_phis : pphi array;
  pb_scratch : rvalue array;
      (** same length as [pb_phis]; phi values are computed here before
          any is assigned, preserving simultaneous-merge semantics.
          Safe to share across activations (even recursive ones) because
          phi evaluation cannot re-enter the block. *)
  pb_body : pinstr array;
  pb_term : pterm;
}

type pfunc = {
  pf_name : string;
  pf_nparams : int;
  pf_param_slots : int array;  (** frame slot of each parameter position *)
  pf_nslots : int;
  pf_slot_names : string array;  (** slot -> register name, for diagnostics *)
  pf_blocks : pblock array;      (** entry is index 0; [[||]] if the function has no blocks *)
}

type t = {
  p_src : modul;                 (** the module this was compiled from *)
  p_funcs : pfunc array;
  p_func_index : (string, int) Hashtbl.t;   (** first binding wins, like [find_func] *)
  p_globals : global array;      (** in allocation (declaration) order *)
  p_global_index : (string, int) Hashtbl.t; (** last binding wins, like the reference state *)
}

val compile : modul -> t
