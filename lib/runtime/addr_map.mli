(** Global word-address layout.

    Every PE's local memory is a contiguous window of the global address
    space ([pe * pe_span .. (pe+1) * pe_span)), mirroring the T3D's
    PE-number/local-offset physical addressing. Each array gets a
    line-aligned base inside the window; a distributed element lives in its
    owner's window, a replicated (or private) element in every window.

    This module is the one place that maps an element to an address. Each
    array's CRAFT layout ({!Ccdp_craft.Layout}) is compiled once, at
    {!make}, into a flat address kernel ({!handle}); every address the
    simulator computes — timed accesses, prefetches, initialization,
    read-back, verification — is one evaluation of that kernel. *)

type t

(** [cache_lines] enables allocation coloring: the k-th array's base is
    padded up to cache-set position [(k mod 16) * cache_lines/16], so equal
    elements of different arrays never share a direct-mapped set (for up to
    16 arrays and columns up to [cache_lines/16] lines). Without it,
    equal-sized arrays land on cache-size-aligned bases and thrash — the
    pathology real SPEC codes avoid by padding their COMMON blocks. 0
    disables coloring. *)
val make :
  Ccdp_ir.Program.t -> n_pes:int -> line_words:int -> ?cache_lines:int -> unit -> t

val n_pes : t -> int
val pe_span : t -> int

(** Total words of the global space ([n_pes * pe_span]). *)
val total_words : t -> int

(** An element subscript outside its array's declared extents. [loc] is
    the source span of the reference that computed it ([Loc.Synthetic]
    when the address was requested by name); [msg] reads
    ["A: index 8 out of bounds 0..7 in dim 0"]. *)
exception Out_of_bounds of { loc : Ccdp_ir.Loc.t; msg : string }

(** {1 Address kernels} *)

(** One array's compiled address kernel: per-dimension word strides over
    the owner's window, the distributed dimension with its kind and chunk,
    the declared extents, the array's base, and the source span reported
    by {!Out_of_bounds}. *)
type handle

(** The kernel of an array. [loc] tags the handle with the span of the
    static reference it serves (default [Loc.Synthetic]).
    @raise Invalid_argument on an unknown array. *)
val handle : t -> ?loc:Ccdp_ir.Loc.t -> string -> handle

(** Address of an element as seen from [pe]: the owner's copy for
    distributed data (on PE 0 for undistributed shared arrays), [pe]'s own
    copy for replicated and private data. Every subscript is checked
    against its extent.
    @raise Out_of_bounds on a subscript outside the declared extents.
    @raise Invalid_argument on a rank mismatch. *)
val resolve_h : handle -> pe:int -> int array -> int

(** Target encoding recovered from an address produced by [resolve_h] on the
    same [pe]: [-1] when the access is to the PE's own window, else the
    owning PE id. *)
val target_of : handle -> pe:int -> addr:int -> int

(** {1 By-name views (untimed)} *)

(** Address of an element and its location relative to the accessing PE
    ([resolve_h] plus [target_of]). *)
val resolve :
  t -> pe:int -> string -> int array -> int * [ `Local | `Remote of int ]

(** Addresses of an element in {e every} copy (one for distributed arrays,
    [n_pes] for replicated ones) — used by initialization. *)
val all_copies : t -> string -> int array -> int list

(** Owner-copy address (PE-0 copy for replicated arrays), i.e. [resolve_h]
    from PE 0 — used to read results back. *)
val canonical : t -> string -> int array -> int
