(** Access regions: which part of an array does a reference touch, and by
    which PE.

    Combines the iteration-space environment of the reference's loop stack
    with the array's CRAFT layout and the DOALL schedule. The two key
    queries of the stale-reference analysis are [section_pe] (what PE [p]
    touches through this reference) and [aligned] — the owner-computes test:
    a read is {e aligned} with a write when every PE only reads elements of
    the written region that it wrote itself, so its cached copy is the
    up-to-date one. *)

type t

val make : Ccdp_ir.Program.t -> n_pes:int -> t
val n_pes : t -> int
val layout : t -> string -> Ccdp_craft.Layout.t
val decl : t -> string -> Ccdp_ir.Array_decl.t
val params : t -> (string * int) list

(** Full iteration-space environment of a reference. *)
val env_of : t -> Ref_info.t -> Iterspace.env

(** Region touched across all PEs / iterations. *)
val section_all : t -> Ref_info.t -> Ccdp_ir.Section.t

(** Region touched by one PE (may-access over-approximation). Serial
    epochs execute on PE 0; dynamic DOALLs widen every PE to the full
    region. *)
val section_pe : t -> Ref_info.t -> pe:int -> Ccdp_ir.Section.t

(** Region this PE is {e guaranteed} to touch through the reference
    (must-access under-approximation): [Empty] for dynamic schedules,
    unresolvable bounds or inexact subscript sections. This is the set the
    alignment test may rely on for the writer side. *)
val section_pe_must : t -> Ref_info.t -> pe:int -> Ccdp_ir.Section.t

(** Must-access region across the whole machine ([Empty] when inexact);
    what the masking kill of the stale analysis may rely on. *)
val section_all_must : t -> Ref_info.t -> Ccdp_ir.Section.t

(** The owner-computes alignment test described above: sound (may return
    [false] for genuinely aligned pairs, never [true] for misaligned
    ones). *)
val aligned : t -> reader:Ref_info.t -> writer:Ref_info.t -> bool

(** Cluster-relaxed alignment for machines with hardware-coherent islands
    of [cluster_pes] PEs (owner-computes modulo the island): every element
    a PE reads of the written region must have been provably written by
    {e some single} PE of the reader's own island — that sibling's writes
    invalidate the reader's copy through the island snoop, so no prefetch
    or bypass obligation is needed. Subsumes {!aligned} (the reader itself
    is a candidate sibling); [cluster_pes <= 1] is exactly {!aligned}.
    Memoized per (width, reader, writer). *)
val aligned_cluster :
  t -> cluster_pes:int -> reader:Ref_info.t -> writer:Ref_info.t -> bool

(** [(first, last)]: the PEs this reference may touch anything on; every
    other PE's {!section_pe} and {!section_pe_must} are [Empty]. The
    per-PE queries below visit only these PEs, so an idle PE costs
    nothing. *)
val active : t -> Ref_info.t -> int * int

(** Cross-PE exclusion witness: may the reader touch, on some PE [p], an
    element the writer may write on another PE [q <> p]? (May-sets on
    both sides.) Memoized per reference pair. *)
val cross_pe : t -> reader:Ref_info.t -> writer:Ref_info.t -> bool

(** Is every element this reference touches owned (local) to the touching
    PE? (VPENTA's access pattern; interesting diagnostically.) *)
val all_local : t -> Ref_info.t -> bool
