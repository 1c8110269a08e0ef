(** Per-PE storage of distributed arrays.

    Realizes CRAFT's shared-data distribution directives (paper Section
    5.1): given an array declaration and the machine width, fix the
    distributed dimension, its chunk and per-PE extent, and the words each
    PE holds. The element-level mapping (which PE owns element
    (i1,...,ik), at which word offset of its window) is compiled from
    these fields once per array by {!Ccdp_runtime.Addr_map}, the one place
    that evaluates it. The stale-reference analysis additionally needs the
    {e owned section} of each PE to prove owner-computes alignment. *)

type t = private {
  decl : Ccdp_ir.Array_decl.t;
  n_pes : int;
  ddim : int option;  (** distributed dimension, [None] when replicated or on PE 0 *)
  chunk : int;
      (** block width along [ddim]: ceil(n/p) for Block, 1 for Cyclic, the
          block width for Block_cyclic (0 when undistributed) *)
  local_extent : int;
      (** extent of each PE's portion along [ddim] (0 when undistributed) *)
  per_pe_words : int;  (** words of this array held by each PE *)
}

val make : n_pes:int -> Ccdp_ir.Array_decl.t -> t

(** Section of the array owned by one PE (a triplet along the distributed
    dimension, whole elsewhere); [Whole] for replicated arrays, the whole
    array for PE 0 (and [Empty] for others) when undistributed. *)
val owned_section : t -> int -> Ccdp_ir.Section.t

val pp : Format.formatter -> t -> unit
