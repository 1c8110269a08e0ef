(** DOALL loop scheduling: which PE runs which iterations.

    For static schedules the assignment is a compile-time triplet, which the
    analyses use to build per-PE access regions and the runtime uses to
    drive execution. Dynamic (self-scheduled) loops have no compile-time
    assignment — the analyses must be conservative (paper Fig. 2, case 3)
    and the runtime assigns chunks greedily to the least-loaded PE. *)

(** Iteration-value triplet [(first, last, stride)], empty when [None]. *)
type triplet = int * int * int

(** Static per-PE iteration triplet; [None] for dynamic schedules or when
    the PE receives no iterations. [lo], [hi] are inclusive iteration
    values; [step] the loop step. *)
val triplet_of_pe :
  Ccdp_ir.Stmt.sched -> n_pes:int -> pe:int -> lo:int -> hi:int -> step:int ->
  triplet option

(** [(first, last)]: the PEs that receive iterations under a static
    schedule lie in [first..last], and [first] and [last] themselves do —
    the tightest such interval; empty ([first > last]) when no PE does.
    Block and cyclic schedules, and aligned ones whose step does not
    exceed the PE's block of the dimension, leave no idle PE inside it; an
    aligned loop striding over whole blocks can. A dynamic schedule may
    hand a chunk to any PE: the whole machine. *)
val active_range :
  Ccdp_ir.Stmt.sched -> n_pes:int -> lo:int -> hi:int -> step:int -> int * int

(** Is the assignment known at compile time? *)
val is_static : Ccdp_ir.Stmt.sched -> bool

(** Total iterations of [lo..hi step]. *)
val trip_count : lo:int -> hi:int -> step:int -> int

(** Chunks of a dynamic schedule in issue order: list of triplets. *)
val dynamic_chunks : chunk:int -> lo:int -> hi:int -> step:int -> triplet list

(** PE owning a given iteration under a static schedule. *)
val pe_of_iter :
  Ccdp_ir.Stmt.sched -> n_pes:int -> lo:int -> hi:int -> step:int -> int ->
  int option
