(** Epoch partitioning (paper Section 3.1).

    A program is a sequence of epochs separated by barriers: a {e parallel
    epoch} is a top-level DOALL loop whose iterations are the concurrent
    tasks; a {e serial epoch} is a maximal run of sequential code. The main
    memory is updated at every epoch boundary, caches are {e not}
    invalidated — which is why stale copies can survive across epochs and
    the stale-reference dataflow walks this structure.

    Serial loops and branches that contain DOALLs become structure nodes:
    their bodies are epoch sequences executed repeatedly / conditionally,
    and the dataflow treats the loop back-edge as a flow edge. *)

type epoch =
  | Par of Stmt.loop * Stmt.sched
      (** a top-level DOALL loop and its schedule (the loop's own [Doall]
          kind, unwrapped) *)
  | Ser of Stmt.t list  (** a maximal serial section *)

type node =
  | E of int * epoch  (** epoch with its sequence number *)
  | Loop of Stmt.loop * node list
      (** serial loop whose body contains parallel epochs; [body] field of
          the embedded loop is ignored (superseded by the node list) *)
  | Branch of Stmt.cond * node list * node list

type t = { nodes : node list; count : int (** number of epochs *) }

(** Partition a (call-free) program body.
    @raise Invalid_argument if a [Call] survives (inline first). *)
val partition : Stmt.t list -> t

(** Flatten: every epoch with its id, in program order. *)
val all : t -> (int * epoch) list

(** The statements of an epoch (the DOALL's [For] for parallel epochs). *)
val stmts_of : epoch -> Stmt.t list

val pp : Format.formatter -> t -> unit
