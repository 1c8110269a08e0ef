(** Bounded prefetch queue (T3D: 16 words).

    Issued cache-line prefetches park here until the demand reference
    consumes them. Occupancy is counted in words; an issue that would
    overflow the capacity is {e dropped} — the paper then requires the
    demand reference to fall back to a bypass-cache fetch. Entries that
    survive to the end of an epoch are drained and counted as unused. *)

type t

type entry = { line : int; words : int; ready : int (** arrival cycle *) }

val create : capacity:int -> t
val capacity : t -> int
val occupancy : t -> int

(** [try_insert t ~line ~words ~ready] enqueues unless it would overflow or
    the line is already pending; returns [false] on overflow (the caller
    counts a drop). Re-issuing a pending line is a no-op returning [true]. *)
val try_insert : t -> line:int -> words:int -> ready:int -> bool

(** Pending arrival time of a line, or [-1] when the line is not pending
    (arrival cycles are non-negative). *)
val ready_of : t -> line:int -> int

(** Remove a consumed line. *)
val remove : t -> line:int -> unit

(** Drop every pending entry, returning how many were discarded. *)
val clear : t -> int

(** Pending entries, oldest first. *)
val entries : t -> entry list
