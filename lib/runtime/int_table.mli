(** Int-keyed int table that allocates nothing in steady state.

    The memory system keeps each PE's CCDP staging state (vector-get
    ready cycles and generations, lines filled this epoch) in these
    tables. Lookups return a caller-chosen [default] instead of an
    option, and [clear] is a generation bump: O(1), keeping the
    grown arrays for the next epoch. Keys must be non-negative. *)

type t

(** An empty table of 8 slots; it doubles as it fills. *)
val create : unit -> t

val length : t -> int

(** The value bound to the key, or [default] when it is absent. *)
val find : t -> int -> default:int -> int

val mem : t -> int -> bool

(** Bind a key, replacing any previous binding. Raises
    [Invalid_argument] on a negative key. *)
val replace : t -> int -> int -> unit

val remove : t -> int -> unit

(** Drop every binding in O(1). *)
val clear : t -> unit
