(** Set-associative write-through data cache holding real values.

    The cache stores the floating-point payload of every resident line, not
    just tags: a stale line therefore returns the {e old value}, which is
    what makes coherence violations observable in the simulated numerics.
    Writes are write-through non-allocating (DEC 21064 / T3D behaviour):
    memory is always up to date, so epoch-boundary "memory update" is a
    no-op and only cached {e read} copies can go stale.

    Addresses are global word addresses; a line address is
    [addr / line_words]. *)

type t

val create : sets:int -> assoc:int -> line_words:int -> t

(** Convenience constructor from a machine config. *)
val of_config : Config.t -> t

val line_words : t -> int

(** [read t ~addr] returns the cached value, or [None] on a miss. Updates
    recency. *)
val read : t -> addr:int -> float option

(** Allocation-free hit probe: the data-array offset of the addressed word
    (pass it to {!copy_word}), or [-1] on a miss. Updates recency on a hit,
    exactly as {!read} does. *)
val locate : t -> addr:int -> int

(** [copy_word t off dst k] stores the payload word at [off] (from
    {!locate}) into [dst.(k)]; the offset is only valid until the next fill
    or invalidation. Destination-passing, so the float is never boxed
    across the module boundary. *)
val copy_word : t -> int -> float array -> int -> unit

(** Hit test without recency update. *)
val probe_line : t -> line:int -> bool

(** Install a line (payload must have length [line_words]); evicts the
    least-recently-used way of the set. Returns the evicted line address, if
    a valid line was displaced. [tick] stamps the fill time for
    timestamp-based (HSCD) self-invalidation checks. [vers] stamps the
    per-word version tags of the payload (the staleness oracle compares
    them against memory's write versions); absent, the tags reset to 0.
    [state] is the line's protocol state ({!Ccdp_machine.Coherence} names
    the encoding; default [Coherence.shared]). *)
val fill :
  t -> ?tick:int -> ?vers:int array -> ?state:int -> line:int -> float array ->
  int option

(** Scratch-free fill for the simulator's per-access path: blits the line's
    [line_words] payload straight out of [src] starting at word [pos]
    (memory itself), avoiding the [Array.sub] copy {!fill} requires. [vers]
    are per-word version stamps read at the same [pos]; pass [[||]] to reset
    the stamps to 0. [tick] and [state] are as for {!fill}, but required:
    an optional argument passed a value allocates its [Some]. Same
    replacement policy as {!fill} (resident slot reused, else true LRU
    way); the displaced line is reported through
    {!last_evicted_line}/{!last_evicted_state} rather than a return value,
    keeping the common path allocation-free. *)
val fill_from :
  t -> tick:int -> state:int -> vers:int array -> line:int ->
  src:float array -> pos:int -> unit

(** Line displaced by the most recent {!fill}/{!fill_from} (-1 = none —
    the slot was empty or the line was already resident). Scratch state:
    read it immediately after the fill. *)
val last_evicted_line : t -> int

(** Protocol state the displaced line held (0 when nothing was displaced):
    a [Coherence.modified] victim owes the protocol a write-back. *)
val last_evicted_state : t -> int

(** Protocol state of a resident line, [Coherence.invalid] (0) on a miss.
    No recency update — snooping other PEs' caches must not perturb their
    LRU order. *)
val line_state : t -> line:int -> int

(** Set a resident line's protocol state (no-op on a miss, no recency
    update) — remote-initiated downgrades (M->S on a bus read, E->S on a
    sharing fetch). *)
val set_line_state : t -> line:int -> int -> unit

(** Fill-time stamp of a resident line (-1 on a miss; fill stamps are
    never negative) — the version check of hardware-supported
    compiler-directed schemes compares this against the array's
    last-write version. *)
val fill_tick : t -> line:int -> int

(** Write-through update from [src.(k)]: if the addressed line is
    resident, patch the cached copy (memory is updated by the caller).
    [ver >= 0] additionally stamps the word's version tag with the write's
    version; [-1] leaves the tag. No recency update. *)
val update_from : t -> ver:int -> addr:int -> float array -> int -> unit

(** Version tag of a resident word without recency update (-1 on a miss;
    tags are never negative). The staleness oracle asserts this is no
    older than the last write to the address that completed before the
    current epoch. *)
val word_version : t -> addr:int -> int

val invalidate_line : t -> line:int -> unit
val invalidate_all : t -> unit

(** Number of valid lines (tests/introspection). *)
val valid_lines : t -> int

(** Cached value of an address without recency update ([None] if absent) —
    used by the coherence checker to inspect residual stale copies. *)
val peek : t -> addr:int -> float option
