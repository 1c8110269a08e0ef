(** The timed memory system: execution modes, read/write protocols,
    prefetch issue and consumption.

    This is where the paper's semantics live. The modes:

    - [Seq]: the sequential baseline — one PE, everything local, ordinary
      cache.
    - [Base]: the paper's BASE codes — shared data is {e not} cached, every
      shared access pays the full local/remote latency (private/replicated
      data is cached normally).
    - [Ccdp]: shared data is cached; each read executes according to its
      compiler classification (normal / leading-prefetched / covered /
      bypass) and scheduled prefetch operation.
    - [Invalidate]: shared data cached, whole cache invalidated at every
      epoch boundary — the conservative compiler scheme of the related
      work.
    - [Incoherent]: shared data cached with {e no} coherence action; exists
      to demonstrate that stale reads really produce wrong numerics.
    - [Hscd]: the related-work hardware-supported compiler-directed scheme
      (Choi-Yew version numbers): cache lines carry fill versions, arrays
      carry last-written versions, and a hit whose line predates the
      array's version self-invalidates — coherence without prefetching or
      whole-cache flushes.
    - [Msi] / [Mesi]: hardware bus snooping — per-line M(E)SI states, every
      coherence transaction (miss fetch, upgrade, write-allocate)
      serialized through one machine-wide bus whose arbitration is booked
      like a network port; writes invalidate all remote copies. [Mesi] adds
      the clean-exclusive state (silent E->M upgrades).
    - [Directory]: full-map directory protocol (Censier-Feautrier) — a
      presence bitset and dirty-owner register per line, homed at the PE
      owning the line in the address map; reads of a dirty line pay 3-hop
      forwarding through the configured interconnect, writes pay the worst
      home->sharer invalidation round trip. No broadcast bus: traffic
      scales with sharers, not PEs.
    - [Clustered]: CXL-style partial hardware coherence over the machine's
      coherence clusters ([Config.cluster_pes]). Reads of island-homed data
      run MESI snooping scoped to the island (per-cluster buses); reads
      crossing an island boundary fall back to the compiled CCDP stale
      discipline. A write snoop-invalidates the writer's own island, and
      when the written word is homed in a {e different} island it
      back-invalidates the home island's copies too (the CXL
      back-invalidation channel) — third islands' copies legitimately go
      stale, their readers carry CCDP obligations.

    Writes are write-through (memory always current; the writer's own cached
    copy is patched, other PEs' copies go stale — the coherence problem; the
    hardware rivals eagerly invalidate those copies at each tracked write).
    Prefetch consumption: a pending line stalls the reader until its arrival
    cycle ("late" prefetch), an absent one (dropped at issue) falls back to
    a bypass fetch, as Section 3 of the paper requires. *)

type mode =
  | Seq
  | Base
  | Ccdp
  | Invalidate
  | Incoherent
  | Hscd
  | Msi
  | Mesi
  | Directory
  | Clustered

val mode_name : mode -> string

(** Every mode, in canonical presentation order (the order above). *)
val all_modes : mode list

(** One-line description of a mode, for generated CLI help. *)
val mode_describe : mode -> string

(** Inverse of {!mode_name} (case-insensitive). *)
val mode_of_string : string -> mode option

(** Protocol fault injection for the differential campaign: each class
    breaks exactly the coherence action whose absence the staleness oracle
    must witness, with the cost accounting untouched. [No_fault] in every
    mode but the targeted one is a no-op. *)
type sabotage =
  | No_fault
  | Drop_invalidate
      (** snooping: the first remote copy a write transaction should
          invalidate silently survives *)
  | Corrupt_presence
      (** directory: the first sharer of a write's invalidation set is
          dropped from the presence bitset instead of invalidated *)
  | Drop_inter_cluster_invalidate
      (** clustered: the first home-island copy a cross-island write should
          back-invalidate silently survives (a lost CXL back-invalidation);
          intra-island snooping stays intact *)

type t

(** [create cfg ?oracle ?sabotage program ~plan mode]. With [~oracle:true]
    the memory system maintains the dynamic staleness oracle: every memory
    word carries a version stamp (monotonic write counter) plus the epoch
    that produced it, cache lines capture per-word stamps at fill/update
    time, and every cache hit of a tracked shared read asserts the captured
    stamp is no older than the last write settled before the current epoch.
    Violations are concrete unsoundness witnesses for the stale-reference
    analysis. [?sabotage] (default [No_fault]) arms protocol fault
    injection in the hardware modes.

    Every PE starts dormant: its clock and counters exist, its cache,
    queue, annex and staging state are built on its first activation
    (see {!activate}), so an idle PE costs a few words. *)
val create :
  Ccdp_machine.Config.t -> ?oracle:bool -> ?sabotage:sabotage ->
  Ccdp_ir.Program.t -> plan:Ccdp_analysis.Annot.plan -> mode -> t

val cfg : t -> Ccdp_machine.Config.t
val mode : t -> mode
val map : t -> Addr_map.t
val machine : t -> Ccdp_machine.Machine.t
val plan : t -> Ccdp_analysis.Annot.plan

(** {1 Initialization and read-back (untimed)} *)

(** Set an element in every copy (owner + replicas). *)
val set : t -> string -> int array -> float -> unit

(** Read the canonical (owner) copy from memory. *)
val get : t -> string -> int array -> float

(** The functional memory image, indexed by global word address
    ({!Addr_map}); the canonical copy of an element sits at
    [Addr_map.resolve_h h ~pe:0 idx]. Callers must not write it. *)
val memory : t -> float array

(** {1 Timed operations} *)

(** Build a PE's cache, queue, annex and staging state; no-op once done.
    A dormant PE's state is empty, so activation changes no simulated
    outcome. The by-name operations below activate their PE on demand;
    the prepared ones do not, and expect [pe] activated — which keeps the
    check off the per-access path. Raises [Invalid_argument] on a
    finished system (see {!finish}), and so does every by-name operation. *)
val activate : t -> pe:int -> unit

(** Execute a read reference on a PE per its classification. *)
val read : t -> pe:int -> Ccdp_ir.Reference.t -> idx:int array -> float

(** Execute a write reference on a PE. *)
val write : t -> pe:int -> Ccdp_ir.Reference.t -> idx:int array -> float -> unit

(** Issue one cache-line prefetch (software-pipelining steady state and
    prologue). [skip_cached] (clean latency-hiding prefetches only) skips
    lines with any cached copy rather than only this epoch's fresh ones. *)
val issue_line_prefetch :
  ?skip_cached:bool -> t -> pe:int -> string -> idx:int array -> unit

(** Cache-line address of an element as seen from a PE (strip-mined
    software pipelining issues once per line crossing). *)
val line_of : t -> pe:int -> string -> idx:int array -> int

(** Issue a vector prefetch (SHMEM-get style) for the given elements. *)
val vget_issue :
  ?skip_cached:bool -> t -> pe:int -> string -> int array list -> unit

(** {1 Prepared accesses (compiled-plan fast path)}

    Everything about a static reference that never changes during a run —
    its address kernel (tagged with the reference's source span), its read
    protocol (mode x classification x scheduled op x stale verdict), its
    HSCD version record — is resolved once by [prepare_read]/
    [prepare_write]. The per-access path is then pure arithmetic plus the
    protocol itself: no string hashing, no owner/target variant boxing, no
    per-access table lookups. Values move destination-passing through a
    caller's [float array] slot, so no float is boxed on the way. The
    timed semantics are identical to {!read}/{!write}, which share the
    same dispatch internally. *)

type raccess

val prepare_read : t -> Ccdp_ir.Reference.t -> raccess

(** The reference's address kernel: [Addr_map.resolve_h] on it from [pe]
    gives the address {!read} resolves internally, and raises
    {!Addr_map.Out_of_bounds} located at the reference. *)
val read_handle : raccess -> Addr_map.handle

(** Execute a prepared read at the address of [idx] from [pe] (see
    {!read_handle}), storing the value read into [dst.(k)]. [pe] must be
    activated, as for every prepared operation below. *)
val read_into :
  t -> pe:int -> raccess -> idx:int array -> addr:int -> float array -> int ->
  unit

type waccess

val prepare_write : t -> Ccdp_ir.Reference.t -> waccess
val write_handle : waccess -> Addr_map.handle

(** Execute a prepared write of [src.(k)] at [addr] (see {!write_handle}). *)
val write_from : t -> pe:int -> waccess -> addr:int -> float array -> int -> unit

(** Prepared twin of {!issue_line_prefetch}; [addr] from {!read_handle}. *)
val pf_issue_c : skip_cached:bool -> t -> pe:int -> raccess -> addr:int -> unit

(** Prepared twin of {!vget_issue}: the get covers the [n] word addresses
    [addrs.(0) .. addrs.(n-1)], each from {!read_handle}, in issue order.
    Reads [addrs] only during the call, so the caller may reuse it. *)
val vget_issue_c :
  skip_cached:bool ->
  t ->
  pe:int ->
  raccess ->
  addrs:int array ->
  n:int ->
  unit

(** Charge pure compute cycles to a PE (activated or not). *)
val charge : t -> pe:int -> int -> unit

val clock : t -> pe:int -> int

(** {1 Intra-epoch locks (critical sections)}

    A named lock serializes its critical sections within an epoch under
    deterministic PE-major arbitration: grants are booked in the order PEs
    execute (the serial replay order), so a later-executed PE queues behind
    every earlier booking even when its simulated arrival cycle is smaller.
    An uncontended acquire costs [Config.lock_acquire] cycles, a release
    [Config.lock_release]; contention stalls the acquirer until the
    holder's release and is counted in [Stats.lock_stall_cycles]. Lock
    state is reset at every epoch boundary (the barrier subsumes any
    release). *)

val lock_acquire : t -> pe:int -> string -> unit
val lock_release : t -> pe:int -> string -> unit

(** Epoch boundary: synchronize (barrier), drain prefetch state, apply
    mode-specific invalidation. [seq] mode skips the barrier cost. In the
    buffered modes this is also where the epoch's write versions settle,
    the shadow image catches up with memory, and the per-PE oracle ledgers
    merge (PE-major). *)
val epoch_boundary : t -> unit

(** Whether DOALL epochs of this memory system may be simulated with the
    PEs sharded across domains. True exactly when the mode buffers every
    cross-PE effect until the epoch barrier (Seq/Base/CCDP/Invalidate/
    Incoherent: fills observe the epoch-start shadow except for own
    writes, oracle versions settle at the barrier) {e and} the
    link-contention model is off. HSCD couples PEs through its write-
    version registers and MSI/MESI/Directory probe other caches
    mid-epoch, so they must replay serially; [Net.acquire] bookings
    (link_occ > 0) serialize PEs through shared per-link state likewise.
    Programs with critical sections also replay serially: locked (bypassed)
    reads observe other PEs' current-epoch writes through memory. *)
val shardable : t -> bool

(** The system a run hands back once its last barrier has passed: the
    same memory, caches, counters and oracle record, without the epoch
    buffering's shadow copy and write stamps, which the barrier has
    settled. Read-back, counters and protocol introspection work on it as
    before; it executes no further accesses. *)
val finish : t -> t

val time : t -> int
val total_stats : t -> Ccdp_machine.Stats.t

(** Residual cached values that disagree with memory (diagnostic for the
    incoherent mode): count of stale cached words across PEs. *)
val stale_cached_words : t -> int

(** {1 Protocol introspection (property tests)} *)

(** Protocol state of a line in a PE's cache ({!Ccdp_machine.Coherence}
    names the encoding; [Coherence.invalid] = not resident). *)
val line_state : t -> pe:int -> line:int -> int

(** The directory's recorded sharers of a line, ascending PE order. Empty
    in non-directory modes. *)
val dir_sharers : t -> line:int -> int list

(** The directory's dirty owner of a line (-1 = clean everywhere, and in
    non-directory modes). *)
val dir_owner : t -> line:int -> int

val sabotage : t -> sabotage

(** Whether the configured sabotage actually fired during the run — i.e.
    the protocol reached the action the fault class suppresses (an
    invalidation was skipped / a presence bit was corrupted). Always false
    under [No_fault]. *)
val sabotage_fired : t -> bool

(** Reference ids that actually observed a stale value during an
    [Incoherent] run — ground truth against which the stale-reference
    analysis must over-approximate (every observed id must be classified
    potentially stale). *)
val observed_stale_ids : t -> int list

(** {1 Staleness oracle} *)

(** One stale cache hit witnessed by the oracle. *)
type violation = {
  v_ref : int;  (** offending reference id *)
  v_pe : int;
  v_array : string;
  v_index : int array;
  v_addr : int;  (** global word address *)
  v_cached_version : int;
  v_mem_version : int;
  v_write_epoch : int;  (** epoch that produced the missed write *)
  v_read_epoch : int;  (** epoch in which the stale hit happened *)
}

val oracle_enabled : t -> bool

(** Number of oracle assertions evaluated (cache hits of tracked shared
    reads). 0 when the oracle is off. *)
val oracle_checked : t -> int

val oracle_violation_count : t -> int

(** The first few witnesses, oldest first (the count above is exact even
    when this list is truncated). *)
val oracle_violations : t -> violation list

val pp_violation : Format.formatter -> violation -> unit
