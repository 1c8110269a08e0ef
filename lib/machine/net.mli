(** First-class interconnect descriptions.

    The machine model's distance and bandwidth behaviour lives behind this
    interface: [hops] gives the topological distance between two PEs,
    [cost] the pre-folded per-access latency increment ([hop] cycles per
    hop, folded into a flat matrix at [create] time so the per-access fast
    path is a single array read — no allocation, no dispatch), and
    [acquire] the optional link-occupancy accounting that charges queueing
    delay when concurrent remote transfers share a bottleneck link.

    The interconnect also carries the machine's coherence-cluster axis:
    [cluster_pes] consecutive PEs form one island whose internal transfers
    ride a cheap local fabric ([cost] folds same-cluster pairs to 0) and
    whose island-local snoop traffic serializes on a per-cluster bus
    ([acquire_cluster_bus]). [cluster_pes = 1] is the flat machine: every
    PE is its own singleton cluster and nothing changes. *)

type kind =
  | Uniform  (** every remote access costs the same; no geometry *)
  | Torus3d  (** the Cray T3D's 3-D torus (wraparound, minimal routing) *)
  | Mesh2d  (** 2-D mesh, no wraparound: Manhattan distance *)
  | Crossbar
      (** constant distance (one hop to any other PE); contention happens
          at the shared destination port *)

val kind_name : kind -> string
val kind_of_string : string -> kind option

(** All four kinds, in declaration order. *)
val all_kinds : kind list

(** [kind_name] of every kind, in declaration order (for generated CLI
    help). *)
val kind_names : string list

type t

(** [create ?hop ?cluster_pes kind ~n_pes] builds the interconnect at the
    given machine width. [hop] is the per-hop latency in cycles (default
    0); [cluster_pes] the coherence-cluster width (default 1 = flat; must
    divide [n_pes]). The all-pairs cost matrix is folded here, once. *)
val create : ?hop:int -> ?cluster_pes:int -> kind -> n_pes:int -> t

val kind : t -> kind
val n_pes : t -> int

(** Topological distance between two PEs. A metric: [hops a a = 0],
    symmetric, and satisfies the triangle inequality. *)
val hops : t -> int -> int -> int

(** Maximum of [hops] over all PE pairs. *)
val diameter : t -> int

(** PEs per coherence cluster (1 on a flat machine). *)
val cluster_pes : t -> int

(** Number of coherence clusters ([n_pes / cluster_pes]). *)
val n_clusters : t -> int

(** The cluster PE [pe] belongs to: [pe / cluster_pes]. *)
val cluster_of : t -> int -> int

(** Whether two PEs share a coherence cluster. With [cluster_pes = 1] this
    holds only for [a = b]. *)
val same_cluster : t -> int -> int -> bool

(** Pre-folded latency increment of a remote access from [src] to [dst]:
    [hop * hops src dst], read from the matrix built at [create] time —
    except that same-cluster pairs cost 0 (intra-cluster transfers ride
    the island's local fabric, not the machine interconnect). *)
val cost : t -> src:int -> dst:int -> int

(** [acquire t ~dst ~now ~hold] books [hold] cycles of the bottleneck link
    into PE [dst] starting at cycle [now] and returns the queueing delay
    until the link is free; {!last_depth} then reports how many transfers
    (including this one) the current busy burst holds. Deterministic —
    link state is a pure function of the acquire sequence. *)
val acquire : t -> dst:int -> now:int -> hold:int -> int

(** [acquire_bus t ~now ~since ~hold] books [hold] cycles of the
    machine-wide serialized snoop bus for a transaction happening at local
    cycle [now] on a PE whose current epoch began at cycle [since] (the
    post-barrier clock). Returns the queueing delay; {!last_depth} then
    reports the backlog depth. The
    bus is modelled as a throughput bottleneck — accumulated service
    demand since the last barrier versus the requester's elapsed epoch
    time — rather than a next-free-cycle port, because epochs are
    replayed PE-major on private clocks (see the implementation comment).
    Every PE's coherence transactions share the single counter; only the
    bus-snooping modes use it. Deterministic. *)
val acquire_bus : t -> now:int -> since:int -> hold:int -> int

(** [acquire_cluster_bus t ~cluster ~now ~since ~hold] is [acquire_bus]
    scoped to one island's local snoop bus: the same throughput-backlog
    model with an independent counter per cluster, so one island's
    coherence storm never delays another's. Used by the Clustered mode's
    intra-cluster snoops. *)
val acquire_cluster_bus :
  t -> cluster:int -> now:int -> since:int -> hold:int -> int

(** Burst (link) or backlog (bus) depth of the most recent acquire,
    including that transaction. Bookings are only made by serially
    replayed runs (contention and snooping both disable epoch sharding),
    so the out-field is never raced on. *)
val last_depth : t -> int

(** Forget all link (and bus) bookings (barriers drain the network). *)
val reset_links : t -> unit

val pp : Format.formatter -> t -> unit
