(** One processing element: clock, cache, prefetch queue, annex, counters.

    A PE is created dormant: its clock and counters exist, but its cache,
    queue and annex are shared empty placeholders, so a PE that never runs
    anything costs a few words. {!activate} builds its hardware, empty —
    the state a dormant PE is in anyway — so activating a PE changes no
    simulated outcome. *)

type t = {
  id : int;
  mutable clock : int;
  stats : Stats.t;
  mutable cache : Cache.t;
  mutable queue : Prefetch_queue.t;
  mutable annex : Dtb_annex.t;
}

(** A dormant PE. *)
val create : int -> t

(** Has {!activate} built this PE's hardware? *)
val active : t -> bool

(** Build the cache, queue and annex from the configuration; no-op on an
    active PE. *)
val activate : Config.t -> t -> unit

(** Advance the clock by a (non-negative) number of cycles. *)
val advance : t -> int -> unit

(** Reset clock, cache, queue, annex and stats (fresh run). *)
val reset : t -> unit
