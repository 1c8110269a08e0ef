type t = {
  n_pes : int;
  cluster_pes : int;
  cache_words : int;
  line_words : int;
  assoc : int;
  prefetch_queue_words : int;
  annex_entries : int;
  hit : int;
  local : int;
  uncached_local : int;
  remote : int;
  net : Net.kind;
  hop : int;
  link_occ : int;
  bus_occ : int;
  store_local : int;
  store_remote : int;
  pf_issue : int;
  pf_extract : int;
  annex_setup : int;
  vget_startup : int;
  vget_per_word : int;
  barrier_base : int;
  barrier_per_level : int;
  flop : int;
  loop_overhead : int;
  lock_acquire : int;
  lock_release : int;
}

let t3d ~n_pes =
  {
    n_pes;
    cluster_pes = 1;
    cache_words = 1024 (* 8 KB of 64-bit words *);
    line_words = 4 (* 32-byte lines *);
    assoc = 1 (* direct-mapped EV4 *);
    prefetch_queue_words = 16;
    annex_entries = 32;
    hit = 3;
    local = 22 (* ~150ns at 150 MHz *);
    uncached_local = 8 (* read-ahead buffered local stream *);
    remote = 90 (* ~600ns one-way shared read *);
    net = Net.Uniform;
    hop = 0;
    link_occ = 0;
    bus_occ = 4;
    store_local = 3;
    store_remote = 12 (* buffered network injection *);
    pf_issue = 6 (* prefetch instruction + queue bookkeeping *);
    pf_extract = 8 (* significant, per Arpaci et al. *);
    annex_setup = 23 (* DTB Annex write overhead *);
    vget_startup = 120 (* shmem_get fixed cost *);
    vget_per_word = 2 (* pipelined block-transfer bandwidth *);
    barrier_base = 30;
    barrier_per_level = 8;
    flop = 4 (* EV4 FP latency dominates issue *);
    loop_overhead = 2;
    lock_acquire = 180 (* uncontended remote atomic swap: ~2 one-way trips *);
    lock_release = 90 (* release store + publication fence *);
  }

let tiny ~n_pes =
  {
    n_pes;
    cluster_pes = 1;
    cache_words = 64;
    line_words = 4;
    assoc = 1;
    prefetch_queue_words = 8;
    annex_entries = 4;
    hit = 1;
    local = 10;
    uncached_local = 4;
    remote = 40;
    net = Net.Uniform;
    hop = 0;
    link_occ = 0;
    bus_occ = 2;
    store_local = 1;
    store_remote = 4;
    pf_issue = 2;
    pf_extract = 2;
    annex_setup = 5;
    vget_startup = 20;
    vget_per_word = 1;
    barrier_base = 5;
    barrier_per_level = 2;
    flop = 1;
    loop_overhead = 1;
    lock_acquire = 80;
    lock_release = 40;
  }

(* Rebalance a distance-model preset so the machine-average remote cost
   stays near the uniform preset's: average hop count across the machine
   is about half the diameter, and that share of the latency moves from
   the flat [remote] base into the per-hop term. *)
let with_net base kind ~hop =
  let net = Net.create kind ~n_pes:base.n_pes in
  let avg_hops = max 1 ((Net.diameter net + 1) / 2) in
  {
    base with
    remote = max base.local (base.remote - (hop * avg_hops));
    net = kind;
    hop;
  }

let t3d_torus ~n_pes =
  with_net (t3d ~n_pes) Net.Torus3d ~hop:8 (* ~50ns per hop at 150 MHz *)

let t3d_mesh ~n_pes = with_net (t3d ~n_pes) Net.Mesh2d ~hop:8

let t3d_xbar ~n_pes =
  (* constant one-hop distance; the interesting behaviour is the shared
     destination port, so the contention model is on by default *)
  { (with_net (t3d ~n_pes) Net.Crossbar ~hop:8) with link_occ = 4 }

let of_kind kind ~n_pes =
  match kind with
  | Net.Uniform -> t3d ~n_pes
  | Net.Torus3d -> t3d_torus ~n_pes
  | Net.Mesh2d -> t3d_mesh ~n_pes
  | Net.Crossbar -> t3d_xbar ~n_pes

(* CXL-style partially-coherent machine: PEs grouped into [clusters]
   hardware-coherent islands over the crossbar fabric. The preset name
   records the shape at the nominal 64-PE width (cxl-2x32 = 2 islands of
   32); at other widths the island count is preserved and the island
   width follows [n_pes / clusters], degrading to a flat machine when the
   division does not come out even (validation would reject a ragged
   clustering). *)
let cxl ~clusters ~n_pes =
  {
    (t3d_xbar ~n_pes) with
    cluster_pes = (if n_pes mod clusters = 0 then n_pes / clusters else 1);
  }

let cxl_2x32 ~n_pes = cxl ~clusters:2 ~n_pes
let cxl_4x16 ~n_pes = cxl ~clusters:4 ~n_pes
let cxl_8x8 ~n_pes = cxl ~clusters:8 ~n_pes

let presets =
  [
    ("t3d", t3d);
    ("t3d-torus", t3d_torus);
    ("t3d-mesh", t3d_mesh);
    ("t3d-xbar", t3d_xbar);
    ("cxl-2x32", cxl_2x32);
    ("cxl-4x16", cxl_4x16);
    ("cxl-8x8", cxl_8x8);
    ("tiny", tiny);
  ]

let preset_of_string s =
  let s = String.lowercase_ascii s in
  match List.assoc_opt s presets with
  | Some p -> Some p
  | None -> (
      (* bare interconnect kinds select the matching T3D variant *)
      match Net.kind_of_string s with
      | Some k -> Some (of_kind k)
      | None -> None)

let preset_names = List.map fst presets

let lines t = t.cache_words / t.line_words

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let barrier_cost t = t.barrier_base + (t.barrier_per_level * log2_ceil t.n_pes)
let lines_for_words t w = (w + t.line_words - 1) / t.line_words

let validate t =
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check (t.n_pes > 0) "n_pes must be positive";
  check (t.cluster_pes > 0) "cluster_pes must be positive";
  if t.n_pes > 0 && t.cluster_pes > 0 then
    check (t.n_pes mod t.cluster_pes = 0) "cluster_pes must divide n_pes";
  check (t.line_words > 0) "line_words must be positive";
  check (t.assoc > 0) "assoc must be positive";
  if t.line_words > 0 && t.assoc > 0 then begin
    check (t.cache_words >= t.line_words) "cache smaller than one line";
    check (t.cache_words mod t.line_words = 0)
      "cache_words not a multiple of line_words";
    check (lines t mod t.assoc = 0) "lines not a multiple of assoc"
  end;
  check (t.prefetch_queue_words >= 0) "prefetch_queue_words must be >= 0";
  check (t.remote >= t.local) "remote latency below local latency";
  check (t.uncached_local >= 0) "uncached_local must be >= 0";
  check (t.local >= t.hit) "local latency below hit latency";
  check (t.hit >= 0) "hit must be >= 0";
  check (t.hop >= 0) "hop must be >= 0";
  check (t.link_occ >= 0) "link_occ must be >= 0";
  check (t.bus_occ >= 0) "bus_occ must be >= 0";
  check (t.annex_entries > 0) "annex_entries must be positive";
  check (t.store_local >= 0) "store_local must be >= 0";
  check (t.store_remote >= 0) "store_remote must be >= 0";
  check (t.pf_issue >= 0) "pf_issue must be >= 0";
  check (t.pf_extract >= 0) "pf_extract must be >= 0";
  check (t.annex_setup >= 0) "annex_setup must be >= 0";
  check (t.vget_startup >= 0) "vget_startup must be >= 0";
  check (t.vget_per_word >= 0) "vget_per_word must be >= 0";
  check (t.barrier_base >= 0) "barrier_base must be >= 0";
  check (t.barrier_per_level >= 0) "barrier_per_level must be >= 0";
  check (t.flop >= 0) "flop must be >= 0";
  check (t.loop_overhead >= 0) "loop_overhead must be >= 0";
  check (t.lock_acquire >= 0) "lock_acquire must be >= 0";
  check (t.lock_release >= 0) "lock_release must be >= 0";
  List.rev !problems

let pp ppf t =
  Format.fprintf ppf
    "@[<v>machine: %d PEs (clusters of %d)@,\
     network: %s hop=%d link-occ=%d bus-occ=%d@,\
     cache: %d words, %d-word lines, %d-way@,\
     prefetch queue: %d words; annex: %d entries@,\
     latency: hit=%d local=%d/%d remote=%d store=%d/%d@,\
     prefetch: issue=%d extract=%d annex=%d vget=%d+%d/word@,\
     barrier: %d; flop=%d loop=%d; lock=%d/%d@]"
    t.n_pes t.cluster_pes (Net.kind_name t.net) t.hop t.link_occ t.bus_occ
    t.cache_words
    t.line_words
    t.assoc t.prefetch_queue_words t.annex_entries t.hit t.local
    t.uncached_local t.remote t.store_local t.store_remote t.pf_issue
    t.pf_extract t.annex_setup t.vget_startup t.vget_per_word (barrier_cost t)
    t.flop t.loop_overhead t.lock_acquire t.lock_release
