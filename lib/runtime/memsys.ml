open Ccdp_ir
open Ccdp_machine

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

let mode_name = function
  | Seq -> "SEQ"
  | Base -> "BASE"
  | Ccdp -> "CCDP"
  | Invalidate -> "INV"
  | Incoherent -> "INC"
  | Hscd -> "HSCD"
  | Msi -> "MSI"
  | Mesi -> "MESI"
  | Directory -> "DIR"
  | Clustered -> "CLU"

let all_modes =
  [ Seq; Base; Ccdp; Invalidate; Incoherent; Hscd; Msi; Mesi; Directory; Clustered ]

let mode_describe = function
  | Seq -> "sequential reference execution (1 PE)"
  | Base -> "parallel, shared data never cached"
  | Ccdp -> "compiler-directed coherence with data prefetching"
  | Incoherent -> "parallel, caches left incoherent (unsound; ground truth)"
  | Invalidate -> "parallel, full cache invalidation at every barrier"
  | Hscd -> "hardware-supported compiler-directed version checks"
  | Msi -> "MSI bus snooping"
  | Mesi -> "MESI bus snooping"
  | Directory -> "full-map directory protocol"
  | Clustered -> "hardware-coherent islands, CCDP discipline across clusters"

let mode_of_string s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun m -> mode_name m = s) all_modes

(* Protocol fault injection for the differential campaign: each fault
   class breaks exactly the coherence action whose absence the staleness
   oracle must witness. The cost accounting is untouched — the sabotaged
   run looks identical on every counter, which is why value-blind testing
   cannot catch these. *)
type sabotage =
  | No_fault
  | Drop_invalidate
      (** snooping: the first remote copy a write transaction should
          invalidate is silently skipped *)
  | Corrupt_presence
      (** directory: the first sharer of a write's invalidation set is
          dropped from the presence bitset instead of invalidated *)
  | Drop_inter_cluster_invalidate
      (** clustered: the first copy a cross-cluster write's home-island
          back-invalidation should kill survives *)

(* HSCD write-version state of one array: [settled] is the last completed
   epoch tick that contained any write; [writers] is a bitmask of the PEs
   that have written during the current epoch (all-ones when a PE id
   exceeds the mask width). A reader whose own PE is the only current
   writer may trust same-epoch fills: nobody else changed memory. A record
   with [settled = -1; writers = 0] is indistinguishable from an absent
   one, which lets prepared accesses pin the record up front. *)
type version = { mutable settled : int; mutable writers : int }

(* Dynamic staleness oracle: memory carries a per-word version stamp
   (monotonic write counter) and the epoch in which the stamp was produced;
   cache lines capture the stamps of their words at fill/update time. A
   cache hit whose captured version predates a write completed before the
   current epoch has observed a stale copy — a concrete unsoundness witness
   for the stale-reference analysis, independent of whether the numeric
   value happens to coincide. *)
type violation = {
  v_ref : int;  (** offending reference id *)
  v_pe : int;
  v_array : string;
  v_index : int array;
  v_addr : int;
  v_cached_version : int;
  v_mem_version : int;
  v_write_epoch : int;  (** epoch that produced the missed write *)
  v_read_epoch : int;  (** epoch in which the stale hit happened *)
}

type oracle = {
  wver : int array;  (** per-word last-write version *)
  wepoch : int array;  (** epoch tick of the last write; -1 = init *)
  wpe : int array;
      (** PE that produced the last write; -1 = init. Consulted only by the
          clustered exemption rule (and only meaningful unbuffered, where
          versions settle at the write itself). *)
  mutable next_ver : int;
  mutable checked : int;
  mutable n_violations : int;
  mutable violations : violation list;  (** first few witnesses, newest first *)
}

let max_kept_violations = 16

(* Per-PE CCDP staging state, in flat int structures that allocate
   nothing in steady state. The vector-get consumption order (oldest
   staged line evicted first) is a ring of [(line, generation)] pairs with
   lazy deletion: consuming or evicting a line leaves its ring entry
   behind as a tombstone, detected later by a generation mismatch against
   [vstamp]. Re-staging a line that is still staged only refreshes its
   ready cycle and keeps its ring position. The tables are cleared at
   every barrier by a generation bump (see {!Int_table}). *)
type pe_ctx = {
  pe : Pe.t;
  (* the activated PE's own hardware, in immutable fields so the
     per-access path loads each once *)
  cache : Cache.t;
  queue : Prefetch_queue.t;
  annex : Dtb_annex.t;
  vget : Int_table.t;  (** line -> ready cycle *)
  vstamp : Int_table.t;  (** line -> generation of its live entry *)
  mutable vq_line : int array;
      (** staging-order ring, oldest first; has tombstones. Its capacity
          is a power of two. *)
  mutable vq_gen : int array;
  mutable vq_head : int;
  mutable vq_len : int;
  mutable vgen : int;
  mutable vget_words : int;
  fresh : Int_table.t;  (** lines filled since the last barrier (value 1) *)
  vseen : Int_table.t;  (** scratch: lines met by the current vector get *)
  mutable vlines : int array;  (** scratch: lines the current get stages *)
  (* Buffered-mode private ledgers, reduced in PE-major order at the epoch
     barrier so sharded execution reproduces the serial reduction exactly. *)
  mutable wbuf : int array;  (** addresses written this epoch, program order *)
  mutable wn : int;
  mutable pchecked : int;  (** staged oracle assertions *)
  mutable pnviol : int;  (** staged violation count (exact) *)
  mutable pviol : violation list;  (** staged witnesses, newest first *)
  pobs : (int, unit) Hashtbl.t;  (** staged INCOHERENT observed-stale ids *)
  fbuf : float array;  (** scratch line for patched buffered fills *)
  one : float array;
      (** one-word scratch through which the by-name {!read}/{!write}
          pass their value to the destination-passing protocol *)
  vbuf : int array;  (** scratch version line for patched buffered fills *)
}

(* Which hardware-coherence machinery is armed. Snooping carries only its
   MESI flag; the directory carries its presence/owner table. Everything
   protocol-specific dispatches on this once-per-run value, so the
   established modes never touch the new state. *)
type hw =
  | Hw_none
  | Hw_snoop of bool  (** [true] = MESI *)
  | Hw_dir of Coherence.Dir.t
  | Hw_cluster
      (** hardware-coherent islands: MESI snooping scoped to the
          requester's cluster, CCDP stale discipline across clusters *)

(* A named intra-epoch lock. [free_at] is the cycle at which the last
   granted holder released it; grants are booked in the order PEs execute
   (PE-major under serial replay), which makes arbitration deterministic:
   a later-executed PE queues behind every earlier booking even when its
   simulated arrival cycle is smaller. *)
type lock_state = { mutable free_at : int }

type t = {
  cfg : Config.t;
  md : mode;
  hw : hw;
  sab : sabotage;
  mutable sab_fired : bool;
      (** set the first time the configured sabotage actually skipped an
          invalidation — distinguishes armed faults from fired ones *)
  amap : Addr_map.t;
  mem : float array;
  mach : Machine.t;
  pes : Pe.t array;
      (** every PE's clock and counters, active or not: the machine's own
          records *)
  ctxs : pe_ctx array;
      (** [idle] until the PE's first activation, see {!activate} *)
  mutable live : int array;  (** the activated PEs, ascending *)
  mutable n_live : int;
  epoch_start : int array;  (** every PE's clock at the last barrier *)
  decls : (string, Array_decl.t) Hashtbl.t;
  handles : (string, Addr_map.handle) Hashtbl.t;
  pl : Ccdp_analysis.Annot.plan;
  net : Net.t;  (** interconnect: distances + link-occupancy bookings *)
  mutable epoch_tick : int;  (** epoch-execution counter (version clock) *)
  versions : (string, version) Hashtbl.t;
      (** HSCD: per-array write-version state *)
  observed_stale : (int, unit) Hashtbl.t;
      (** reference ids that returned a value differing from memory
          (photographed in INCOHERENT mode; ground truth for validating the
          stale-reference analysis) *)
  ora : oracle option;
  wv : int array;  (** the oracle's [wver], or [[||]] when the oracle is off *)
  buffered : bool;
      (** epoch-buffered cross-PE effects (Seq/Base/Ccdp/Invalidate/
          Incoherent): fills read the epoch-start [shadow] except for the
          filling PE's own writes, and oracle versions settle at the
          barrier — PEs of one epoch become order-independent *)
  shadow : float array;
      (** memory as of the last barrier ([[||]] unbuffered; [mem] itself
          once the run has finished, see {!finish}) *)
  wstamp : int array;
      (** per-word [epoch * n_pes + pe] stamp of the current epoch's write,
          never reset (stale stamps cannot collide: the base grows
          monotonically); [[||]] when unbuffered or finished *)
  finished : bool;  (** handed back by {!finish}: read-back only *)
  locks : (string, lock_state) Hashtbl.t;
      (** named critical-section locks, created on first acquire and reset
          at every epoch boundary (the barrier subsumes any release) *)
  has_sync : bool;
      (** the program contains critical sections: locked bypass reads
          observe other PEs' current-epoch writes through [mem], so DOALL
          epochs must replay serially (see {!shardable}) *)
  mutable snoop_wb : int;
      (** write-back penalty found by the latest snoop phase: an
          out-field beside the returned copy count, so a snoop allocates
          no tuple (snooping modes replay serially, never sharded) *)
}

(* The staging state of one activated PE: everything per PE besides its
   clock and counters, built on the PE's first activation. *)
let new_ctx ~line_words ~buffered ~oracle (pe : Pe.t) =
  {
    pe;
    cache = pe.Pe.cache;
    queue = pe.Pe.queue;
    annex = pe.Pe.annex;
    vget = Int_table.create ();
    vstamp = Int_table.create ();
    vq_line = Array.make 8 0;
    vq_gen = Array.make 8 0;
    vq_head = 0;
    vq_len = 0;
    vgen = 0;
    vget_words = 0;
    fresh = Int_table.create ();
    vseen = Int_table.create ();
    vlines = Array.make 8 0;
    wbuf = (if buffered then Array.make 64 0 else [||]);
    wn = 0;
    pchecked = 0;
    pnviol = 0;
    pviol = [];
    pobs = Hashtbl.create 16;
    fbuf = (if buffered then Array.make line_words 0.0 else [||]);
    vbuf = (if buffered && oracle then Array.make line_words 0 else [||]);
    one = [| 0.0 |];
  }

(* The one stand-in for every PE of every memory system that is not yet
   activated: never written, as only an activated PE executes. *)
let idle = new_ctx ~line_words:0 ~buffered:false ~oracle:false (Pe.create (-1))

let create cfg ?(oracle = false) ?(sabotage = No_fault) (p : Program.t) ~plan
    md =
  let mach = Machine.create cfg in
  let amap =
    Addr_map.make p ~n_pes:cfg.Config.n_pes ~line_words:cfg.Config.line_words
      ~cache_lines:(Config.lines cfg)
      ()
  in
  let decls = Hashtbl.create 16 in
  List.iter (fun (a : Array_decl.t) -> Hashtbl.replace decls a.name a) p.Program.arrays;
  let ora =
    if oracle then
      let words = Addr_map.total_words amap in
      Some
        {
          wver = Array.make words 0;
          wepoch = Array.make words (-1);
          wpe = Array.make words (-1);
          next_ver = 0;
          checked = 0;
          n_violations = 0;
          violations = [];
        }
    else None
  in
  let hw =
    match md with
    | Msi -> Hw_snoop false
    | Mesi -> Hw_snoop true
    | Directory ->
        let n_lines =
          (Addr_map.total_words amap + cfg.Config.line_words - 1)
          / cfg.Config.line_words
        in
        Hw_dir (Coherence.Dir.create ~n_pes:cfg.Config.n_pes ~n_lines)
    | Clustered -> Hw_cluster
    | Seq | Base | Ccdp | Invalidate | Incoherent | Hscd -> Hw_none
  in
  let buffered =
    match md with
    | Seq | Base | Ccdp | Invalidate | Incoherent -> true
    | Hscd | Msi | Mesi | Directory | Clustered -> false
  in
  let words = Addr_map.total_words amap in
  let has_sync =
    let is_crit acc s =
      acc || match s with Stmt.Critical _ -> true | _ -> false
    in
    Stmt.fold is_crit false p.Program.main
    || List.exists
         (fun (pr : Program.proc) -> Stmt.fold is_crit false pr.Program.body)
         p.Program.procs
  in
  {
    cfg;
    md;
    hw;
    sab = sabotage;
    sab_fired = false;
    amap;
    mem = Array.make words 0.0;
    mach;
    pes = mach.Machine.pes;
    ctxs = Array.make cfg.Config.n_pes idle;
    live = [||];
    n_live = 0;
    epoch_start = Array.make cfg.Config.n_pes 0;
    decls;
    handles = Hashtbl.create 16;
    pl = plan;
    net =
      (* a machine width the configured clustering cannot tile (the seq
         baseline's 1-PE rebuild of a clustered config, mainly) degrades
         to flat rather than failing: a machine of one PE has no islands *)
      (let cluster_pes =
         if cfg.Config.n_pes mod cfg.Config.cluster_pes = 0 then
           cfg.Config.cluster_pes
         else 1
       in
       Net.create ~hop:cfg.Config.hop ~cluster_pes cfg.Config.net
         ~n_pes:cfg.Config.n_pes);
    epoch_tick = 0;
    versions = Hashtbl.create 16;
    observed_stale = Hashtbl.create 16;
    ora;
    wv = (match ora with Some o -> o.wver | None -> [||]);
    buffered;
    shadow = (if buffered then Array.make words 0.0 else [||]);
    wstamp = (if buffered then Array.make words min_int else [||]);
    finished = false;
    locks = Hashtbl.create 4;
    has_sync;
    snoop_wb = 0;
  }

let cfg t = t.cfg
let mode t = t.md
let map t = t.amap
let machine t = t.mach
let plan t = t.pl
let decl t name = Hashtbl.find t.decls name

let handle_of t name =
  match Hashtbl.find_opt t.handles name with
  | Some h -> h
  | None ->
      let h = Addr_map.handle t.amap name in
      Hashtbl.replace t.handles name h;
      h

let set t name idx v =
  List.iter
    (fun a ->
      t.mem.(a) <- v;
      if t.buffered then t.shadow.(a) <- v;
      match t.ora with
      | Some o ->
          (* untimed initialization: versioned, but settled before epoch 0 *)
          o.next_ver <- o.next_ver + 1;
          o.wver.(a) <- o.next_ver;
          o.wepoch.(a) <- -1;
          o.wpe.(a) <- -1
      | None -> ())
    (Addr_map.all_copies t.amap name idx)

let get t name idx = t.mem.(Addr_map.canonical t.amap name idx)
let memory t = t.mem
let charge t ~pe c =
  let p = t.pes.(pe) in
  p.Pe.stats.Stats.flop_cycles <- p.Pe.stats.Stats.flop_cycles + c;
  Pe.advance p c

let clock t ~pe = t.pes.(pe).Pe.clock

(* ------------------------------------------------------------------ *)
(* Activation                                                          *)
(* ------------------------------------------------------------------ *)

(* A PE's hardware and staging state are built when it first executes.
   A dormant PE holds an empty cache, queue, annex and staging tables, so
   every protocol action on its behalf is a no-op: the fan-outs below
   visit activated PEs only, and activating a PE changes nothing but
   what it may do next. Its clock and counters live in [pes] throughout,
   which keeps every result exact without deriving anything for it. *)
let activated t pe = t.ctxs.(pe) != idle

let activate t ~pe =
  if t.finished then
    invalid_arg "Memsys: the run has finished; its memory is for read-back";
  if not (activated t pe) then begin
    t.ctxs.(pe) <-
      new_ctx ~line_words:t.cfg.Config.line_words ~buffered:t.buffered
        ~oracle:(t.ora <> None) (Machine.pe t.mach pe);
    (* insert into the ascending live list *)
    if t.n_live = Array.length t.live then begin
      let nl = Array.make (max 8 (2 * t.n_live)) 0 in
      Array.blit t.live 0 nl 0 t.n_live;
      t.live <- nl
    end;
    let k = ref t.n_live in
    while !k > 0 && t.live.(!k - 1) > pe do
      t.live.(!k) <- t.live.(!k - 1);
      decr k
    done;
    t.live.(!k) <- pe;
    t.n_live <- t.n_live + 1
  end

(* The PE's state for the by-name entry points, which activate on demand;
   the prepared ones expect the engine to have activated the PE. *)
let ctx_of t pe =
  activate t ~pe;
  t.ctxs.(pe)

(* [f] over the activated PEs' states, in ascending PE order *)
let iter_live t f =
  for i = 0 to t.n_live - 1 do
    f t.ctxs.(t.live.(i))
  done

let fold_live t f init =
  let acc = ref init in
  iter_live t (fun ctx -> acc := f !acc ctx);
  !acc

(* ------------------------------------------------------------------ *)
(* Intra-epoch locks                                                   *)
(* ------------------------------------------------------------------ *)

(* Acquire: an uncontended acquire costs [lock_acquire] cycles (a remote
   atomic swap round trip); a contended one additionally stalls until the
   holder's release. Grants are booked in PE execution order — serial
   PE-major replay makes the arbitration deterministic. *)
let lock_acquire t ~pe name =
  let ctx = ctx_of t pe in
  let st =
    match Hashtbl.find_opt t.locks name with
    | Some st -> st
    | None ->
        let st = { free_at = 0 } in
        Hashtbl.replace t.locks name st;
        st
  in
  let arrival = ctx.pe.Pe.clock in
  let grant = max (arrival + t.cfg.Config.lock_acquire) st.free_at in
  let stall = grant - arrival - t.cfg.Config.lock_acquire in
  let s = ctx.pe.Pe.stats in
  s.Stats.lock_acquires <- s.Stats.lock_acquires + 1;
  if stall > 0 then begin
    s.Stats.lock_stall_cycles <- s.Stats.lock_stall_cycles + stall;
    s.Stats.stall_cycles <- s.Stats.stall_cycles + stall
  end;
  Pe.advance ctx.pe (grant - arrival)

(* Release: the publication fence — [lock_release] cycles, after which the
   section's writes are visible to the next holder (locked readers bypass
   the cache, so memory itself is already current). *)
let lock_release t ~pe name =
  let ctx = ctx_of t pe in
  Pe.advance ctx.pe t.cfg.Config.lock_release;
  match Hashtbl.find_opt t.locks name with
  | Some st -> if ctx.pe.Pe.clock > st.free_at then st.free_at <- ctx.pe.Pe.clock
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Internals                                                           *)
(* ------------------------------------------------------------------ *)

(* Targets are plain ints on the per-access path: [-1] is local, anything
   else the owning (remote) PE id — no variant boxing per access. *)

(* Per-access hop cost: [Net.cost] reads the all-pairs matrix folded once
   at [Net.create] time, so the prepared-access fast path stays a single
   array lookup — no dispatch, no allocation. *)
let net_dist t ~pe owner = Net.cost t.net ~src:pe ~dst:owner

(* Intra-cluster transfers ride the island's local fabric at the cheap
   local rate; only genuinely inter-cluster references pay the base remote
   latency plus per-hop distance. On a flat machine ([cluster_pes = 1]) a
   remote target is never same-cluster, so nothing changes. *)
let latency_of t ~pe tgt =
  if tgt < 0 || Net.same_cluster t.net pe tgt then t.cfg.Config.local
  else t.cfg.Config.remote + net_dist t ~pe tgt

(* Latency of a read that does not allocate in the cache: local reads
   stream through the T3D read-ahead buffer. *)
let uncached_latency_of t ~pe tgt =
  if tgt < 0 || Net.same_cluster t.net pe tgt then t.cfg.Config.uncached_local
  else t.cfg.Config.remote + net_dist t ~pe tgt

(* Link-occupancy accounting: a remote transfer of [lines] cache lines
   books its bottleneck link for [link_occ] cycles per line starting at
   [now]; the returned queueing delay is added to the transfer's latency.
   Free (and counter-silent) when the contention model is off or the
   access is local. *)
let contend t ctx tgt ~now ~lines =
  if
    t.cfg.Config.link_occ = 0 || tgt < 0
    || Net.same_cluster t.net ctx.pe.Pe.id tgt
  then 0
  else begin
    let delay =
      Net.acquire t.net ~dst:tgt ~now ~hold:(t.cfg.Config.link_occ * lines)
    in
    let depth = Net.last_depth t.net in
    let s = ctx.pe.Pe.stats in
    if delay > 0 then
      s.Stats.link_conflicts <- s.Stats.link_conflicts + 1;
    if depth > s.Stats.link_occ_max then s.Stats.link_occ_max <- depth;
    delay
  end

let store_cost t ~pe tgt =
  if tgt < 0 || Net.same_cluster t.net pe tgt then t.cfg.Config.store_local
  else t.cfg.Config.store_remote

(* Snoop-bus arbitration: every MSI/MESI coherence transaction (miss
   fetch, upgrade, write-allocate) serializes through one machine-wide
   bus, modelled as a throughput backlog against the epoch barrier (see
   Net.acquire_bus). The queueing delay is what stops snooping from
   scaling with PE count. *)
let bus_acquire t ctx ~lines =
  if t.cfg.Config.bus_occ = 0 then 0
  else begin
    let delay =
      Net.acquire_bus t.net ~now:ctx.pe.Pe.clock
        ~since:t.epoch_start.(ctx.pe.Pe.id)
        ~hold:(t.cfg.Config.bus_occ * lines)
    in
    if delay > 0 then begin
      let s = ctx.pe.Pe.stats in
      s.Stats.bus_conflicts <- s.Stats.bus_conflicts + 1
    end;
    delay
  end

(* Island-bus arbitration: the clustered mode's intra-cluster coherence
   transactions serialize on their island's local bus — the same
   throughput-backlog model, but one counter per cluster, so one island's
   storm never delays another's. *)
let cluster_bus_acquire t ctx ~lines =
  if t.cfg.Config.bus_occ = 0 then 0
  else begin
    let delay =
      Net.acquire_cluster_bus t.net
        ~cluster:(Net.cluster_of t.net ctx.pe.Pe.id)
        ~now:ctx.pe.Pe.clock
        ~since:t.epoch_start.(ctx.pe.Pe.id)
        ~hold:(t.cfg.Config.bus_occ * lines)
    in
    if delay > 0 then begin
      let s = ctx.pe.Pe.stats in
      s.Stats.bus_conflicts <- s.Stats.bus_conflicts + 1
    end;
    delay
  end

(* Annex set-up cost of addressing a target PE (free when resident). *)
let annex_cost t ctx tgt =
  if tgt < 0 then 0
  else if Dtb_annex.touch ctx.annex tgt then begin
    ctx.pe.Pe.stats.Stats.annex_hits <- ctx.pe.Pe.stats.Stats.annex_hits + 1;
    0
  end
  else begin
    ctx.pe.Pe.stats.Stats.annex_misses <- ctx.pe.Pe.stats.Stats.annex_misses + 1;
    t.cfg.Config.annex_setup
  end

(* Directory bookkeeping of a displaced line: the home forgets this PE's
   copy (a replacement-hint message), and displacing the line one owns
   Modified additionally pays the write-back injection. *)
let dir_note_eviction t ctx d =
  let ev = Cache.last_evicted_line ctx.cache in
  if ev >= 0 then begin
    let self = ctx.pe.Pe.id in
    Coherence.Dir.remove d ~line:ev ~pe:self;
    let s = ctx.pe.Pe.stats in
    s.Stats.dir_msgs <- s.Stats.dir_msgs + 1;
    if Coherence.Dir.owner d ~line:ev = self then begin
      Coherence.Dir.set_owner d ~line:ev (-1);
      Pe.advance ctx.pe t.cfg.Config.store_remote
    end
  end

(* Current-epoch write stamp of [pe]: unique per (epoch, PE), monotonic
   across epochs, so [wstamp] never needs clearing. *)
let stamp_of t pe = (t.epoch_tick * Array.length t.ctxs) + pe

(* Buffered fill: a line transfer observes memory as of the last barrier
   ([shadow]) except for words this PE itself wrote in the current epoch,
   which it reads back from [mem]. Foreign same-epoch writes land in a
   line only through false sharing (the epoch model is race-free at word
   granularity) and under serial PE-major replay their visibility would
   depend on PE order — shadow makes it epoch-deterministic, and it is
   the only value a concurrently executing shard may soundly read.
   Racing on a foreign [wstamp] word is benign: whatever value is
   observed, it is never this PE's own stamp. *)
let buffered_fill ~state t ctx line =
  let lw = t.cfg.Config.line_words in
  let pos = line * lw in
  let base = stamp_of t ctx.pe.Pe.id in
  let own = ref false in
  for k = pos to pos + lw - 1 do
    if t.wstamp.(k) = base then own := true
  done;
  if not !own then
    Cache.fill_from ctx.cache ~tick:t.epoch_tick ~state ~vers:t.wv ~line
      ~src:t.shadow ~pos
  else begin
    (* patch the PE's own writes over the shadow in a scratch line; the
       captured versions come from the same position, so they are staged
       in a scratch too *)
    Array.blit t.shadow pos ctx.fbuf 0 lw;
    for k = 0 to lw - 1 do
      if t.wstamp.(pos + k) = base then ctx.fbuf.(k) <- t.mem.(pos + k)
    done;
    let vers =
      if Array.length t.wv = 0 then [||]
      else begin
        Array.blit t.wv pos ctx.vbuf 0 lw;
        ctx.vbuf
      end
    in
    Cache.fill_from ctx.cache ~tick:t.epoch_tick ~state ~vers ~line
      ~src:ctx.fbuf ~pos:0
  end

(* The memory image an access observes for [addr] right after its line
   filled: under buffering, own same-epoch writes from memory, everything
   else from the shadow the fill actually delivered. *)
let filled_image t ctx addr =
  if (not t.buffered) || t.wstamp.(addr) = stamp_of t ctx.pe.Pe.id then t.mem
  else t.shadow

let fill ~state t ctx line =
  if t.buffered then buffered_fill ~state t ctx line
  else
    Cache.fill_from ctx.cache ~tick:t.epoch_tick ~state ~vers:t.wv ~line
      ~src:t.mem
      ~pos:(line * t.cfg.Config.line_words);
  (match t.hw with
  | Hw_none -> ()
  | Hw_snoop _ | Hw_cluster ->
      (* displacing a Modified line pays the write-back injection (memory
         itself is already current — write-through keeps the functional
         state exact; this is the protocol's timing debt) *)
      if Cache.last_evicted_state ctx.cache = Coherence.modified then
        Pe.advance ctx.pe t.cfg.Config.store_remote
  | Hw_dir d ->
      dir_note_eviction t ctx d;
      Coherence.Dir.add d ~line ~pe:ctx.pe.Pe.id);
  Int_table.replace ctx.fresh line 1

let record_arrival ctx ~stall =
  let s = ctx.pe.Pe.stats in
  if stall > 0 then begin
    s.Stats.pf_late <- s.Stats.pf_late + 1;
    s.Stats.pf_late_cycles <- s.Stats.pf_late_cycles + stall;
    s.Stats.stall_cycles <- s.Stats.stall_cycles + stall
  end
  else s.Stats.pf_on_time <- s.Stats.pf_on_time + 1

(* Oracle assertion at a cache hit: the captured word version must be no
   older than the last write settled before the current epoch. Writes of
   the current epoch are exempt — under the epoch model's race-freedom a
   same-epoch writer of a read location can only be the reading PE itself,
   whose write-through patched the cached copy (and its version). Two
   refinements close the same-epoch blind spot for synchronized programs:
   under an eagerly-invalidating hardware protocol every hit must carry
   the globally latest version (the protocol invalidates on write, so
   same-epoch lock writes are not exempt), and under buffering a foreign
   current-epoch write stamp on a hit word is a certain miss of a
   published intra-epoch value (see [foreign_fresh] below). *)
let oracle_check t ctx (r : Reference.t) idx addr =
  match t.ora with
  | None -> ()
  | Some o ->
      let cv =
        let v = Cache.word_version ctx.cache ~addr in
        if v < 0 then 0 else v
      in
      (* Mini-epoch refinement: under buffering a cached copy can never
         contain another PE's current-epoch write (fills observe the
         epoch-start shadow, write-through patches only the writer, and
         drains happen at the barrier). So a tracked cache hit on a word
         carrying a foreign current-epoch stamp has — with certainty —
         missed a write published inside this epoch: exactly the escape a
         misclassified (cached instead of bypassed) in-critical read
         produces. Race-free lock-free programs never trip this test: only
         the reading PE itself writes its read set within an epoch. *)
      let foreign_fresh =
        t.buffered
        &&
        let st = t.wstamp.(addr) in
        let base = t.epoch_tick * Array.length t.ctxs in
        st >= base && st <> base + ctx.pe.Pe.id
      in
      let stale =
        match t.hw with
        | Hw_cluster ->
            (* clustered exemption: only a same-cluster write of the
               current epoch may be observed without a violation — the
               island's snoop keeps such copies coherent, while any
               cross-epoch or cross-cluster stale observation is exactly
               the escape the inter-cluster CCDP discipline must prevent *)
            o.wver.(addr) > cv
            && not
                 (o.wepoch.(addr) = t.epoch_tick
                 && o.wpe.(addr) >= 0
                 && Net.same_cluster t.net o.wpe.(addr) ctx.pe.Pe.id)
        | Hw_none | Hw_snoop _ | Hw_dir _ ->
            let eager =
              match t.hw with
              | Hw_none | Hw_cluster -> false
              | Hw_snoop _ | Hw_dir _ -> true
            in
            (o.wver.(addr) > cv && (eager || o.wepoch.(addr) < t.epoch_tick))
            || foreign_fresh
      in
      if t.buffered then begin
        (* stage in the PE's private ledger; merged PE-major at the
           barrier — serial replay executes PEs in exactly that order, so
           the merged log reproduces the serial one *)
        ctx.pchecked <- ctx.pchecked + 1;
        if stale then begin
          ctx.pnviol <- ctx.pnviol + 1;
          if ctx.pnviol <= max_kept_violations then
            ctx.pviol <-
              {
                v_ref = r.Reference.id;
                v_pe = ctx.pe.Pe.id;
                v_array = r.Reference.array_name;
                v_index = Array.copy idx;
                v_addr = addr;
                v_cached_version = cv;
                v_mem_version = o.wver.(addr);
                v_write_epoch =
                  (if foreign_fresh then t.epoch_tick else o.wepoch.(addr));
                v_read_epoch = t.epoch_tick;
              }
              :: ctx.pviol
        end
      end
      else begin
        o.checked <- o.checked + 1;
        if stale then begin
          o.n_violations <- o.n_violations + 1;
          (* bounded witness list: prepend (newest first), reversed at
             report time — the n-th violation costs O(1), not O(kept) *)
          if o.n_violations <= max_kept_violations then
            o.violations <-
              {
                v_ref = r.Reference.id;
                v_pe = ctx.pe.Pe.id;
                v_array = r.Reference.array_name;
                v_index = Array.copy idx;
                v_addr = addr;
                v_cached_version = cv;
                v_mem_version = o.wver.(addr);
                v_write_epoch = o.wepoch.(addr);
                v_read_epoch = t.epoch_tick;
              }
              :: o.violations
        end
      end

(* Consume a staged vector-get line: drop the table entries; the ring entry
   stays behind as a tombstone (generation mismatch). *)
let vget_consume ctx line lw =
  Int_table.remove ctx.vget line;
  Int_table.remove ctx.vstamp line;
  ctx.vget_words <- ctx.vget_words - lw

(* Every read protocol below is destination-passing: the value read is
   stored into [dst.(k)] instead of returned, since a float returned from
   (or passed to) a function that is not inlined is boxed, and without
   cross-module inlining none of these are. *)

(* The ordinary cached-read protocol: consume a pending vector-get or queue
   entry if one exists, then the cache, then demand-fetch. [fresh_only]
   restricts cache hits to lines filled since the last barrier (used for
   leading references, whose cached copy is only trustworthy when this
   epoch's prefetch machinery put it there). [track] marks tracked shared
   reads, whose cache hits the oracle asserts over ([r], [idx] identify the
   dynamic reference in the report). Ready cycles are never negative, so
   [-1] stands for "not staged". *)
let cached_read ~fresh_only ~track t ctx (r : Reference.t) idx addr tgt dst
    k =
  let self = ctx.pe.Pe.id in
  let lw = t.cfg.Config.line_words in
  let line = addr / lw in
  let vready = Int_table.find ctx.vget line ~default:(-1) in
  if vready >= 0 then begin
    let stall = max 0 (vready - ctx.pe.Pe.clock) in
    vget_consume ctx line lw;
    record_arrival ctx ~stall;
    Pe.advance ctx.pe (stall + t.cfg.Config.hit);
    fill ~state:Coherence.shared t ctx line;
    dst.(k) <- (filled_image t ctx addr).(addr)
  end
  else
    let qready = Prefetch_queue.ready_of ctx.queue ~line in
    if qready >= 0 then begin
      let stall = max 0 (qready - ctx.pe.Pe.clock) in
      Prefetch_queue.remove ctx.queue ~line;
      record_arrival ctx ~stall;
      Pe.advance ctx.pe (stall + t.cfg.Config.pf_extract);
      fill ~state:Coherence.shared t ctx line;
      dst.(k) <- (filled_image t ctx addr).(addr)
    end
    else
      let off =
        if fresh_only && not (Int_table.mem ctx.fresh line) then -1
        else Cache.locate ctx.cache ~addr
      in
      if off >= 0 then begin
        if track then oracle_check t ctx r idx addr;
        ctx.pe.Pe.stats.Stats.hits <- ctx.pe.Pe.stats.Stats.hits + 1;
        Pe.advance ctx.pe t.cfg.Config.hit;
        Cache.copy_word ctx.cache off dst k
      end
      else begin
        (let s = ctx.pe.Pe.stats in
         if tgt < 0 then s.Stats.miss_local <- s.Stats.miss_local + 1
         else s.Stats.miss_remote <- s.Stats.miss_remote + 1);
        let ac = annex_cost t ctx tgt in
        let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
        Pe.advance ctx.pe (ac + latency_of t ~pe:self tgt + delay);
        fill ~state:Coherence.shared t ctx line;
        dst.(k) <- (filled_image t ctx addr).(addr)
      end

let uncached_read t ctx addr tgt dst k =
  (let s = ctx.pe.Pe.stats in
   if tgt < 0 then s.Stats.uncached_local <- s.Stats.uncached_local + 1
   else s.Stats.uncached_remote <- s.Stats.uncached_remote + 1);
  let ac = annex_cost t ctx tgt in
  let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
  Pe.advance ctx.pe (ac + uncached_latency_of t ~pe:ctx.pe.Pe.id tgt + delay);
  dst.(k) <- t.mem.(addr)

let bypass_read t ctx addr tgt dst k =
  ctx.pe.Pe.stats.Stats.bypass_reads <- ctx.pe.Pe.stats.Stats.bypass_reads + 1;
  let ac = annex_cost t ctx tgt in
  let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
  Pe.advance ctx.pe (ac + uncached_latency_of t ~pe:ctx.pe.Pe.id tgt + delay);
  dst.(k) <- t.mem.(addr)

(* A moved-back prefetch: the issue happened [back] cycles ago (clamped to
   the epoch start), so the reader only stalls for the residual latency. *)
let moved_back_read t ctx addr tgt ~back dst k =
  let s = ctx.pe.Pe.stats in
  s.Stats.pf_issued <- s.Stats.pf_issued + 1;
  let lw = t.cfg.Config.line_words in
  let line = addr / lw in
  let issue_at = max t.epoch_start.(ctx.pe.Pe.id) (ctx.pe.Pe.clock - back) in
  let delay = contend t ctx tgt ~now:issue_at ~lines:1 in
  let ready = issue_at + latency_of t ~pe:ctx.pe.Pe.id tgt + delay in
  let stall = max 0 (ready - ctx.pe.Pe.clock) in
  record_arrival ctx ~stall;
  Pe.advance ctx.pe
    (annex_cost t ctx tgt + t.cfg.Config.pf_issue + t.cfg.Config.pf_extract
   + stall);
  Cache.invalidate_line ctx.cache ~line;
  fill ~state:Coherence.shared t ctx line;
  dst.(k) <- (filled_image t ctx addr).(addr)

(* ------------------------------------------------------------------ *)
(* Public protocol                                                     *)
(* ------------------------------------------------------------------ *)

(* a Lead whose stale verdict is Clean is a pure latency-hiding prefetch
   (the paper's future-work extension): any cached copy of its data is
   valid, so staging may skip cached lines and reads may hit non-fresh
   lines *)
let clean_lead t id =
  Ccdp_analysis.Stale.verdict t.pl.Ccdp_analysis.Annot.stale id
  = Ccdp_analysis.Stale.Clean

let tracked_shared t name =
  let d = decl t name in
  d.Array_decl.shared && d.Array_decl.dist <> Dist.Replicated

let writer_bit pe = if pe < 62 then 1 lsl pe else -1

let version_record t name =
  match Hashtbl.find_opt t.versions name with
  | Some v -> v
  | None ->
      let v = { settled = -1; writers = 0 } in
      Hashtbl.replace t.versions name v;
      v

(* HSCD (hardware-supported compiler-directed, after Choi-Yew's version
   schemes): every cache line carries its fill version, every array a
   write-version register. A hit whose line does not post-date the last
   write by another PE self-invalidates and refetches — coherence in
   hardware checks, no prefetching, no whole-cache flushes. Strictness
   matters: a line filled in the same epoch as another PE's write to it may
   have captured pre-write words (false sharing at epoch granularity); own
   writes are exempt, since memory was not changed by anyone else. *)
let hscd_read ver t ctx (r : Reference.t) idx addr tgt dst k =
  let lw = t.cfg.Config.line_words in
  let line = addr / lw in
  let effective =
    match ver with
    | None -> -1
    | Some v ->
        if v.writers = 0 || v.writers = writer_bit ctx.pe.Pe.id then v.settled
        else t.epoch_tick
  in
  (* fill ticks are never negative; -1 is a miss *)
  let ft = Cache.fill_tick ctx.cache ~line in
  if ft >= 0 && ft <= effective then begin
    Cache.invalidate_line ctx.cache ~line;
    ctx.pe.Pe.stats.Stats.invalidations <-
      ctx.pe.Pe.stats.Stats.invalidations + 1
  end;
  cached_read ~fresh_only:false ~track:true t ctx r idx addr tgt dst k

(* ------------------------------------------------------------------ *)
(* Hardware-coherence rivals: MSI/MESI bus snooping and the full-map
   directory. Both keep the functional model write-through (memory is
   always current, so fills always deliver fresh words); the protocol
   state machines govern which copies stay readable and what every
   transition costs. Every remote-initiated action probes other PEs'
   caches without touching their LRU order, and all probe/invalidate
   loops run in ascending PE order — deterministic, so both engines
   replay identical sequences.                                         *)
(* ------------------------------------------------------------------ *)

(* Snoop phase of a bus transaction: probe every other cache. A read
   transaction ([invalidate = false]) downgrades E/M holders to S — a
   Modified holder first flushes, and the requester pays that flush. A
   write/upgrade transaction invalidates every remote copy. Returns the
   copies found and leaves the write-back penalty in [t.snoop_wb]. Under
   [Drop_invalidate] sabotage
   the first copy an invalidation should kill survives — with identical
   accounting, which is exactly why only the staleness oracle (or the
   numerics) can witness the fault. *)
let snoop_others t ~self ~line ~invalidate =
  let copies = ref 0 and wb = ref 0 in
  let drop = ref (invalidate && t.sab = Drop_invalidate) in
  for i = 0 to t.n_live - 1 do
    let p = t.live.(i) in
    if p <> self then begin
      let c = t.ctxs.(p).cache in
      let st = Cache.line_state c ~line in
      if st <> Coherence.invalid then begin
        incr copies;
        if st = Coherence.modified then wb := t.cfg.Config.store_remote;
        if invalidate then begin
          if !drop then begin
            drop := false;
            t.sab_fired <- true
          end
          else Cache.invalidate_line c ~line
        end
        else if st > Coherence.shared then
          Cache.set_line_state c ~line Coherence.shared
      end
    end
  done;
  t.snoop_wb <- !wb;
  !copies

let snoop_read mesi t ctx (r : Reference.t) idx addr tgt dst k =
  let off = Cache.locate ctx.cache ~addr in
  if off >= 0 then begin
    (* any valid state (S/E/M) may be read locally, no bus transaction *)
    oracle_check t ctx r idx addr;
    ctx.pe.Pe.stats.Stats.hits <- ctx.pe.Pe.stats.Stats.hits + 1;
    Pe.advance ctx.pe t.cfg.Config.hit;
    Cache.copy_word ctx.cache off dst k
  end
  else begin
    let self = ctx.pe.Pe.id in
    let line = addr / t.cfg.Config.line_words in
    (let s = ctx.pe.Pe.stats in
     if tgt < 0 then s.Stats.miss_local <- s.Stats.miss_local + 1
     else s.Stats.miss_remote <- s.Stats.miss_remote + 1);
    let ac = annex_cost t ctx tgt in
    let bus = bus_acquire t ctx ~lines:1 in
    let copies = snoop_others t ~self ~line ~invalidate:false in
    let wb = t.snoop_wb in
    let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
    Pe.advance ctx.pe (ac + bus + latency_of t ~pe:self tgt + delay + wb);
    (* MESI's one edge over MSI: a miss nobody else holds fills Exclusive,
       so the first write back to it upgrades silently *)
    let state =
      if mesi && copies = 0 then Coherence.exclusive else Coherence.shared
    in
    fill ~state t ctx line;
    dst.(k) <- t.mem.(addr)
  end

let snoop_write mesi t ctx wh ~addr =
  let line = addr / t.cfg.Config.line_words in
  let self = ctx.pe.Pe.id in
  let c = ctx.cache in
  let st = Cache.line_state c ~line in
  if st = Coherence.modified then Pe.advance ctx.pe t.cfg.Config.store_local
  else if mesi && st = Coherence.exclusive then begin
    (* silent E -> M: exclusivity is already guaranteed, no bus traffic *)
    Cache.set_line_state c ~line Coherence.modified;
    Pe.advance ctx.pe t.cfg.Config.store_local
  end
  else begin
    let tgt = Addr_map.target_of wh ~pe:self ~addr in
    let s = ctx.pe.Pe.stats in
    let bus = bus_acquire t ctx ~lines:1 in
    let others = snoop_others t ~self ~line ~invalidate:true in
    let wb = t.snoop_wb in
    s.Stats.invalidations <- s.Stats.invalidations + others;
    if st <> Coherence.invalid then begin
      (* S -> M upgrade: an ownership broadcast, no data transfer *)
      s.Stats.upgrades <- s.Stats.upgrades + 1;
      Cache.set_line_state c ~line Coherence.modified;
      Pe.advance ctx.pe (store_cost t ~pe:self tgt + bus + wb)
    end
    else begin
      (* write miss: bus read-exclusive — fetch, invalidate, allocate M *)
      let ac = annex_cost t ctx tgt in
      let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
      Pe.advance ctx.pe (ac + bus + latency_of t ~pe:self tgt + delay + wb);
      fill ~state:Coherence.modified t ctx line
    end
  end

let dir_read d t ctx (r : Reference.t) idx addr tgt dst k =
  let off = Cache.locate ctx.cache ~addr in
  if off >= 0 then begin
    oracle_check t ctx r idx addr;
    ctx.pe.Pe.stats.Stats.hits <- ctx.pe.Pe.stats.Stats.hits + 1;
    Pe.advance ctx.pe t.cfg.Config.hit;
    Cache.copy_word ctx.cache off dst k
  end
  else begin
    let self = ctx.pe.Pe.id in
    let line = addr / t.cfg.Config.line_words in
    let s = ctx.pe.Pe.stats in
    if tgt < 0 then s.Stats.miss_local <- s.Stats.miss_local + 1
    else s.Stats.miss_remote <- s.Stats.miss_remote + 1;
    let ac = annex_cost t ctx tgt in
    (* the line's directory home is co-located with its owner PE in the
       address map: [tgt < 0] means the reader itself is home *)
    let home = if tgt < 0 then self else tgt in
    let ow = Coherence.Dir.owner d ~line in
    let extra =
      if ow >= 0 && ow <> self then begin
        (* dirty remote copy: 3-hop forwarding — requester -> home (in the
           base latency), home -> owner, owner -> requester — plus the
           owner's flush; the owner downgrades M -> S and the line is
           clean again *)
        s.Stats.dir_msgs <- s.Stats.dir_msgs + 3;
        Cache.set_line_state t.ctxs.(ow).cache ~line Coherence.shared;
        Coherence.Dir.set_owner d ~line (-1);
        Net.cost t.net ~src:home ~dst:ow
        + Net.cost t.net ~src:ow ~dst:self
        + t.cfg.Config.store_remote
      end
      else begin
        (* clean at home: request + data reply *)
        s.Stats.dir_msgs <- s.Stats.dir_msgs + 2;
        0
      end
    in
    let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
    Pe.advance ctx.pe (ac + latency_of t ~pe:self tgt + delay + extra);
    fill ~state:Coherence.shared t ctx line;
    dst.(k) <- t.mem.(addr)
  end

let dir_write d t ctx wh ~addr =
  let line = addr / t.cfg.Config.line_words in
  let self = ctx.pe.Pe.id in
  let c = ctx.cache in
  let st = Cache.line_state c ~line in
  if st = Coherence.modified then
    (* write hit on the owned copy: the directory already records self *)
    Pe.advance ctx.pe t.cfg.Config.store_local
  else begin
    let tgt = Addr_map.target_of wh ~pe:self ~addr in
    let home = if tgt < 0 then self else tgt in
    let s = ctx.pe.Pe.stats in
    s.Stats.dir_msgs <- s.Stats.dir_msgs + 2 (* request + grant *);
    let wb =
      let ow = Coherence.Dir.owner d ~line in
      if ow >= 0 && ow <> self then t.cfg.Config.store_remote else 0
    in
    (* invalidate every other recorded copy; acks return in parallel, so
       the wait is the worst home -> sharer round trip. Under
       [Corrupt_presence] sabotage the first sharer is dropped from the
       bitset instead — its stale copy survives, unrecorded. *)
    let max_hop = ref 0 and invs = ref 0 in
    let skip = ref (t.sab = Corrupt_presence) in
    let p = ref (Coherence.Dir.next_sharer d ~line ~from:0) in
    while !p >= 0 do
      let q = !p in
      if q <> self then begin
        Coherence.Dir.remove d ~line ~pe:q;
        if !skip then begin
          skip := false;
          t.sab_fired <- true
        end
        else begin
          Cache.invalidate_line t.ctxs.(q).cache ~line;
          incr invs;
          s.Stats.dir_msgs <- s.Stats.dir_msgs + 1;
          let h = Net.cost t.net ~src:home ~dst:q in
          if h > !max_hop then max_hop := h
        end
      end;
      p := Coherence.Dir.next_sharer d ~line ~from:(q + 1)
    done;
    s.Stats.invalidations <- s.Stats.invalidations + !invs;
    if st = Coherence.shared then s.Stats.upgrades <- s.Stats.upgrades + 1;
    let ack = 2 * !max_hop in
    if st = Coherence.invalid then begin
      (* write-allocate: fetch the line with exclusivity *)
      let ac = annex_cost t ctx tgt in
      let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
      Pe.advance ctx.pe (ac + latency_of t ~pe:self tgt + delay + wb + ack);
      fill ~state:Coherence.modified t ctx line
    end
    else begin
      Cache.set_line_state c ~line Coherence.modified;
      Pe.advance ctx.pe (store_cost t ~pe:self tgt + wb + ack)
    end;
    Coherence.Dir.set_owner d ~line self
  end

(* ------------------------------------------------------------------ *)
(* Coherence clusters: MESI snooping scoped to hardware-coherent
   islands, with the CCDP stale discipline across islands. A cluster
   read serves only data homed inside the requester's island (the
   dispatch falls back to the compiled CCDP route otherwise), so the
   protocol must keep exactly the island's copies of island-homed data
   coherent: an island write snoops its own bus, and a write landing in
   another island's home memory back-invalidates that island's copies
   (the CXL back-invalidation channel). Copies in third islands are
   allowed to go stale — their readers cross a cluster boundary and
   carry CCDP prefetch/bypass obligations.                              *)
(* ------------------------------------------------------------------ *)

(* Snoop phase scoped to one island: probe every other cache whose PE
   lives in [cluster]. Semantics mirror [snoop_others]; [sab] requests the
   Drop_inter_cluster_invalidate skip of the first copy (armed only for
   cross-cluster back-invalidations). *)
let snoop_cluster t ~cluster ~self ~line ~invalidate ~sab =
  let cp = Net.cluster_pes t.net in
  let lo = cluster * cp in
  let copies = ref 0 and wb = ref 0 in
  let drop = ref sab in
  for p = lo to lo + cp - 1 do
    if p <> self && activated t p then begin
      let c = t.ctxs.(p).cache in
      let st = Cache.line_state c ~line in
      if st <> Coherence.invalid then begin
        incr copies;
        if st = Coherence.modified then wb := t.cfg.Config.store_remote;
        if invalidate then begin
          if !drop then begin
            drop := false;
            t.sab_fired <- true
          end
          else Cache.invalidate_line c ~line
        end
        else if st > Coherence.shared then
          Cache.set_line_state c ~line Coherence.shared
      end
    end
  done;
  t.snoop_wb <- !wb;
  !copies

(* Intra-cluster read: MESI over the island. Reaches only addresses homed
   in the requester's island (or locally), so the latency model charges
   the cheap local rate and the transaction arbitrates the island's own
   bus. Every call is an access the flat machine would have sent across
   the interconnect under the stale discipline — counted as a cluster
   hit. *)
let cluster_read t ctx (r : Reference.t) idx addr tgt dst k =
  let s = ctx.pe.Pe.stats in
  s.Stats.cluster_hits <- s.Stats.cluster_hits + 1;
  let off = Cache.locate ctx.cache ~addr in
  if off >= 0 then begin
    oracle_check t ctx r idx addr;
    s.Stats.hits <- s.Stats.hits + 1;
    Pe.advance ctx.pe t.cfg.Config.hit;
    Cache.copy_word ctx.cache off dst k
  end
  else begin
    let self = ctx.pe.Pe.id in
    let line = addr / t.cfg.Config.line_words in
    if tgt < 0 then s.Stats.miss_local <- s.Stats.miss_local + 1
    else s.Stats.miss_remote <- s.Stats.miss_remote + 1;
    let ac = annex_cost t ctx tgt in
    let bus = cluster_bus_acquire t ctx ~lines:1 in
    let copies =
      snoop_cluster t
        ~cluster:(Net.cluster_of t.net self)
        ~self ~line ~invalidate:false ~sab:false
    in
    let wb = t.snoop_wb in
    Pe.advance ctx.pe (ac + bus + latency_of t ~pe:self tgt + wb);
    (* island-exclusive fill when no island sibling holds a copy *)
    let state =
      if copies = 0 then Coherence.exclusive else Coherence.shared
    in
    fill ~state t ctx line;
    dst.(k) <- t.mem.(addr)
  end

(* Clustered write: snoop the writer's own island on every tracked write,
   plus the CXL-style back-invalidation — the write-through lands in the
   home memory, and when the home is another island that island's bus
   kills its local copies (which its own cluster reads would otherwise
   trust).

   No silent M/E write-hit shortcut, deliberately: unlike the flat MSI/
   MESI rivals (which run plan-free, so {e every} fill is a snooped bus
   transaction), the clustered machine keeps the CCDP plan alive for
   inter-island traffic, and the plan's prefetch/vector staging fills
   whole cache lines without touching any bus. A staged line can alias
   island-homed words, so "I hold M" never certifies "no sibling holds a
   copy" — skipping the snoop on a write hit would let a sibling's staged
   copy go silently stale right where its reads trust the island
   protocol. The write therefore always arbitrates the island bus and
   probes the siblings; states still track sharing for the read side
   (E/S fills, upgrade accounting). *)
let cluster_write t ctx wh ~addr =
  let line = addr / t.cfg.Config.line_words in
  let self = ctx.pe.Pe.id in
  let c = ctx.cache in
  let s = ctx.pe.Pe.stats in
  let tgt = Addr_map.target_of wh ~pe:self ~addr in
  let home = if tgt < 0 then self else tgt in
  let my_cluster = Net.cluster_of t.net self in
  let home_cluster = Net.cluster_of t.net home in
  let bus = cluster_bus_acquire t ctx ~lines:1 in
  let own =
    snoop_cluster t ~cluster:my_cluster ~self ~line ~invalidate:true ~sab:false
  in
  let wb_own = t.snoop_wb in
  let inter =
    if home_cluster = my_cluster then 0
    else
      snoop_cluster t ~cluster:home_cluster ~self ~line ~invalidate:true
        ~sab:(t.sab = Drop_inter_cluster_invalidate)
  in
  let wb_home = if home_cluster = my_cluster then 0 else t.snoop_wb in
  s.Stats.invalidations <- s.Stats.invalidations + own + inter;
  (let st = Cache.line_state c ~line in
   if st = Coherence.shared || st = Coherence.exclusive then begin
     s.Stats.upgrades <- s.Stats.upgrades + 1;
     Cache.set_line_state c ~line Coherence.modified
   end);
  Pe.advance ctx.pe (store_cost t ~pe:self tgt + bus + wb_own + wb_home)

(* The read protocol a reference executes, decided once per static
   reference (mode + classification + scheduled op + stale verdict never
   change during a run). *)
type route =
  | RPrivate  (** private / replicated data: cached and local in every mode *)
  | RPlain  (** ordinary tracked cached read *)
  | RIncoherent  (** tracked read with ground-truth staleness photography *)
  | RHscd
  | RUncached  (** BASE: shared data is not cached *)
  | RCovered  (** fresh-only cached read (stale covered reference) *)
  | RBypass
  | RBack of int  (** moved-back prefetch, issued this many cycles early *)
  | RLeadStaged  (** stale lead with SP/vector staging: staged-or-bypass *)
  | RSnoop of bool  (** MSI/MESI bus-snooped read ([true] = MESI) *)
  | RDir of Coherence.Dir.t  (** directory-protocol read *)
  | RCluster of route
      (** clustered: island-homed accesses snoop MESI inside the island;
          everything else falls back to the carried CCDP route. The
          same-cluster test is a per-access integer compare — the route
          pair itself is resolved once at preparation time. *)

(* The compiler-directed route of a tracked shared read: the CCDP plan's
   classification, demoted to plain caching wherever the stale verdict is
   Clean (pure latency hiding). Shared between the flat Ccdp mode and the
   clustered mode's inter-cluster fallback. *)
let ccdp_route t (r : Reference.t) =
  let open Ccdp_analysis in
  match Annot.cls_of t.pl r.id with
  | Annot.Normal -> RPlain
  | Annot.Covered _ ->
      (* a stale covered read may only hit lines its leader staged
         this epoch: at loop boundaries the covered span can reach one
         element past the leader's clamped range, and when chunk and
         line sizes misalign that element lands in a line the leader
         never touched — a leftover stale copy. Fresh-only turns that
         corner into a demand miss of current memory. Clean covers
         (latency-hiding groups) may trust any copy. *)
      if clean_lead t r.id then RPlain else RCovered
  | Annot.Bypass -> RBypass
  | Annot.Lead -> (
      match Annot.op_of t.pl r.id with
      | Some (Annot.Back { cycles; _ }) ->
          if clean_lead t r.id then RPlain else RBack cycles
      | Some (Annot.Pipelined _) | Some (Annot.Vector _) ->
          if clean_lead t r.id then RPlain else RLeadStaged
      | None -> RBypass)

let route_of t (r : Reference.t) =
  if not (tracked_shared t r.array_name) then RPrivate
  else
    match t.md with
    | Incoherent -> RIncoherent
    | Seq | Invalidate -> RPlain
    | Hscd -> RHscd
    | Base -> RUncached
    | Msi | Mesi | Directory -> (
        match t.hw with
        | Hw_snoop m -> RSnoop m
        | Hw_dir d -> RDir d
        | Hw_none | Hw_cluster -> assert false)
    | Ccdp -> ccdp_route t r
    | Clustered -> RCluster (ccdp_route t r)

let rec dispatch_read t ctx (r : Reference.t) ~idx ~addr ~tgt ~ver route
    dst k =
  match route with
  | RPrivate ->
      cached_read ~fresh_only:false ~track:false t ctx r idx addr (-1) dst k
  | RPlain -> cached_read ~fresh_only:false ~track:true t ctx r idx addr tgt dst k
  | RIncoherent ->
      (* ground-truth staleness detection: an incoherent read that returns a
         value other than the one settled for this epoch has observed an
         actually-stale copy. [filled_image] is memory itself when
         unbuffered; under buffering it is the epoch-deterministic settled
         value (own writes from memory, the rest from the barrier shadow),
         staged per-PE and merged at the barrier. *)
      cached_read ~fresh_only:false ~track:true t ctx r idx addr tgt dst k;
      if dst.(k) <> (filled_image t ctx addr).(addr) then
        if t.buffered then Hashtbl.replace ctx.pobs r.id ()
        else Hashtbl.replace t.observed_stale r.id ()
  | RHscd -> hscd_read ver t ctx r idx addr tgt dst k
  | RSnoop mesi -> snoop_read mesi t ctx r idx addr tgt dst k
  | RDir d -> dir_read d t ctx r idx addr tgt dst k
  | RUncached -> uncached_read t ctx addr tgt dst k
  | RCovered -> cached_read ~fresh_only:true ~track:true t ctx r idx addr tgt dst k
  | RBypass -> bypass_read t ctx addr tgt dst k
  | RBack back -> moved_back_read t ctx addr tgt ~back dst k
  | RLeadStaged ->
      (* the prefetch machinery must have staged the line: pending entries
         are consumed by the normal path; a fresh cached line is a earlier
         consume; anything else means the issue was dropped -> bypass fetch *)
      let line = addr / t.cfg.Config.line_words in
      if
        Int_table.mem ctx.vget line
        || Prefetch_queue.ready_of ctx.queue ~line >= 0
        || Int_table.mem ctx.fresh line
      then cached_read ~fresh_only:true ~track:true t ctx r idx addr tgt dst k
      else bypass_read t ctx addr tgt dst k
  | RCluster inner ->
      (* resolved per access: island-homed data runs the island protocol,
         everything else falls through to the compiled CCDP route *)
      if tgt < 0 || Net.same_cluster t.net ctx.pe.Pe.id tgt then
        cluster_read t ctx r idx addr tgt dst k
      else begin
        let s = ctx.pe.Pe.stats in
        s.Stats.cluster_inter <- s.Stats.cluster_inter + 1;
        dispatch_read t ctx r ~idx ~addr ~tgt ~ver inner dst k
      end

let read t ~pe (r : Reference.t) ~idx =
  let ctx = ctx_of t pe in
  ctx.pe.Pe.stats.Stats.reads <- ctx.pe.Pe.stats.Stats.reads + 1;
  let h = handle_of t r.array_name in
  let addr = Addr_map.resolve_h h ~pe idx in
  let tgt = Addr_map.target_of h ~pe ~addr in
  let ver = if t.md = Hscd then Hashtbl.find_opt t.versions r.array_name else None in
  dispatch_read t ctx r ~idx ~addr ~tgt ~ver (route_of t r) ctx.one 0;
  ctx.one.(0)

(* ------------------------------------------------------------------ *)
(* Prepared accesses: the compiled-plan interpreter resolves the route,
   address kernel and version record once per static reference, leaving
   pure arithmetic plus the protocol itself on the per-access path.        *)
(* ------------------------------------------------------------------ *)

type raccess = {
  ar : Reference.t;
  ah : Addr_map.handle;
  aroute : route;
  aver : version option;
}

let prepare_read t (r : Reference.t) =
  {
    ar = r;
    ah = Addr_map.handle t.amap ~loc:r.loc r.array_name;
    aroute = route_of t r;
    aver =
      (if t.md = Hscd && tracked_shared t r.array_name then
         Some (version_record t r.array_name)
       else None);
  }

let read_handle acc = acc.ah

let read_into t ~pe acc ~idx ~addr dst k =
  let ctx = t.ctxs.(pe) in
  ctx.pe.Pe.stats.Stats.reads <- ctx.pe.Pe.stats.Stats.reads + 1;
  dispatch_read t ctx acc.ar ~idx ~addr
    ~tgt:(Addr_map.target_of acc.ah ~pe ~addr)
    ~ver:acc.aver acc.aroute dst k

(* The write protocol a tracked store executes, resolved once per static
   reference like the read route. [Wplain] is the established write-through
   costing; the hardware rivals additionally run their state machine. *)
type wproto =
  | Wplain
  | Wsnoop of bool
  | Wdir of Coherence.Dir.t
  | Wcluster  (** island MESI write + cross-island back-invalidation *)

type waccess = {
  wh : Addr_map.handle;
  wtracked : bool;
  wcaches : bool;
  wver : version option;
  wproto : wproto;
}

let prepare_write_h t (r : Reference.t) wh =
  let tracked = tracked_shared t r.array_name in
  {
    wh;
    wtracked = tracked;
    wcaches = ((not tracked) || match t.md with Base -> false | _ -> true);
    wver =
      (if t.md = Hscd && tracked then Some (version_record t r.array_name)
       else None);
    wproto =
      (if not tracked then Wplain
       else
         match t.hw with
         | Hw_none -> Wplain
         | Hw_snoop m -> Wsnoop m
         | Hw_dir d -> Wdir d
         | Hw_cluster -> Wcluster);
  }

let prepare_write t (r : Reference.t) =
  prepare_write_h t r (Addr_map.handle t.amap ~loc:r.loc r.array_name)

let write_handle wa = wa.wh

let wlog_push ctx addr =
  let cap = Array.length ctx.wbuf in
  if ctx.wn = cap then begin
    let nb = Array.make (2 * cap) 0 in
    Array.blit ctx.wbuf 0 nb 0 cap;
    ctx.wbuf <- nb
  end;
  ctx.wbuf.(ctx.wn) <- addr;
  ctx.wn <- ctx.wn + 1

let write_from t ~pe wa ~addr src k =
  let ctx = t.ctxs.(pe) in
  ctx.pe.Pe.stats.Stats.writes <- ctx.pe.Pe.stats.Stats.writes + 1;
  t.mem.(addr) <- src.(k);
  (* the version the writer's cached copy is stamped with; -1 leaves it *)
  let ver =
    if t.buffered then begin
      (* stamp + log; oracle version assignment and the shadow update are
         deferred to the barrier drain (PE-major), so the version clock is
         independent of shard interleaving. The writer's cached copy gets
         its version patched at the drain, once the version exists. *)
      t.wstamp.(addr) <- stamp_of t pe;
      wlog_push ctx addr;
      -1
    end
    else
      match t.ora with
      | None -> -1
      | Some o ->
          o.next_ver <- o.next_ver + 1;
          o.wver.(addr) <- o.next_ver;
          o.wepoch.(addr) <- t.epoch_tick;
          o.wpe.(addr) <- pe;
          o.next_ver
  in
  (match wa.wver with
  | Some vr -> vr.writers <- vr.writers lor writer_bit pe
  | None -> ());
  if wa.wcaches then Cache.update_from ctx.cache ~ver ~addr src k;
  match wa.wproto with
  | Wplain ->
      Pe.advance ctx.pe
        (if wa.wtracked then
           store_cost t ~pe (Addr_map.target_of wa.wh ~pe ~addr)
         else t.cfg.Config.store_local)
  | Wsnoop mesi -> snoop_write mesi t ctx wa.wh ~addr
  | Wdir d -> dir_write d t ctx wa.wh ~addr
  | Wcluster -> cluster_write t ctx wa.wh ~addr

let write t ~pe (r : Reference.t) ~idx v =
  let wa = prepare_write_h t r (handle_of t r.array_name) in
  let addr = Addr_map.resolve_h wa.wh ~pe idx in
  let one = (ctx_of t pe).one in
  one.(0) <- v;
  write_from t ~pe wa ~addr one 0

(* ------------------------------------------------------------------ *)
(* Prefetch issue                                                      *)
(* ------------------------------------------------------------------ *)

(* Under the clustered protocol, island-homed addresses are served
   coherently by [cluster_read] — which never consumes staged lines, so
   staging them would be a wasted transfer (and a wasted invalidation of a
   possibly-valid copy). The prefetch instruction itself still executes
   (the compiled code is mode-agnostic); only the transfer is elided. *)
let island_coherent t ~pe ~tgt =
  match t.hw with
  | Hw_cluster -> tgt < 0 || Net.same_cluster t.net pe tgt
  | Hw_none | Hw_snoop _ | Hw_dir _ -> false

let issue_prefetch_at ~skip_cached t ctx ~addr ~tgt =
  let lw = t.cfg.Config.line_words in
  let line = addr / lw in
  let already =
    island_coherent t ~pe:ctx.pe.Pe.id ~tgt
    || Int_table.mem ctx.vget line
    || Prefetch_queue.ready_of ctx.queue ~line >= 0
    || ((skip_cached || Int_table.mem ctx.fresh line)
       && Cache.probe_line ctx.cache ~line)
  in
  (* the prefetch instruction executes either way; the line transfer and
     queue slot are only committed when the line is not already staged *)
  Pe.advance ctx.pe t.cfg.Config.pf_issue;
  if not already then begin
    Pe.advance ctx.pe (annex_cost t ctx tgt);
    (* invalidate before issuing (paper Section 3): the stale copy must not
       be readable while the prefetch is in flight *)
    Cache.invalidate_line ctx.cache ~line;
    Int_table.remove ctx.fresh line;
    let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
    let ready = ctx.pe.Pe.clock + latency_of t ~pe:ctx.pe.Pe.id tgt + delay in
    if Prefetch_queue.try_insert ctx.queue ~line ~words:lw ~ready then
      ctx.pe.Pe.stats.Stats.pf_issued <- ctx.pe.Pe.stats.Stats.pf_issued + 1
    else ctx.pe.Pe.stats.Stats.pf_dropped <- ctx.pe.Pe.stats.Stats.pf_dropped + 1
  end

let issue_line_prefetch ?(skip_cached = false) t ~pe name ~idx =
  let h = handle_of t name in
  let addr = Addr_map.resolve_h h ~pe idx in
  issue_prefetch_at ~skip_cached t (ctx_of t pe) ~addr
    ~tgt:(Addr_map.target_of h ~pe ~addr)

let pf_issue_c ~skip_cached t ~pe acc ~addr =
  issue_prefetch_at ~skip_cached t t.ctxs.(pe) ~addr
    ~tgt:(Addr_map.target_of acc.ah ~pe ~addr)

let line_of t ~pe name ~idx =
  let h = handle_of t name in
  Addr_map.resolve_h h ~pe idx / t.cfg.Config.line_words

(* The staging-order ring: append at the tail, growing by doubling (the
   capacity stays a power of two); pop the oldest entry at the head. *)
let vq_push ctx line gen =
  let cap = Array.length ctx.vq_line in
  if ctx.vq_len = cap then begin
    let nl = Array.make (2 * cap) 0 and ng = Array.make (2 * cap) 0 in
    for k = 0 to cap - 1 do
      let j = (ctx.vq_head + k) land (cap - 1) in
      nl.(k) <- ctx.vq_line.(j);
      ng.(k) <- ctx.vq_gen.(j)
    done;
    ctx.vq_line <- nl;
    ctx.vq_gen <- ng;
    ctx.vq_head <- 0
  end;
  let j = (ctx.vq_head + ctx.vq_len) land (Array.length ctx.vq_line - 1) in
  ctx.vq_line.(j) <- line;
  ctx.vq_gen.(j) <- gen;
  ctx.vq_len <- ctx.vq_len + 1

let vlines_push ctx k line =
  if k = Array.length ctx.vlines then begin
    let nb = Array.make (2 * k) 0 in
    Array.blit ctx.vlines 0 nb 0 k;
    ctx.vlines <- nb
  end;
  ctx.vlines.(k) <- line

(* A vector get of the [n] word addresses [addrs.(0..n-1)], in issue
   order. *)
let vget_issue_h ~skip_cached t ~pe h (addrs : int array) (n : int) =
  let ctx = t.ctxs.(pe) in
  let lw = t.cfg.Config.line_words in
  let seen = ctx.vseen in
  Int_table.clear seen;
  let m = ref 0 in
  let first_target = ref (-1) in
  for i = 0 to n - 1 do
    let addr = addrs.(i) in
    let tgt = Addr_map.target_of h ~pe ~addr in
    if !first_target < 0 && tgt >= 0 then first_target := tgt;
    let line = addr / lw in
    if not (Int_table.mem seen line) then begin
      Int_table.replace seen line 1;
      (* skip lines this epoch's machinery already staged or fetched,
         and island-homed lines under the clustered protocol (served
         coherently; staging would only displace valid copies) *)
      if
        not
          (island_coherent t ~pe ~tgt
          || ((skip_cached || Int_table.mem ctx.fresh line)
             && Cache.probe_line ctx.cache ~line)
          || Int_table.mem ctx.vget line)
      then begin
        vlines_push ctx !m line;
        incr m
      end
    end
  done;
  let m = !m in
  if n > 0 then begin
    (* the block-transfer call is issued whenever the operation executes —
       a redundant vector prefetch still pays its start-up and translation
       overhead, even if every line turns out to be staged already *)
    let s = ctx.pe.Pe.stats in
    s.Stats.pf_vector <- s.Stats.pf_vector + 1;
    s.Stats.pf_vector_words <- s.Stats.pf_vector_words + (m * lw);
    let ac = annex_cost t ctx !first_target in
    (* one link booking for the whole block: a vector get streams all its
       lines through the owner's port back-to-back *)
    let delay =
      if m = 0 then 0
      else contend t ctx !first_target ~now:ctx.pe.Pe.clock ~lines:m
    in
    Pe.advance ctx.pe (ac + t.cfg.Config.vget_startup);
    for k = 0 to m - 1 do
      let line = ctx.vlines.(k) in
      Cache.invalidate_line ctx.cache ~line;
      Int_table.remove ctx.fresh line;
      (* the staging buffer holds at most a cache's worth of in-flight
         vector data: staging beyond that displaces the oldest unconsumed
         lines — the eviction hazard that motivates the paper's one-level
         pulling restriction. Tombstoned ring entries (consumed or already
         displaced lines) are skipped without counting as evictions. *)
      while
        ctx.vget_words + lw > t.cfg.Config.cache_words
        && Int_table.length ctx.vget > 0
      do
        let oldest = ctx.vq_line.(ctx.vq_head)
        and gen = ctx.vq_gen.(ctx.vq_head) in
        ctx.vq_head <- (ctx.vq_head + 1) land (Array.length ctx.vq_line - 1);
        ctx.vq_len <- ctx.vq_len - 1;
        if Int_table.find ctx.vstamp oldest ~default:(-1) = gen then begin
          vget_consume ctx oldest lw;
          s.Stats.pf_evicted <- s.Stats.pf_evicted + 1
        end
      done;
      let ready =
        ctx.pe.Pe.clock + delay + ((k + 1) * lw * t.cfg.Config.vget_per_word)
      in
      if not (Int_table.mem ctx.vget line) then begin
        ctx.vgen <- ctx.vgen + 1;
        Int_table.replace ctx.vstamp line ctx.vgen;
        vq_push ctx line ctx.vgen;
        ctx.vget_words <- ctx.vget_words + lw
      end;
      Int_table.replace ctx.vget line ready
    done
  end

let vget_issue ?(skip_cached = false) t ~pe name idxs =
  activate t ~pe;
  let h = handle_of t name in
  let addrs =
    Array.of_list (List.map (fun idx -> Addr_map.resolve_h h ~pe idx) idxs)
  in
  vget_issue_h ~skip_cached t ~pe h addrs (Array.length addrs)

let vget_issue_c ~skip_cached t ~pe acc ~addrs ~n =
  vget_issue_h ~skip_cached t ~pe acc.ah addrs n

(* Barrier drain of the buffered-mode private ledgers, in PE-major order —
   the same order serial replay executes PEs in, so the settled versions,
   the violation log and the observed-stale set are identical for every
   shard count. Runs before the tick advances: the settling writes belong
   to the epoch that just ended. *)
let drain_buffered t =
  (match t.ora with
  | Some o ->
      iter_live t (fun ctx ->
          let cache = ctx.cache in
          for i = 0 to ctx.wn - 1 do
            let a = ctx.wbuf.(i) in
            o.next_ver <- o.next_ver + 1;
            o.wver.(a) <- o.next_ver;
            o.wepoch.(a) <- t.epoch_tick;
            (* the write-through patched the writer's cached value; the
               version it carries settles here *)
            Cache.update_from cache ~ver:o.next_ver ~addr:a t.mem a;
            t.shadow.(a) <- t.mem.(a)
          done;
          ctx.wn <- 0)
  | None ->
      iter_live t (fun ctx ->
          for i = 0 to ctx.wn - 1 do
            let a = ctx.wbuf.(i) in
            t.shadow.(a) <- t.mem.(a)
          done;
          ctx.wn <- 0));
  (match t.ora with
  | Some o ->
      let kept = ref (List.length o.violations) in
      iter_live t (fun ctx ->
          o.checked <- o.checked + ctx.pchecked;
          ctx.pchecked <- 0;
          List.iter
            (fun v ->
              if !kept < max_kept_violations then begin
                o.violations <- v :: o.violations;
                incr kept
              end)
            (List.rev ctx.pviol);
          o.n_violations <- o.n_violations + ctx.pnviol;
          ctx.pnviol <- 0;
          ctx.pviol <- [])
  | None -> ());
  iter_live t (fun ctx ->
      if Hashtbl.length ctx.pobs > 0 then begin
        Hashtbl.iter (fun id () -> Hashtbl.replace t.observed_stale id ()) ctx.pobs;
        Hashtbl.reset ctx.pobs
      end)

(* Whether DOALL epochs may execute with PEs sharded across domains: the
   mode must buffer every cross-PE effect until the barrier, and the
   link-contention model must be off (Net.acquire serializes bookings
   through shared per-link state mid-epoch). *)
(* Critical sections additionally forbid sharding: locked (bypassed) reads
   observe other PEs' current-epoch writes through [mem], so concurrent
   shards would race on it. *)
let shardable t = t.buffered && t.cfg.Config.link_occ = 0 && not t.has_sync

let epoch_boundary t =
  if t.buffered then drain_buffered t;
  iter_live t (fun ctx ->
      let leftovers = Int_table.length ctx.vget in
      ctx.pe.Pe.stats.Stats.pf_unused <-
        ctx.pe.Pe.stats.Stats.pf_unused + leftovers;
      Int_table.clear ctx.vget;
      Int_table.clear ctx.vstamp;
      ctx.vq_head <- 0;
      ctx.vq_len <- 0;
      ctx.vget_words <- 0;
      Int_table.clear ctx.fresh);
  Hashtbl.iter
    (fun _ v ->
      if v.writers <> 0 then begin
        v.settled <- t.epoch_tick;
        v.writers <- 0
      end)
    t.versions;
  t.epoch_tick <- t.epoch_tick + 1;
  (* the barrier drains the network: link bookings do not cross epochs *)
  Net.reset_links t.net;
  (* the barrier subsumes any lock release: lock state does not cross
     epochs either *)
  Hashtbl.reset t.locks;
  (match t.md with
  | Seq -> ()
  (* the hardware rivals keep cache and protocol state across epochs —
     coherence is maintained continuously, not at barriers *)
  | Base | Ccdp | Incoherent | Hscd | Msi | Mesi | Directory | Clustered ->
      Machine.barrier t.mach
  | Invalidate ->
      Machine.barrier t.mach;
      (* every PE counts the flush; only an activated one has a cache *)
      iter_live t (fun ctx -> Cache.invalidate_all ctx.cache);
      Array.iter
        (fun (p : Pe.t) ->
          p.Pe.stats.Stats.invalidations <- p.Pe.stats.Stats.invalidations + 1)
        t.pes);
  Array.iteri (fun i (p : Pe.t) -> t.epoch_start.(i) <- p.Pe.clock) t.pes

(* A finished run keeps its memory system for read-back and inspection
   only. Its last barrier drained every buffered write into the shadow,
   so the shadow equals memory and no write stamp is current: the copy
   handed back shares [mem] as its shadow and drops the stamps, and a
   kept result holds one image of memory instead of three. *)
let finish t =
  {
    t with
    shadow = (if t.buffered then t.mem else [||]);
    wstamp = [||];
    finished = true;
  }

let time t = Machine.time t.mach
let total_stats t = Machine.total_stats t.mach

let oracle_enabled t = t.ora <> None

(* The getters fold any not-yet-drained per-PE staging on top of the
   settled oracle state, so mid-epoch introspection (unit tests driving
   read/write without barriers) sees every assertion. *)
let oracle_checked t =
  match t.ora with
  | Some o -> fold_live t (fun acc ctx -> acc + ctx.pchecked) o.checked
  | None -> 0

let oracle_violation_count t =
  match t.ora with
  | Some o ->
      fold_live t (fun acc ctx -> acc + ctx.pnviol) o.n_violations
  | None -> 0

let oracle_violations t =
  match t.ora with
  | Some o ->
      let base = List.rev o.violations in
      let kept = ref (List.length base) in
      let staged =
        fold_live t
          (fun acc ctx ->
            List.fold_left
              (fun acc v ->
                if !kept < max_kept_violations then begin
                  incr kept;
                  v :: acc
                end
                else acc)
              acc (List.rev ctx.pviol))
          []
      in
      base @ List.rev staged
  | None -> []

let pp_violation ppf v =
  Format.fprintf ppf
    "stale hit: ref %d on PE %d read %s(%s) [addr %d] in epoch %d; cached \
     version %d predates version %d written in epoch %d"
    v.v_ref v.v_pe v.v_array
    (String.concat "," (Array.to_list (Array.map string_of_int v.v_index)))
    v.v_addr v.v_read_epoch v.v_cached_version v.v_mem_version v.v_write_epoch

(* Protocol introspection (property tests): the per-PE line state and the
   directory's view of a line. *)
let line_state t ~pe ~line =
  if activated t pe then Cache.line_state t.ctxs.(pe).cache ~line
  else Coherence.invalid

let dir_sharers t ~line =
  match t.hw with
  | Hw_dir d -> Coherence.Dir.sharers d ~line
  | Hw_none | Hw_snoop _ | Hw_cluster -> []

let dir_owner t ~line =
  match t.hw with
  | Hw_dir d -> Coherence.Dir.owner d ~line
  | Hw_none | Hw_snoop _ | Hw_cluster -> -1

let sabotage t = t.sab
let sabotage_fired t = t.sab_fired

let observed_stale_ids t =
  let tbl = Hashtbl.copy t.observed_stale in
  iter_live t (fun ctx ->
      Hashtbl.iter (fun id () -> Hashtbl.replace tbl id ()) ctx.pobs);
  Hashtbl.fold (fun id () acc -> id :: acc) tbl [] |> List.sort compare

let stale_cached_words t =
  let lw = t.cfg.Config.line_words in
  let count = ref 0 in
  iter_live t (fun ctx ->
      for addr = 0 to Array.length t.mem - 1 do
        ignore lw;
        match Cache.peek ctx.cache ~addr with
        | Some v when v <> t.mem.(addr) -> incr count
        | Some _ | None -> ()
      done);
  !count
