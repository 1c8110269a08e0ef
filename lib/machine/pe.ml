type t = {
  id : int;
  mutable clock : int;
  stats : Stats.t;
  mutable cache : Cache.t;
  mutable queue : Prefetch_queue.t;
  mutable annex : Dtb_annex.t;
}

(* The hardware every dormant PE shares: empty, and never written, since
   only an activated PE executes. *)
let no_cache = Cache.create ~sets:1 ~assoc:1 ~line_words:1
let no_queue = Prefetch_queue.create ~capacity:0
let no_annex = Dtb_annex.create ~entries:1

let create id =
  {
    id;
    clock = 0;
    stats = Stats.create ();
    cache = no_cache;
    queue = no_queue;
    annex = no_annex;
  }

let active t = t.cache != no_cache

let activate (cfg : Config.t) t =
  if not (active t) then begin
    t.cache <- Cache.of_config cfg;
    t.queue <- Prefetch_queue.create ~capacity:cfg.prefetch_queue_words;
    t.annex <- Dtb_annex.create ~entries:cfg.annex_entries
  end

let advance t cycles =
  if cycles < 0 then invalid_arg "Pe.advance: negative cycles";
  t.clock <- t.clock + cycles

let reset t =
  t.clock <- 0;
  if active t then begin
    Cache.invalidate_all t.cache;
    ignore (Prefetch_queue.clear t.queue);
    Dtb_annex.clear t.annex
  end;
  Stats.reset t.stats
