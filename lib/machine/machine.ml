type t = { cfg : Config.t; pes : Pe.t array }

let create cfg =
  (match Config.validate cfg with
  | [] -> ()
  | problems ->
      invalid_arg ("Machine.create: bad config: " ^ String.concat "; " problems));
  { cfg; pes = Array.init cfg.Config.n_pes Pe.create }

let pe t i =
  let p = t.pes.(i) in
  Pe.activate t.cfg p;
  p

let clock t i = t.pes.(i).Pe.clock
let n_pes t = Array.length t.pes
let time t = Array.fold_left (fun acc (p : Pe.t) -> max acc p.clock) 0 t.pes

let barrier t =
  let target = time t + Config.barrier_cost t.cfg in
  Array.iter
    (fun (p : Pe.t) ->
      p.Pe.clock <- target;
      if Pe.active p then begin
        let unused = Prefetch_queue.clear p.Pe.queue in
        p.Pe.stats.Stats.pf_unused <- p.Pe.stats.Stats.pf_unused + unused
      end;
      p.Pe.stats.Stats.barriers <- p.Pe.stats.Stats.barriers + 1)
    t.pes

let total_stats t =
  Array.fold_left
    (fun acc (p : Pe.t) -> Stats.merge acc p.Pe.stats)
    (Stats.create ()) t.pes

let reset t = Array.iter Pe.reset t.pes
