open Ccdp_machine
open Ccdp_test_support.Tutil

let config_tests =
  [
    case "t3d preset validates at any width" (fun () ->
        List.iter
          (fun p -> check_true "valid" (Config.validate (Config.t3d ~n_pes:p) = []))
          [ 1; 2; 16; 64; 256 ]);
    case "tiny preset validates" (fun () ->
        check_true "valid" (Config.validate (Config.tiny ~n_pes:4) = []));
    case "t3d geometry matches the hardware" (fun () ->
        let c = Config.t3d ~n_pes:1 in
        check_int "8KB of words" 1024 c.Config.cache_words;
        check_int "32B lines" 4 c.Config.line_words;
        check_int "direct mapped" 1 c.Config.assoc;
        check_int "16-word queue" 16 c.Config.prefetch_queue_words;
        check_int "256 lines" 256 (Config.lines c));
    case "barrier cost grows with log2 of the width" (fun () ->
        let c1 = Config.t3d ~n_pes:1 and c64 = Config.t3d ~n_pes:64 in
        check_true "wider costs more" (Config.barrier_cost c64 > Config.barrier_cost c1);
        check_int "log2 64 = 6 levels"
          (c64.Config.barrier_base + (6 * c64.Config.barrier_per_level))
          (Config.barrier_cost c64));
    case "lines_for_words rounds up" (fun () ->
        let c = Config.t3d ~n_pes:1 in
        check_int "1" 1 (Config.lines_for_words c 1);
        check_int "4" 1 (Config.lines_for_words c 4);
        check_int "5" 2 (Config.lines_for_words c 5));
    case "invalid configs are reported" (fun () ->
        let c = { (Config.t3d ~n_pes:4) with Config.local = 1 } in
        check_true "local < hit flagged" (Config.validate c <> []));
    case "every negative latency/cost field is rejected" (fun () ->
        let base = Config.t3d ~n_pes:4 in
        List.iter
          (fun (name, broken) ->
            check_true (name ^ " rejected") (Config.validate broken <> []))
          [
            ("hit", { base with Config.hit = -1 });
            ("hop", { base with Config.hop = -1 });
            ("link_occ", { base with Config.link_occ = -1 });
            ("store_local", { base with Config.store_local = -1 });
            ("store_remote", { base with Config.store_remote = -1 });
            ("pf_issue", { base with Config.pf_issue = -1 });
            ("pf_extract", { base with Config.pf_extract = -1 });
            ("annex_setup", { base with Config.annex_setup = -1 });
            ("annex_entries", { base with Config.annex_entries = -1 });
            ("annex_entries = 0", { base with Config.annex_entries = 0 });
            ("vget_startup", { base with Config.vget_startup = -1 });
            ("vget_per_word", { base with Config.vget_per_word = -1 });
            ("barrier_base", { base with Config.barrier_base = -1 });
            ("barrier_per_level", { base with Config.barrier_per_level = -1 });
            ("flop", { base with Config.flop = -1 });
            ("loop_overhead", { base with Config.loop_overhead = -1 });
          ]);
    case "the rejection names the offending field" (fun () ->
        let broken = { (Config.t3d ~n_pes:4) with Config.pf_issue = -3 } in
        match Config.validate broken with
        | [ msg ] ->
            check_true "message mentions pf_issue"
              (String.length msg >= 8 && String.sub msg 0 8 = "pf_issue")
        | other ->
            Alcotest.failf "expected exactly one problem, got %d"
              (List.length other));
    case "an empty annex is rejected by validation, not by the annex"
      (fun () ->
        let broken = { (Config.t3d ~n_pes:4) with Config.annex_entries = 0 } in
        check_true "validate names it"
          (Config.validate broken = [ "annex_entries must be positive" ]);
        match Machine.create broken with
        | _ -> Alcotest.fail "Machine.create accepted annex_entries = 0"
        | exception Invalid_argument msg ->
            check_true ("reported as a bad config: " ^ msg)
              (String.length msg > 14 && String.sub msg 0 14 = "Machine.create"));
  ]

let machine_tests =
  [
    case "barrier aligns clocks to max plus the cost" (fun () ->
        let m = Machine.create (Config.t3d ~n_pes:4) in
        Pe.advance (Machine.pe m 2) 500;
        Machine.barrier m;
        let expect = 500 + Config.barrier_cost m.Machine.cfg in
        Array.iter
          (fun (p : Pe.t) -> check_int "aligned" expect p.Pe.clock)
          m.Machine.pes);
    case "barrier drains pending prefetches as unused" (fun () ->
        let m = Machine.create (Config.t3d ~n_pes:2) in
        let p = Machine.pe m 0 in
        ignore (Prefetch_queue.try_insert p.Pe.queue ~line:0 ~words:4 ~ready:1);
        Machine.barrier m;
        check_int "unused" 1 p.Pe.stats.Stats.pf_unused;
        check_int "queue emptied" 0 (Prefetch_queue.occupancy p.Pe.queue));
    case "total_stats sums across PEs but keeps barrier count" (fun () ->
        let m = Machine.create (Config.t3d ~n_pes:4) in
        (Machine.pe m 0).Pe.stats.Stats.reads <- 3;
        (Machine.pe m 1).Pe.stats.Stats.reads <- 4;
        Machine.barrier m;
        let s = Machine.total_stats m in
        check_int "reads" 7 s.Stats.reads;
        check_int "barriers" 1 s.Stats.barriers);
    case "reset restores a fresh machine" (fun () ->
        let m = Machine.create (Config.t3d ~n_pes:2) in
        Pe.advance (Machine.pe m 0) 100;
        (Machine.pe m 0).Pe.stats.Stats.reads <- 5;
        Machine.reset m;
        check_int "clock" 0 (Machine.pe m 0).Pe.clock;
        check_int "stats" 0 (Machine.pe m 0).Pe.stats.Stats.reads);
    case "bad config rejected at machine creation" (fun () ->
        check_true "raises"
          (try ignore (Machine.create { (Config.t3d ~n_pes:4) with Config.line_words = 0 }); false
           with Invalid_argument _ -> true));
  ]

let annex_tests =
  [
    case "first touch misses, second hits" (fun () ->
        let a = Dtb_annex.create ~entries:4 in
        check_false "miss" (Dtb_annex.touch a 7);
        check_true "hit" (Dtb_annex.touch a 7));
    case "capacity evicts the least recent" (fun () ->
        let a = Dtb_annex.create ~entries:2 in
        ignore (Dtb_annex.touch a 1);
        ignore (Dtb_annex.touch a 2);
        ignore (Dtb_annex.touch a 1);
        ignore (Dtb_annex.touch a 3);
        (* 2 was the least recent *)
        check_false "2 evicted" (Dtb_annex.touch a 2));
    case "clear empties the table" (fun () ->
        let a = Dtb_annex.create ~entries:2 in
        ignore (Dtb_annex.touch a 1);
        Dtb_annex.clear a;
        check_false "miss after clear" (Dtb_annex.touch a 1));
  ]

(* The list LRU the array annex replaced, kept as the model: most recent
   first, truncated to the capacity. *)
let model_touch entries lru pe =
  let hit = List.mem pe lru in
  let lru = pe :: List.filter (fun p -> p <> pe) lru in
  (hit, List.filteri (fun i _ -> i < entries) lru)

type annex_op = Touch of int | Clear

let annex_op_gen =
  QCheck.Gen.(
    frequency [ (9, map (fun pe -> Touch pe) (int_range 0 9)); (1, return Clear) ])

let annex_op_print = function
  | Touch pe -> Printf.sprintf "touch %d" pe
  | Clear -> "clear"

let annex_props =
  [
    qcheck ~count:500 "array annex agrees with the list LRU model"
      QCheck.(
        pair (int_range 1 6)
          (make
             ~print:(fun ops -> String.concat "; " (List.map annex_op_print ops))
             Gen.(list_size (int_range 0 60) annex_op_gen)))
      (fun (entries, ops) ->
        let a = Dtb_annex.create ~entries in
        let model = ref [] in
        List.for_all
          (fun op ->
            let same_hit =
              match op with
              | Touch pe ->
                  let hit, lru = model_touch entries !model pe in
                  model := lru;
                  Dtb_annex.touch a pe = hit
              | Clear ->
                  Dtb_annex.clear a;
                  model := [];
                  true
            in
            same_hit && Dtb_annex.resident a = !model)
          ops);
  ]

let stats_tests =
  [
    case "merge sums counters" (fun () ->
        let a = Stats.create () and b = Stats.create () in
        a.Stats.hits <- 2;
        b.Stats.hits <- 3;
        a.Stats.pf_dropped <- 1;
        check_int "hits" 5 (Stats.merge a b).Stats.hits;
        check_int "dropped" 1 (Stats.merge a b).Stats.pf_dropped);
    case "derived totals" (fun () ->
        let a = Stats.create () in
        a.Stats.miss_local <- 2;
        a.Stats.miss_remote <- 3;
        a.Stats.pf_issued <- 4;
        a.Stats.pf_vector <- 1;
        check_int "misses" 5 (Stats.total_misses a);
        check_int "prefetches" 5 (Stats.total_prefetches a));
  ]

let () =
  Alcotest.run "machine"
    [
      ("config", config_tests);
      ("machine", machine_tests);
      ("annex", annex_tests @ annex_props);
      ("stats", stats_tests);
    ]
