(* Benchmark harness: regenerates every table of the paper plus the
   ablation studies indexed in DESIGN.md, and (with "micro") runs bechamel
   microbenchmarks of the compiler phases and simulator primitives.

   The table/ablation/sweep grids are sharded across OCaml domains
   (lib/exec); pass -j N (or set CCDP_JOBS) to pin the worker count,
   -j1 to force the sequential reference path. Numbers are identical for
   every job count. Each mode also writes its rows and tables as
   BENCH_<mode>.json (schema: lib/core/bench_json.mli).

   Usage:
     dune exec bench/main.exe                 -- everything (default sizes)
     dune exec bench/main.exe -- table1       -- just Table 1
     dune exec bench/main.exe -- table2
     dune exec bench/main.exe -- ablate
     dune exec bench/main.exe -- sweep
     dune exec bench/main.exe -- micro
     dune exec bench/main.exe -- oracle       -- staleness-oracle overhead
     dune exec bench/main.exe -- perf         -- engine wall-clock throughput
     dune exec bench/main.exe -- perf --quick -- reduced sizes (CI smoke)
     dune exec bench/main.exe -- machines     -- interconnect sweep
     dune exec bench/main.exe -- machines --machine t3d-mesh
                                              -- one preset only
     dune exec bench/main.exe -- rivals       -- hardware-coherence rivals
     dune exec bench/main.exe -- rivals --quick -- reduced sizes (CI smoke)
     dune exec bench/main.exe -- all --full   -- paper-shaped sizes (slow)
     dune exec bench/main.exe -- table1 -j 8  -- eight worker domains *)

open Ccdp_workloads
open Ccdp_core

type sizes = { n : int; iters : int; pes : int list; abl_pes : int }

let default_sizes = { n = 64; iters = 2; pes = [ 1; 2; 4; 8; 16; 32; 64 ]; abl_pes = 16 }
let full_sizes = { n = 128; iters = 3; pes = [ 1; 2; 4; 8; 16; 32; 64 ]; abl_pes = 32 }

let ppf = Format.std_formatter

let header title =
  Format.fprintf ppf "@.=== %s ===@.@." title

(* Run [f] against a fresh Bench_json document, then write
   BENCH_<bench>.json stamped with the host wall-clock. *)
let with_bench_json ~bench ~jobs f =
  let doc = Bench_json.create ~bench in
  let t0 = Unix.gettimeofday () in
  f doc;
  let wall_clock_s = Unix.gettimeofday () -. t0 in
  let path = Bench_json.write doc ~jobs ~wall_clock_s in
  Format.fprintf ppf "[%s: wall %.2fs at -j%d]@." path wall_clock_s jobs

let tables sizes jobs =
  header
    (Printf.sprintf
       "Paper Tables 1 and 2 (n=%d, iters=%d; simulated T3D; every run \
        numerically verified against sequential execution)"
       sizes.n sizes.iters);
  let ws = Suite.spec_four ~n:sizes.n ~iters:sizes.iters () in
  let spec = { Experiment.default_spec with Experiment.pes = sizes.pes } in
  let rows = ref [] in
  with_bench_json ~bench:"table1" ~jobs (fun doc ->
      rows := Experiment.evaluate ~jobs ~spec ws;
      Bench_json.add_rows doc !rows;
      Bench_json.add_table doc (Experiment.table1 !rows);
      Experiment.print_table1 ppf !rows);
  with_bench_json ~bench:"table2" ~jobs (fun doc ->
      Bench_json.add_rows doc !rows;
      Bench_json.add_table doc (Experiment.table2 !rows);
      Experiment.print_table2 ppf !rows);
  Format.fprintf ppf
    "Paper Table 2 reference bands: MXM 64.5-89.8%%, VPENTA 4.4-23.9%%, \
     TOMCATV 44.8-69.6%%, SWIM 2.5-13.2%%.@."

let extras_table sizes jobs =
  header "Extra kernels (same protocol)";
  let ws =
    [
      Extras.jacobi ~n:sizes.n ~iters:sizes.iters;
      Extras.dynamic ~n:sizes.n;
      Extras.opaque_sweep ~n:sizes.n;
      Extras.triad ~n:sizes.n;
    ]
  in
  let spec = { Experiment.default_spec with Experiment.pes = sizes.pes } in
  with_bench_json ~bench:"extras" ~jobs (fun doc ->
      let rows = Experiment.evaluate ~jobs ~spec ws in
      Bench_json.add_rows doc rows;
      Bench_json.add_table doc (Experiment.table2 rows);
      Experiment.print_table2 ppf rows)

let ablations sizes jobs =
  header "Ablation studies (DESIGN.md experiments A-C)";
  let ws = Suite.spec_four ~n:sizes.n ~iters:sizes.iters () in
  with_bench_json ~bench:"ablate" ~jobs (fun doc ->
      let emit tbl =
        Bench_json.add_table doc tbl;
        Experiment.print_tbl ppf tbl
      in
      emit (Experiment.ablation_target_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_technique_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_coherence_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_prefetch_clean_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_vpg_levels_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_topology_table ~n_pes:64 ~jobs ws))

let sweeps sizes jobs =
  header "Parameter sweeps (DESIGN.md experiment D)";
  let tom = Tomcatv.workload ~n:sizes.n ~iters:sizes.iters in
  let mxm = Mxm.workload ~n:sizes.n in
  with_bench_json ~bench:"sweep" ~jobs (fun doc ->
      let emit tbl =
        Bench_json.add_table doc tbl;
        Experiment.print_tbl ppf tbl
      in
      emit (Experiment.sweep_remote_table ~n_pes:sizes.abl_pes ~jobs tom);
      emit (Experiment.sweep_remote_table ~n_pes:sizes.abl_pes ~jobs mxm);
      (* the queue only matters on the software-pipelined path *)
      emit
        (Experiment.sweep_queue_table ~n_pes:sizes.abl_pes ~jobs
           (Extras.opaque_sweep ~n:sizes.n));
      emit
        (Experiment.sweep_cache_table ~n_pes:sizes.abl_pes ~jobs
           (Mxm.workload ~n:sizes.n)))

(* ---- machine sweep -------------------------------------------------- *)

(* Workload x mode x interconnect: the same kernels on each of the four
   T3D interconnect variants (uniform / torus / mesh / crossbar), plus
   the coherence-cluster sweep — the Clustered mode on the CXL island
   presets anchored against flat CCDP and the flat directory on the same
   crossbar fabric. The t3d rows are the paper machine; the others show
   how much of the CCDP advantage survives a distance model and link
   contention. *)
let machines_bench sizes ~quick ~machine jobs =
  let n = if quick then 24 else sizes.n in
  let iters = if quick then 1 else sizes.iters in
  header
    (Printf.sprintf
       "Machine sweep (n=%d, iters=%d, %d PEs): workload x mode x \
        interconnect"
       n iters sizes.abl_pes);
  let ws = Suite.spec_four ~n ~iters () in
  with_bench_json ~bench:"machines" ~jobs (fun doc ->
      (* a cxl-* --machine filter belongs to the cluster sweep below, not
         the flat BASE/CCDP table (whose presets it would re-island) *)
      let flat_only =
        match machine with
        | Some m
          when Experiment.(
                 List.mem_assoc (String.lowercase_ascii m) cluster_presets) ->
            None
        | m -> m
      in
      let tbl =
        Experiment.machines_table ~n_pes:sizes.abl_pes ?only:flat_only ~jobs
          ws
      in
      Bench_json.add_table doc tbl;
      Experiment.print_tbl ppf tbl;
      let ctbl =
        Experiment.clusters_table ~n_pes:sizes.abl_pes ?only:machine ~jobs ws
      in
      if ctbl.Experiment.trows <> [] then begin
        Bench_json.add_table doc ctbl;
        Experiment.print_tbl ppf ctbl
      end)

(* ---- hardware-coherence rivals -------------------------------------- *)

(* Workload x mode x machine: BASE/CCDP against MSI/MESI snooping and the
   full-map directory, on the torus and crossbar machines. The payoff is
   the scaling cliff: at high PE counts every snooping transaction
   serializes through one bus, so its normalized time blows past both the
   directory and CCDP — most brutally on the crossbar, whose shared ports
   already concentrate the traffic. *)
let rivals_bench sizes ~quick jobs =
  let n = if quick then 16 else sizes.n in
  let iters = if quick then 1 else sizes.iters in
  let n_pes = if quick then 16 else 64 in
  header
    (Printf.sprintf
       "Hardware-coherence rivals (n=%d, iters=%d, %d PEs): workload x \
        mode x machine, normalized to BASE" n iters n_pes);
  let ws = Suite.spec_four ~n ~iters () in
  with_bench_json ~bench:"rivals" ~jobs (fun doc ->
      let rows = Experiment.rivals_rows ~n_pes ~jobs ws in
      Bench_json.add_rivals doc rows;
      let tbl = Experiment.rivals_table rows in
      Bench_json.add_table doc tbl;
      Experiment.print_tbl ppf tbl)

(* ---- staleness-oracle overhead ------------------------------------- *)

(* Host-time cost of arming the dynamic staleness oracle. The oracle is
   pure instrumentation: it must not change the simulated machine (cycles
   are asserted identical) and should stay cheap enough to leave on for
   every fuzz run. Timed serially — parallel workers would contend for
   the clock. *)
let oracle_overhead sizes =
  header "Staleness-oracle overhead (host time; simulated cycles unchanged)";
  let ws =
    [
      Tomcatv.workload ~n:sizes.n ~iters:sizes.iters;
      Mxm.workload ~n:sizes.n;
      Extras.jacobi ~n:sizes.n ~iters:sizes.iters;
    ]
  in
  Format.fprintf ppf "%-10s %12s %12s %9s %12s %10s@." "workload" "off (s)"
    "on (s)" "overhead" "checks" "violations";
  List.iter
    (fun (w : Workload.t) ->
      let cfg = Ccdp_machine.Config.t3d ~n_pes:sizes.abl_pes in
      let compiled = Pipeline.compile cfg w.Workload.program in
      let run ~oracle =
        Ccdp_runtime.Interp.run cfg ~oracle compiled.Pipeline.program
          ~plan:compiled.Pipeline.plan ~mode:Ccdp_runtime.Memsys.Ccdp ()
      in
      let time ~oracle =
        let t0 = Sys.time () in
        let r = run ~oracle in
        (Sys.time () -. t0, r)
      in
      ignore (run ~oracle:false) (* warm up *);
      let t_off, r_off = time ~oracle:false in
      let t_on, r_on = time ~oracle:true in
      if r_on.Ccdp_runtime.Interp.cycles <> r_off.Ccdp_runtime.Interp.cycles
      then
        failwith
          (Printf.sprintf "%s: oracle changed simulated time (%d vs %d)"
             w.Workload.name r_on.Ccdp_runtime.Interp.cycles
             r_off.Ccdp_runtime.Interp.cycles);
      let sys = r_on.Ccdp_runtime.Interp.sys in
      Format.fprintf ppf "%-10s %12.3f %12.3f %8.1f%% %12d %10d@."
        w.Workload.name t_off t_on
        (if t_off > 0.0 then 100.0 *. ((t_on /. t_off) -. 1.0) else 0.0)
        (Ccdp_runtime.Memsys.oracle_checked sys)
        (Ccdp_runtime.Memsys.oracle_violation_count sys))
    ws;
  Format.fprintf ppf "@."

(* ---- engine wall-clock throughput ---------------------------------- *)

(* Host-time throughput of the compiled-plan engine (Interp) across the
   paper's four workloads and every coherence mode, plus the reference
   tree-walking engine (Interp_ref) on the CCDP rows so the speedup of
   the compiled plans is visible in the same document. Timed serially —
   wall-clock and Gc.minor_words are per-run measurements and parallel
   workers would contend for both. The simulated side (cycles, accesses)
   is asserted identical between the two engines. *)
let perf sizes ~quick jobs =
  let n = if quick then 24 else sizes.n in
  let iters = if quick then 1 else sizes.iters in
  let n_pes = sizes.abl_pes in
  header
    (Printf.sprintf
       "Engine throughput (host wall-clock; n=%d, iters=%d, %d PEs, CLU on \
        cxl-4x16; engine=plan is the compiled-plan Interp, engine=ref the \
        reference tree-walker)"
       n iters n_pes);
  let ws = Suite.spec_four ~n ~iters () in
  let modes = Ccdp_runtime.Memsys.all_modes in
  let time_run f =
    ignore (f ()) (* warm up: first run pays lowering/page-in noise *);
    let m0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let wall = Unix.gettimeofday () -. t0 in
    (r, wall, Gc.minor_words () -. m0)
  in
  let emit doc ~workload ~mode ~engine ~wall ~cycles ~accesses ~minor_words =
    let per t = if wall > 0.0 then float_of_int t /. wall else 0.0 in
    Bench_json.add_perf doc
      {
        Bench_json.p_workload = workload;
        p_mode = Ccdp_runtime.Memsys.mode_name mode;
        p_engine = engine;
        p_pes = (if mode = Ccdp_runtime.Memsys.Seq then 1 else n_pes);
        p_jobs = 1;
        p_wall_s = wall;
        p_cycles = cycles;
        p_cycles_per_s = per cycles;
        p_accesses = accesses;
        p_accesses_per_s = per accesses;
        p_minor_words = minor_words;
      };
    Format.fprintf ppf "%-8s %-10s %-5s %9.3fs %12d %14.0f %14.0f %14.0f@."
      workload
      (Ccdp_runtime.Memsys.mode_name mode)
      engine wall cycles (per cycles) (per accesses) minor_words
  in
  with_bench_json ~bench:"perf" ~jobs (fun doc ->
      Format.fprintf ppf "%-8s %-10s %-5s %10s %12s %14s %14s %14s@."
        "workload" "mode" "eng" "wall" "cycles" "sim-cycles/s" "accesses/s"
        "minor-words";
      let mxm_ratio = ref None in
      List.iter
        (fun (w : Workload.t) ->
          let cfg = Ccdp_machine.Config.t3d ~n_pes in
          let cfg1 = Ccdp_machine.Config.t3d ~n_pes:1 in
          (* CLU runs on coherence islands, compiled for them *)
          let cxl = Ccdp_machine.Config.cxl_4x16 ~n_pes in
          let inlined = Ccdp_ir.Program.inline w.Workload.program in
          let empty = Ccdp_analysis.Annot.empty () in
          let compiled = Pipeline.compile cfg w.Workload.program in
          let clustered =
            Pipeline.compile cxl ~cluster_coherent:true w.Workload.program
          in
          let setup mode =
            match mode with
            | Ccdp_runtime.Memsys.Ccdp ->
                (cfg, compiled.Pipeline.program, compiled.Pipeline.plan)
            | Ccdp_runtime.Memsys.Clustered ->
                (cxl, clustered.Pipeline.program, clustered.Pipeline.plan)
            | Ccdp_runtime.Memsys.Seq -> (cfg1, inlined, empty)
            | _ -> (cfg, inlined, empty)
          in
          List.iter
            (fun mode ->
              let mcfg, prog, plan = setup mode in
              let r, wall, mw =
                time_run (fun () ->
                    Ccdp_runtime.Interp.run mcfg prog ~plan ~mode ())
              in
              let stats = r.Ccdp_runtime.Interp.stats in
              let accesses =
                stats.Ccdp_machine.Stats.reads + stats.Ccdp_machine.Stats.writes
              in
              emit doc ~workload:w.Workload.name ~mode ~engine:"plan" ~wall
                ~cycles:r.Ccdp_runtime.Interp.cycles ~accesses ~minor_words:mw;
              if mode = Ccdp_runtime.Memsys.Ccdp then begin
                let rr, rwall, rmw =
                  time_run (fun () ->
                      Ccdp_runtime.Interp_ref.run mcfg prog ~plan ~mode ())
                in
                if rr.Ccdp_runtime.Interp_ref.cycles <> r.Ccdp_runtime.Interp.cycles
                then
                  failwith
                    (Printf.sprintf
                       "perf: engines disagree on %s/ccdp (%d vs %d cycles)"
                       w.Workload.name r.Ccdp_runtime.Interp.cycles
                       rr.Ccdp_runtime.Interp_ref.cycles);
                let rstats = rr.Ccdp_runtime.Interp_ref.stats in
                let raccesses =
                  rstats.Ccdp_machine.Stats.reads
                  + rstats.Ccdp_machine.Stats.writes
                in
                emit doc ~workload:w.Workload.name ~mode ~engine:"ref"
                  ~wall:rwall ~cycles:rr.Ccdp_runtime.Interp_ref.cycles
                  ~accesses:raccesses ~minor_words:rmw;
                if String.lowercase_ascii w.Workload.name = "mxm" && wall > 0.0
                then
                  mxm_ratio := Some (rwall /. wall)
              end)
            modes)
        ws;
      (match !mxm_ratio with
      | Some r ->
          Format.fprintf ppf
            "@.MXM/ccdp compiled-plan engine: %.2fx simulated-cycles/sec of \
             the reference engine.@."
            r
      | None -> ());
      (* ---- intra-run shard scaling -------------------------------- *)
      (* Wide machines, one run each, sharded over -j domains inside the
         epoch loop (Interp ?pool). Simulated cycles are asserted
         identical across job counts — that is the deterministic claim
         this section certifies; the wall-clock column is reported as
         measured and only speeds up when the host grants real cores. *)
      let scale_pes = if quick then [ 256 ] else [ 1024; 2048; 4096 ] in
      let scale_jobs = if quick then [ 1; 8 ] else [ 1; 4; 8 ] in
      let scale_n = if quick then 48 else 192 in
      let w = Mxm.workload ~n:scale_n in
      Format.fprintf ppf
        "@.Intra-run shard scaling (MXM n=%d, ccdp mode; cycles asserted \
         identical across -j)@."
        scale_n;
      Format.fprintf ppf "%-8s %6s %5s %10s %12s %9s@." "workload" "pes"
        "jobs" "wall" "cycles" "speedup";
      List.iter
        (fun pes ->
          let cfg = Ccdp_machine.Config.t3d ~n_pes:pes in
          let compiled = Pipeline.compile cfg w.Workload.program in
          let baseline = ref None in
          List.iter
            (fun j ->
              let run () =
                let go ?pool () =
                  Ccdp_runtime.Interp.run cfg ?pool compiled.Pipeline.program
                    ~plan:compiled.Pipeline.plan
                    ~mode:Ccdp_runtime.Memsys.Ccdp ()
                in
                if j > 1 then
                  Ccdp_exec.Pool.with_pool ~jobs:j (fun pool -> go ~pool ())
                else go ()
              in
              (* no warm-up: one timed run per (pes, jobs) cell keeps the
                 wide grid affordable; cycle identity does not need it *)
              let m0 = Gc.minor_words () in
              let t0 = Unix.gettimeofday () in
              let r = run () in
              let wall = Unix.gettimeofday () -. t0 in
              let mw = Gc.minor_words () -. m0 in
              let cycles = r.Ccdp_runtime.Interp.cycles in
              let stats = r.Ccdp_runtime.Interp.stats in
              let accesses =
                stats.Ccdp_machine.Stats.reads + stats.Ccdp_machine.Stats.writes
              in
              (match !baseline with
              | None -> baseline := Some (cycles, wall)
              | Some (c0, _) ->
                  if cycles <> c0 then
                    failwith
                      (Printf.sprintf
                         "perf scaling: -j%d changed simulated time at %d \
                          PEs (%d vs %d cycles)"
                         j pes cycles c0));
              let speedup =
                match !baseline with
                | Some (_, w0) when wall > 0.0 -> w0 /. wall
                | _ -> 1.0
              in
              let per t = if wall > 0.0 then float_of_int t /. wall else 0.0 in
              Bench_json.add_perf doc
                {
                  Bench_json.p_workload = w.Workload.name;
                  p_mode =
                    Ccdp_runtime.Memsys.mode_name Ccdp_runtime.Memsys.Ccdp;
                  p_engine = "plan";
                  p_pes = pes;
                  p_jobs = j;
                  p_wall_s = wall;
                  p_cycles = cycles;
                  p_cycles_per_s = per cycles;
                  p_accesses = accesses;
                  p_accesses_per_s = per accesses;
                  p_minor_words = mw;
                };
              Format.fprintf ppf "%-8s %6d %5d %9.3fs %12d %8.2fx@."
                w.Workload.name pes j wall cycles speedup)
            scale_jobs)
        scale_pes)

(* ---- bechamel microbenchmarks -------------------------------------- *)

let micro () =
  header "Microbenchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let w = Tomcatv.workload ~n:32 ~iters:1 in
  let cfg16 = Ccdp_machine.Config.t3d ~n_pes:16 in
  let inlined = Ccdp_ir.Program.inline w.Workload.program in
  let ep = Ccdp_ir.Epoch.partition inlined.Ccdp_ir.Program.main in
  let infos = Ccdp_analysis.Ref_info.collect ep in
  let compiled32 = Pipeline.compile cfg16 w.Workload.program in
  let jac = Extras.jacobi ~n:24 ~iters:1 in
  let jac_compiled = Pipeline.compile (Ccdp_machine.Config.t3d ~n_pes:4) jac.Workload.program in
  let cache = Ccdp_machine.Cache.of_config cfg16 in
  let payload = Array.make cfg16.Ccdp_machine.Config.line_words 1.0 in
  let sec_a =
    Ccdp_ir.Section.of_dims
      [ Ccdp_ir.Section.dim ~lo:0 ~hi:500 ~step:3; Ccdp_ir.Section.dim ~lo:0 ~hi:500 ~step:2 ]
  in
  let sec_b =
    Ccdp_ir.Section.of_dims
      [ Ccdp_ir.Section.dim ~lo:1 ~hi:400 ~step:7; Ccdp_ir.Section.dim ~lo:3 ~hi:900 ~step:5 ]
  in
  let tests =
    [
      Test.make ~name:"section.inter (2-D strided)"
        (Staged.stage (fun () -> Ccdp_ir.Section.inter sec_a sec_b));
      Test.make ~name:"cache fill+read line"
        (Staged.stage (fun () ->
             ignore (Ccdp_machine.Cache.fill cache ~line:17 payload);
             Ccdp_machine.Cache.read cache ~addr:68));
      Test.make ~name:"stale analysis (tomcatv n=32, 16 PEs)"
        (Staged.stage (fun () ->
             let region = Ccdp_analysis.Region.make inlined ~n_pes:16 in
             Ccdp_analysis.Stale.analyze region infos));
      Test.make ~name:"full pipeline compile (tomcatv n=32)"
        (Staged.stage (fun () -> Pipeline.compile cfg16 w.Workload.program));
      Test.make ~name:"interp jacobi n=24 CCDP (4 PEs)"
        (Staged.stage (fun () ->
             Ccdp_runtime.Interp.run
               (Ccdp_machine.Config.t3d ~n_pes:4)
               jac_compiled.Pipeline.program ~plan:jac_compiled.Pipeline.plan
               ~mode:Ccdp_runtime.Memsys.Ccdp ()));
      Test.make ~name:"epoch partition + ref collection (tomcatv)"
        (Staged.stage (fun () ->
             Ccdp_analysis.Ref_info.collect
               (Ccdp_ir.Epoch.partition inlined.Ccdp_ir.Program.main)));
      (let text = Ccdp_core.Craft_emit.to_string compiled32 in
       Test.make ~name:"CRAFT parse (tomcatv source)"
         (Staged.stage (fun () -> Ccdp_ir.Craft_parse.program text)));
      Test.make ~name:"CRAFT emit (tomcatv)"
        (Staged.stage (fun () -> Ccdp_core.Craft_emit.to_string compiled32));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
              Format.fprintf ppf "%-45s %12.0f ns/run@." name est
          | _ -> Format.fprintf ppf "%-45s (no estimate)@." name)
        results)
    tests

(* -j N / -jN / CCDP_JOBS, falling back to the domain count. Returns the
   job count and the argument list with the flag consumed. *)
let parse_jobs args =
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | "-j" :: v :: rest -> (int_of_string_opt v, List.rev_append acc rest)
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        (int_of_string_opt (String.sub a 2 (String.length a - 2)),
         List.rev_append acc rest)
    | a :: rest -> go (a :: acc) rest
  in
  let jobs, rest = go [] args in
  (Ccdp_exec.Pool.resolve_jobs ?jobs (), rest)

(* --machine NAME: restrict the machine sweep to one preset (any
   Config.preset_of_string name, e.g. t3d-mesh or crossbar). *)
let parse_machine args =
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | "--machine" :: v :: rest -> (Some v, List.rev_append acc rest)
    | a :: rest -> go (a :: acc) rest
  in
  let machine, rest = go [] args in
  (match machine with
  | Some m when Ccdp_machine.Config.preset_of_string m = None ->
      Printf.eprintf "unknown machine %S (presets: %s)\n" m
        (String.concat ", " Ccdp_machine.Config.preset_names);
      exit 2
  | _ -> ());
  (machine, rest)

let () =
  let jobs, args = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  let machine, args = parse_machine args in
  let full = List.mem "--full" args in
  let sizes = if full then full_sizes else default_sizes in
  let quick = List.mem "--quick" args in
  let has cmd = List.mem cmd args in
  let all = has "all" || not (has "table1" || has "table2" || has "ablate" || has "sweep" || has "micro" || has "oracle" || has "perf" || has "machines" || has "rivals") in
  if all || has "table1" || has "table2" then tables sizes jobs;
  if all then extras_table sizes jobs;
  if all || has "ablate" then ablations sizes jobs;
  if all || has "sweep" then sweeps sizes jobs;
  if all || has "machines" then machines_bench sizes ~quick ~machine jobs;
  if all || has "rivals" then rivals_bench sizes ~quick jobs;
  if all || has "oracle" then oracle_overhead sizes;
  if all || has "perf" then perf sizes ~quick jobs;
  if has "micro" then micro ()
