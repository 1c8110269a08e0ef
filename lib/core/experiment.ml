open Ccdp_machine
open Ccdp_runtime
open Ccdp_workloads
module Pool = Ccdp_exec.Pool

type row = {
  workload : string;
  pes : int;
  seq_cycles : int;
  base_cycles : int;
  ccdp_cycles : int;
  base_ok : bool;
  ccdp_ok : bool;
  ccdp_stats : Stats.t;
}

let base_speedup r = float_of_int r.seq_cycles /. float_of_int r.base_cycles
let ccdp_speedup r = float_of_int r.seq_cycles /. float_of_int r.ccdp_cycles

let improvement r =
  100.0 *. (float_of_int (r.base_cycles - r.ccdp_cycles) /. float_of_int r.base_cycles)

type spec = { pes : int list; verify : bool; tuning : Ccdp_analysis.Schedule.tuning }

let default_spec =
  {
    pes = [ 1; 2; 4; 8; 16; 32; 64 ];
    verify = true;
    tuning = Ccdp_analysis.Schedule.default_tuning;
  }

(* The one mapping from a coherence mode to what Interp.run takes (see
   the interface). *)
let setup ?tuning ?innermost_only ?group_spatial ?prefetch_clean
    ?(machine = Config.t3d) ?report ~n_pes mode program =
  let cfg = machine ~n_pes in
  let compile ~cluster_coherent =
    let c =
      Pipeline.compile cfg ?tuning ?innermost_only ?group_spatial
        ?prefetch_clean ~cluster_coherent program
    in
    Option.iter (fun f -> f c) report;
    c
  in
  match mode with
  | Memsys.Ccdp | Memsys.Clustered ->
      (* the clustered runtime still consumes a CCDP plan for its
         inter-island traffic; compiling with the cluster-aware discharge
         drops the obligations the island snoop makes redundant *)
      let c = compile ~cluster_coherent:(mode = Memsys.Clustered) in
      (cfg, c.Pipeline.program, c.Pipeline.plan)
  | Memsys.Seq | Memsys.Base | Memsys.Invalidate | Memsys.Incoherent
  | Memsys.Hscd | Memsys.Msi | Memsys.Mesi | Memsys.Directory ->
      if report <> None then ignore (compile ~cluster_coherent:false);
      let cfg = if mode = Memsys.Seq then machine ~n_pes:1 else cfg in
      (cfg, Ccdp_ir.Program.inline program, Ccdp_analysis.Annot.empty ())

(* [jobs]: intra-run shard count for the epoch simulation (see
   Interp.run's [pool]); [None] runs the serial walk without creating any
   pool. *)
let run_mode ?tuning ?machine ?jobs ~n_pes mode (w : Workload.t) =
  let cfg, program, plan = setup ?tuning ?machine ~n_pes mode w.program in
  let go ?pool () = Interp.run cfg ?pool program ~plan ~mode () in
  match jobs with
  | Some j when j > 1 -> Pool.with_pool ~jobs:j (fun pool -> go ~pool ())
  | _ -> go ()

(* ------------------------------------------------------------------ *)
(* The cell runner                                                     *)
(* ------------------------------------------------------------------ *)

(* the knobs and the preset are only ever used to prepare the run, so a
   cell keeps that preparation, not its inputs *)
type cell = {
  c_workload : Workload.t;
  c_mode : Memsys.mode;
  c_label : string;
  c_setup : unit -> Config.t * Ccdp_ir.Program.t * Ccdp_analysis.Annot.plan;
}

let cell ?tuning ?innermost_only ?group_spatial ?prefetch_clean
    ?(machine = ("t3d", Config.t3d)) ~n_pes mode (w : Workload.t) =
  {
    c_workload = w;
    c_mode = mode;
    c_label =
      Printf.sprintf "%s@%s:%dpe:%s" w.name (fst machine) n_pes
        (Memsys.mode_name mode);
    c_setup =
      (fun () ->
        setup ?tuning ?innermost_only ?group_spatial ?prefetch_clean
          ~machine:(snd machine) ~n_pes mode w.program);
  }

(* Every Interp.run allocates its whole machine state, so cells run on
   any domain in any order; Pool.map_runs collects them by index, which
   makes the outcome list identical for every job count. The sequential
   references run first, once per workload that needs one. *)
let run_cells ?jobs ?(verify = false) cells =
  let needs c = verify || c.c_mode = Memsys.Seq in
  let ws =
    List.fold_left
      (fun acc c ->
        if needs c && not (List.memq c.c_workload acc) then
          acc @ [ c.c_workload ]
        else acc)
      [] cells
  in
  Pool.with_pool ?jobs (fun pool ->
      let seqs =
        Pool.map_runs pool
          ~label:(fun i -> "seq:" ^ (List.nth ws i).Workload.name)
          (fun _ w -> run_mode ~n_pes:1 Memsys.Seq w)
          ws
      in
      let refs = List.combine ws seqs in
      Pool.map_runs pool
        ~label:(fun i -> (List.nth cells i).c_label)
        (fun _ c ->
          match List.assq_opt c.c_workload refs with
          | Some (s : Interp.result) when c.c_mode = Memsys.Seq ->
              (s.Interp.cycles, s.Interp.stats, true)
          | seq ->
              let cfg, program, plan = c.c_setup () in
              let r = Interp.run cfg program ~plan ~mode:c.c_mode () in
              let ok =
                match seq with
                | Some s when verify ->
                    (Verify.compare_states ~expected:s.Interp.sys
                       ~got:r.Interp.sys program)
                      .Verify.ok
                | _ -> true
              in
              (r.Interp.cycles, r.Interp.stats, ok))
        cells)

(* [grid keys cells_of row_of]: one batch of every key's cells; key [k]'s
   row is [row_of k outs], [outs] the outcomes of [cells_of k] in order. *)
let grid ?jobs ?verify keys cells_of row_of =
  let groups = List.map cells_of keys in
  let rec split groups outs =
    match groups with
    | [] -> []
    | g :: gs ->
        let n = List.length g in
        Array.of_list (List.filteri (fun i _ -> i < n) outs)
        :: split gs (List.filteri (fun i _ -> i >= n) outs)
  in
  List.map2 row_of keys
    (split groups (run_cells ?jobs ?verify (List.concat groups)))

let cycles (c, _, _) = c
let stats (_, s, _) = s
let cyc o = string_of_int (cycles o)
let pct num den = Report.fpct (100. *. float_of_int num /. float_of_int den)

let evaluate ?jobs ?(spec = default_spec) workloads =
  List.concat
    (grid ?jobs ~verify:spec.verify workloads
       (fun w ->
         cell ~n_pes:1 Memsys.Seq w
         :: List.concat_map
              (fun n_pes ->
                [
                  cell ~n_pes Memsys.Base w;
                  cell ~tuning:spec.tuning ~n_pes Memsys.Ccdp w;
                ])
              spec.pes)
       (fun (w : Workload.t) o ->
         List.mapi
           (fun i n_pes ->
             let base_cycles, _, base_ok = o.((2 * i) + 1)
             and ccdp_cycles, ccdp_stats, ccdp_ok = o.((2 * i) + 2) in
             {
               workload = w.name;
               pes = n_pes;
               seq_cycles = cycles o.(0);
               base_cycles;
               ccdp_cycles;
               base_ok;
               ccdp_ok;
               ccdp_stats;
             })
           spec.pes))

let workload_names rows =
  List.fold_left
    (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
    [] rows

let pe_counts rows =
  List.sort_uniq compare (List.map (fun (r : row) -> r.pes) rows)

(* ------------------------------------------------------------------ *)
(* Tables as values                                                    *)
(* ------------------------------------------------------------------ *)

type table = { title : string; headers : string list; trows : string list list }

let print_tbl ppf t = Report.table ppf ~title:t.title ~headers:t.headers t.trows

let table1 rows =
  let names = workload_names rows in
  let headers =
    "#PEs"
    :: List.concat_map (fun n -> [ n ^ " BASE"; n ^ " CCDP" ]) names
  in
  let body =
    List.map
      (fun p ->
        string_of_int p
        :: List.concat_map
             (fun name ->
               match
                 List.find_opt
                   (fun (r : row) -> r.workload = name && r.pes = p)
                   rows
               with
               | Some r ->
                   let tag b = if b then "" else "!" in
                   [
                     Report.fx (base_speedup r) ^ tag r.base_ok;
                     Report.fx (ccdp_speedup r) ^ tag r.ccdp_ok;
                   ]
               | None -> [ "-"; "-" ])
             names)
      (pe_counts rows)
  in
  {
    title =
      "Table 1. Speedups over sequential execution time ('!' marks a failed \
       numeric verification)";
    headers;
    trows = body;
  }

let table2 rows =
  let names = workload_names rows in
  let headers = "#PEs" :: names in
  let body =
    List.map
      (fun p ->
        string_of_int p
        :: List.map
             (fun name ->
               match
                 List.find_opt
                   (fun (r : row) -> r.workload = name && r.pes = p)
                   rows
               with
               | Some r -> Report.fpct (improvement r)
               | None -> "-")
             names)
      (pe_counts rows)
  in
  {
    title = "Table 2. Improvement in execution time of CCDP codes over BASE codes";
    headers;
    trows = body;
  }

let csv_rows ppf rows =
  Report.csv ppf
    ~headers:
      [
        "workload"; "pes"; "seq_cycles"; "base_cycles"; "ccdp_cycles";
        "base_speedup"; "ccdp_speedup"; "improvement_pct"; "base_verified";
        "ccdp_verified";
      ]
    (List.map
       (fun (r : row) ->
         [
           r.workload;
           string_of_int r.pes;
           string_of_int r.seq_cycles;
           string_of_int r.base_cycles;
           string_of_int r.ccdp_cycles;
           Printf.sprintf "%.4f" (base_speedup r);
           Printf.sprintf "%.4f" (ccdp_speedup r);
           Printf.sprintf "%.2f" (improvement r);
           string_of_bool r.base_ok;
           string_of_bool r.ccdp_ok;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* Each ablation is one cell per (workload, variant); a row compares a
   workload's variants. *)

let ablation_target_table ?(n_pes = 16) ?jobs workloads =
  {
    title =
      Printf.sprintf
        "Ablation A (%d PEs): prefetch target analysis off (cycles; lower is \
         better)" n_pes;
    headers =
      [
        "workload"; "full"; "no group-spatial"; "no target analysis";
        "groups save"; "target saves";
      ];
    trows =
      grid ?jobs workloads
        (fun w ->
          [
            cell ~n_pes Memsys.Ccdp w;
            cell ~group_spatial:false ~n_pes Memsys.Ccdp w;
            cell ~group_spatial:false ~innermost_only:false ~n_pes Memsys.Ccdp
              w;
          ])
        (fun (w : Workload.t) o ->
          let full = cycles o.(0) and no_group = cycles o.(1)
          and all_stale = cycles o.(2) in
          [
            w.name; cyc o.(0); cyc o.(1); cyc o.(2);
            pct (no_group - full) full; pct (all_stale - full) full;
          ]);
  }

let ablation_technique_table ?(n_pes = 16) ?jobs workloads =
  let open Ccdp_analysis.Schedule in
  let t0 = default_tuning in
  let variants =
    [
      ("all", t0);
      ("VPG only", { t0 with allow_sp = false; allow_mbp = false });
      ("SP only", { t0 with allow_vpg = false; allow_mbp = false });
      ("MBP only", { t0 with allow_vpg = false; allow_sp = false });
    ]
  in
  {
    title =
      Printf.sprintf "Ablation B (%d PEs): single scheduling technique (cycles)"
        n_pes;
    headers = "workload" :: List.map fst variants;
    trows =
      grid ?jobs workloads
        (fun w ->
          List.map (fun (_, tuning) -> cell ~tuning ~n_pes Memsys.Ccdp w)
            variants)
        (fun (w : Workload.t) o -> w.name :: List.map cyc (Array.to_list o));
  }

let ablation_coherence_table ?(n_pes = 16) ?jobs workloads =
  {
    title =
      Printf.sprintf
        "Ablation C (%d PEs): coherence schemes (cycles; uncached BASE, \
         epoch-invalidate, version-based HSCD, CCDP)" n_pes;
    headers =
      [ "workload"; "BASE"; "INV"; "HSCD"; "CCDP"; "vs BASE"; "vs INV";
        "vs HSCD" ];
    trows =
      grid ?jobs workloads
        (fun w ->
          List.map
            (fun mode -> cell ~n_pes mode w)
            Memsys.[ Base; Invalidate; Hscd; Ccdp ])
        (fun (w : Workload.t) o ->
          let ccdp = cycles o.(3) in
          let vs i = pct (cycles o.(i) - ccdp) (cycles o.(i)) in
          [
            w.name; cyc o.(0); cyc o.(1); cyc o.(2); cyc o.(3); vs 0; vs 1;
            vs 2;
          ]);
  }

let ablation_prefetch_clean_table ?(n_pes = 16) ?jobs workloads =
  {
    title =
      Printf.sprintf
        "Experiment E (%d PEs): CCDP + prefetching of non-stale references \
         (the paper's future work)" n_pes;
    headers = [ "workload"; "CCDP"; "CCDP+clean"; "extra gain"; "prefetches" ];
    trows =
      grid ?jobs workloads
        (fun w ->
          [
            cell ~n_pes Memsys.Ccdp w;
            cell ~prefetch_clean:true ~n_pes Memsys.Ccdp w;
          ])
        (fun (w : Workload.t) o ->
          [
            w.name; cyc o.(0); cyc o.(1);
            pct (cycles o.(0) - cycles o.(1)) (cycles o.(0));
            string_of_int (Stats.total_prefetches (stats o.(1)));
          ]);
  }

let ablation_vpg_levels_table ?(n_pes = 16) ?jobs workloads =
  let open Ccdp_analysis.Schedule in
  {
    title =
      Printf.sprintf
        "Experiment G (%d PEs): one-level vs multi-level vector-prefetch \
         pulling (the paper's Gornish modification)" n_pes;
    headers = [ "workload"; "1-level"; "2-level"; "2-level gain"; "evicted" ];
    trows =
      grid ?jobs workloads
        (fun w ->
          [
            cell ~tuning:default_tuning ~n_pes Memsys.Ccdp w;
            cell
              ~tuning:{ default_tuning with vpg_levels = 2 }
              ~n_pes Memsys.Ccdp w;
          ])
        (fun (w : Workload.t) o ->
          [
            w.name; cyc o.(0); cyc o.(1);
            pct (cycles o.(0) - cycles o.(1)) (cycles o.(0));
            string_of_int (stats o.(1)).Stats.pf_evicted;
          ]);
  }

let ablation_topology_table ?(n_pes = 64) ?jobs workloads =
  let flat = ("t3d", Config.t3d) and torus = ("t3d-torus", Config.t3d_torus) in
  {
    title =
      Printf.sprintf
        "Experiment F (%d PEs): uniform remote latency vs 3-D torus distance \
         model (cycles)" n_pes;
    headers =
      [ "workload"; "BASE flat"; "BASE torus"; "CCDP flat"; "CCDP torus";
        "torus improvement" ];
    trows =
      grid ?jobs workloads
        (fun w ->
          [
            cell ~machine:flat ~n_pes Memsys.Base w;
            cell ~machine:torus ~n_pes Memsys.Base w;
            cell ~machine:flat ~n_pes Memsys.Ccdp w;
            cell ~machine:torus ~n_pes Memsys.Ccdp w;
          ])
        (fun (w : Workload.t) o ->
          [
            w.name; cyc o.(0); cyc o.(1); cyc o.(2); cyc o.(3);
            pct (cycles o.(1) - cycles o.(3)) (cycles o.(1));
          ]);
  }

(* ------------------------------------------------------------------ *)
(* Machine sweep                                                       *)
(* ------------------------------------------------------------------ *)

(* The four T3D interconnect variants, in the order the table reports
   them. [t3d] is the uniform-latency paper machine; the others move part
   of the remote latency into the distance model (and, for the crossbar,
   the shared-port contention model). *)
let machine_presets =
  [
    ("t3d", Config.t3d);
    ("t3d-torus", Config.t3d_torus);
    ("t3d-mesh", Config.t3d_mesh);
    ("t3d-xbar", Config.t3d_xbar);
  ]

let machines_table ?(n_pes = 16) ?only ?jobs workloads =
  let machines =
    match only with
    | None -> machine_presets
    | Some name -> (
        match Config.preset_of_string name with
        | Some p -> [ (String.lowercase_ascii name, p) ]
        | None -> invalid_arg ("unknown machine preset: " ^ name))
  in
  {
    title =
      Printf.sprintf
        "Machine sweep (%d PEs): workload x mode x interconnect (cycles)"
        n_pes;
    headers =
      [
        "workload"; "machine"; "BASE"; "CCDP"; "improvement"; "link conflicts";
        "max link occ";
      ];
    trows =
      grid ?jobs
        (List.concat_map
           (fun w -> List.map (fun m -> (w, m)) machines)
           workloads)
        (fun (w, machine) ->
          [
            cell ~machine ~n_pes Memsys.Base w;
            cell ~machine ~n_pes Memsys.Ccdp w;
          ])
        (fun ((w : Workload.t), (mname, _)) o ->
          let s = stats o.(1) in
          [
            w.name; mname; cyc o.(0); cyc o.(1);
            pct (cycles o.(0) - cycles o.(1)) (cycles o.(0));
            string_of_int s.Stats.link_conflicts;
            string_of_int s.Stats.link_occ_max;
          ]);
  }

(* ------------------------------------------------------------------ *)
(* Coherence-cluster sweep                                             *)
(* ------------------------------------------------------------------ *)

(* The CXL-style island presets share the crossbar fabric with t3d-xbar,
   so the honest anchors are flat CCDP and the flat full-map directory on
   t3d-xbar: same distance model, same shared-port contention, no
   islands. A positive "vs" column means the islands won. *)
let cluster_presets =
  [
    ("cxl-2x32", Config.cxl_2x32);
    ("cxl-4x16", Config.cxl_4x16);
    ("cxl-8x8", Config.cxl_8x8);
  ]

let clusters_table ?(n_pes = 16) ?only ?jobs workloads =
  let presets =
    match only with
    | None -> cluster_presets
    | Some name ->
        let name = String.lowercase_ascii name in
        List.filter (fun (mname, _) -> mname = name) cluster_presets
  in
  let xbar = ("t3d-xbar", Config.t3d_xbar) in
  {
    title =
      Printf.sprintf
        "Coherence-cluster sweep (%d PEs): CLU on the CXL island presets \
         vs flat CCDP and the flat directory on the same crossbar fabric \
         (cycles; positive %% = islands win)"
        n_pes;
    headers =
      [
        "workload"; "machine"; "CLU"; "flat CCDP"; "flat DIR";
        "vs flat CCDP"; "vs flat DIR"; "cluster hits"; "cluster inter";
        "bus conflicts";
      ];
    trows =
      (if presets = [] then []
       else
         List.concat
           (grid ?jobs workloads
              (fun w ->
                cell ~machine:xbar ~n_pes Memsys.Ccdp w
                :: cell ~machine:xbar ~n_pes Memsys.Directory w
                :: List.map
                     (fun machine -> cell ~machine ~n_pes Memsys.Clustered w)
                     presets)
              (fun (w : Workload.t) o ->
                List.mapi
                  (fun i (mname, _) ->
                    let clu = o.(i + 2) in
                    let s = stats clu in
                    let vs anchor =
                      pct (cycles anchor - cycles clu) (cycles anchor)
                    in
                    [
                      w.name; mname; cyc clu; cyc o.(0); cyc o.(1); vs o.(0);
                      vs o.(1);
                      string_of_int s.Stats.cluster_hits;
                      string_of_int s.Stats.cluster_inter;
                      string_of_int s.Stats.bus_conflicts;
                    ])
                  presets)));
  }

(* ------------------------------------------------------------------ *)
(* Hardware-coherence rivals sweep                                     *)
(* ------------------------------------------------------------------ *)

type rival_row = {
  rv_workload : string;
  rv_machine : string;
  rv_mode : string;
  rv_pes : int;
  rv_cycles : int;
  rv_norm : float;  (** execution time normalized to BASE (same cell) *)
  rv_ok : bool;
  rv_stats : Stats.t;
}

(* BASE is the normalization anchor; CCDP, the two snooping flavours and
   the directory are the contenders. *)
let rival_modes =
  [ Memsys.Base; Memsys.Ccdp; Memsys.Msi; Memsys.Mesi; Memsys.Directory ]

(* One distance-modelled machine per contention regime: the torus spreads
   traffic over per-destination ports, the crossbar funnels it through
   shared ports — and the snooping bus serializes on both, which is the
   sweep's payoff at high PE counts. *)
let rival_machines =
  [ ("t3d-torus", Config.t3d_torus); ("t3d-xbar", Config.t3d_xbar) ]

let rivals_rows ?(n_pes = 64) ?jobs workloads =
  List.concat
    (grid ?jobs ~verify:true
       (List.concat_map
          (fun w -> List.map (fun m -> (w, m)) rival_machines)
          workloads)
       (fun (w, machine) ->
         List.map (fun mode -> cell ~machine ~n_pes mode w) rival_modes)
       (fun ((w : Workload.t), (mname, _)) o ->
         List.mapi
           (fun i mode ->
             let c, s, ok = o.(i) in
             {
               rv_workload = w.name;
               rv_machine = mname;
               rv_mode = Memsys.mode_name mode;
               rv_pes = n_pes;
               rv_cycles = c;
               rv_norm = float_of_int c /. float_of_int (cycles o.(0));
               rv_ok = ok;
               rv_stats = s;
             })
           rival_modes))

let rivals_table rows =
  let n_pes = match rows with r :: _ -> r.rv_pes | [] -> 0 in
  {
    title =
      Printf.sprintf
        "Hardware-coherence rivals (%d PEs): execution time normalized to \
         BASE, lower is better ('!' marks a failed numeric verification)"
        n_pes;
    headers =
      [
        "workload"; "machine"; "mode"; "cycles"; "norm"; "invalidations";
        "upgrades"; "dir msgs"; "bus conflicts"; "link conflicts";
      ];
    trows =
      List.map
        (fun r ->
          [
            r.rv_workload;
            r.rv_machine;
            r.rv_mode;
            string_of_int r.rv_cycles;
            Report.fx r.rv_norm ^ (if r.rv_ok then "" else "!");
            string_of_int r.rv_stats.Stats.invalidations;
            string_of_int r.rv_stats.Stats.upgrades;
            string_of_int r.rv_stats.Stats.dir_msgs;
            string_of_int r.rv_stats.Stats.bus_conflicts;
            string_of_int r.rv_stats.Stats.link_conflicts;
          ])
        rows;
  }

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

(* A config-field sweep point is just a machine preset. *)
let t3d_with name f = (name, fun ~n_pes -> f (Config.t3d ~n_pes))

let sweep_cache_table ?(n_pes = 16) ?(points = [ 512; 1024; 2048; 4096; 8192 ])
    ?jobs (w : Workload.t) =
  {
    title =
      Printf.sprintf "Sweep: cache capacity, %s at %d PEs (cycles)" w.name
        n_pes;
    headers = [ "cache (words)"; "INV"; "HSCD"; "CCDP" ];
    trows =
      grid ?jobs points
        (fun cache_words ->
          let machine =
            t3d_with
              ("cache=" ^ string_of_int cache_words)
              (fun c -> { c with Config.cache_words })
          in
          List.map
            (fun mode -> cell ~machine ~n_pes mode w)
            Memsys.[ Invalidate; Hscd; Ccdp ])
        (fun cache_words o ->
          string_of_int cache_words :: List.map cyc (Array.to_list o));
  }

let sweep_remote_table ?(n_pes = 16) ?(points = [ 30; 60; 90; 150; 300; 600 ])
    ?jobs (w : Workload.t) =
  {
    title = Printf.sprintf "Sweep: remote latency, %s at %d PEs" w.name n_pes;
    headers = [ "remote (cyc)"; "BASE"; "CCDP"; "improvement" ];
    trows =
      grid ?jobs points
        (fun remote ->
          let machine =
            t3d_with
              ("remote=" ^ string_of_int remote)
              (fun c -> { c with Config.remote })
          in
          [
            cell ~machine ~n_pes Memsys.Base w;
            cell ~machine ~n_pes Memsys.Ccdp w;
          ])
        (fun remote o ->
          [
            string_of_int remote; cyc o.(0); cyc o.(1);
            pct (cycles o.(0) - cycles o.(1)) (cycles o.(0));
          ]);
  }

let sweep_queue_table ?(n_pes = 16) ?(points = [ 4; 8; 16; 32; 64 ]) ?jobs
    (w : Workload.t) =
  {
    title =
      Printf.sprintf "Sweep: prefetch queue capacity, %s at %d PEs" w.name
        n_pes;
    headers = [ "queue (words)"; "CCDP cycles"; "dropped"; "late" ];
    trows =
      grid ?jobs points
        (fun q ->
          let machine =
            t3d_with
              ("queue=" ^ string_of_int q)
              (fun c -> { c with Config.prefetch_queue_words = q })
          in
          [ cell ~machine ~n_pes Memsys.Ccdp w ])
        (fun q o ->
          let s = stats o.(0) in
          [
            string_of_int q; cyc o.(0); string_of_int s.Stats.pf_dropped;
            string_of_int s.Stats.pf_late;
          ]);
  }
