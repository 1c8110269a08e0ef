(* Golden pin of every experiment table beyond Tables 1-2 and the rivals
   sweep: the six ablations, the three parameter sweeps, and the machine
   and coherence-cluster sweeps, on the spec four at a small fixed size
   (n=16, iters=1). The dune rule diffs this against golden_grid.expected
   — any change to a table's cells, its title or the runs behind it fails
   the diff and must be acknowledged with dune promote. Tables are
   computed at -j4, re-proving the grid's determinism against the
   sequentially promoted expectation. *)

open Ccdp_core
open Ccdp_workloads

let () =
  let ws = Suite.spec_four ~n:16 ~iters:1 () in
  let jobs = 4 in
  let tables =
    [
      Experiment.ablation_target_table ~n_pes:4 ~jobs ws;
      Experiment.ablation_technique_table ~n_pes:4 ~jobs ws;
      Experiment.ablation_coherence_table ~n_pes:4 ~jobs ws;
      Experiment.ablation_prefetch_clean_table ~n_pes:4 ~jobs ws;
      Experiment.ablation_vpg_levels_table ~n_pes:4 ~jobs ws;
      Experiment.ablation_topology_table ~n_pes:8 ~jobs ws;
      Experiment.sweep_remote_table ~n_pes:4 ~points:[ 30; 150 ] ~jobs
        (Tomcatv.workload ~n:16 ~iters:1);
      Experiment.sweep_queue_table ~n_pes:4 ~points:[ 4; 32 ] ~jobs
        (Extras.opaque_sweep ~n:16);
      Experiment.sweep_cache_table ~n_pes:4 ~points:[ 512; 2048 ] ~jobs
        (Mxm.workload ~n:16);
      Experiment.machines_table ~n_pes:16 ~jobs ws;
      Experiment.clusters_table ~n_pes:16 ~jobs ws;
    ]
  in
  let ppf = Format.std_formatter in
  List.iter (Experiment.print_tbl ppf) tables;
  Format.pp_print_flush ppf ()
