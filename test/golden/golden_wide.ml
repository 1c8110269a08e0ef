(* Golden pin of wide machines, where most PEs own no iterations: every
   kernel at n=32, iters=1 on 1024 PEs — the compiler's stale references,
   decisions and plan, the certifier's diagnostics, and BASE, CCDP and
   INV runs (cycles, every counter, a digest of the per-PE clocks) — plus
   the remaining modes on three kernels at 256 PEs, CLU on a clustered
   preset. Any change to what an idle PE contributes to the analyses or
   to a run fails the diff. *)

open Ccdp_core
open Ccdp_runtime
open Ccdp_workloads
module Config = Ccdp_machine.Config

let pf = Format.printf

let run ?machine ~n_pes mode (w : Workload.t) =
  let cfg, program, plan =
    Experiment.setup ?machine ~n_pes mode w.Workload.program
  in
  let r = Interp.run cfg program ~plan ~mode () in
  let clocks =
    String.concat ","
      (Array.to_list (Array.map string_of_int r.Interp.per_pe_cycles))
  in
  pf "@[<v 2>%s on %d PEs: %d cycles, per-PE clocks %s@,%a@]@."
    (Memsys.mode_name mode) n_pes r.Interp.cycles
    (Digest.to_hex (Digest.string clocks))
    Ccdp_machine.Stats.pp r.Interp.stats

let compile_facts ~n_pes (w : Workload.t) =
  let c = Pipeline.compile (Config.t3d ~n_pes) w.Workload.program in
  let stale = Ccdp_analysis.Stale.stale_ids c.Pipeline.stale in
  pf "stale refs: [%s]@." (String.concat ";" (List.map string_of_int stale));
  pf "@[<v>%a@]@." Ccdp_analysis.Schedule.pp_decisions c.Pipeline.decisions;
  pf "@[<v>%a@]@." Ccdp_analysis.Annot.pp c.Pipeline.plan;
  pf "%a@." Ccdp_check.Check.pp_report
    { Ccdp_check.Check.name = w.Workload.name;
      diags = Ccdp_check.Check.certify c }

let () =
  List.iter
    (fun (w : Workload.t) ->
      pf "== %s, 1024 PEs ==@." w.Workload.name;
      compile_facts ~n_pes:1024 w;
      List.iter
        (fun mode -> run ~n_pes:1024 mode w)
        Memsys.[ Base; Ccdp; Invalidate ])
    (Suite.all ~n:32 ~iters:1 ());
  List.iter
    (fun name ->
      let w = Suite.find ~n:32 ~iters:1 name in
      pf "== %s, 256 PEs ==@." name;
      List.iter
        (fun mode -> run ~n_pes:256 mode w)
        Memsys.[ Seq; Incoherent; Hscd; Msi; Mesi; Directory ];
      run ~machine:Config.cxl_4x16 ~n_pes:256 Memsys.Clustered w)
    [ "mxm"; "tomcatv"; "dynamic" ]
