(* ccdp: command-line driver for the CCDP reproduction.

   Subcommands: list, analyze, run, table1, table2, ablate, sweep, perf. *)

open Cmdliner
open Ccdp_workloads

(* An unknown workload name, or a problem size its kernel rejects, is a
   usage error: one line on stderr and exit 2. *)
let building_workloads f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "ccdp: %s\n" msg;
    exit 2

let workload ~n ~iters name =
  building_workloads (fun () -> Suite.find ~n ~iters name)

let suite ~n ~iters = building_workloads (fun () -> Suite.all ~n ~iters ())

(* ---- common options ---- *)

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let n_arg =
  Arg.(
    value & opt positive 64
    & info [ "n" ] ~docv:"N" ~doc:"Problem size (matrix edge).")

let iters_arg =
  Arg.(
    value & opt positive 2
    & info [ "iters" ] ~docv:"I"
        ~doc:"Time-loop iterations (TOMCATV/SWIM/Jacobi).")

let pes_arg =
  Arg.(
    value
    & opt (list positive) [ 1; 2; 4; 8; 16; 32; 64 ]
    & info [ "pes" ] ~docv:"P,..." ~doc:"Machine widths for the tables.")

let pe_arg =
  Arg.(
    value & opt positive 16
    & info [ "p"; "pe" ] ~docv:"P" ~doc:"Machine width.")

let verify_arg =
  Arg.(
    value & opt bool true
    & info [ "verify" ] ~docv:"BOOL"
        ~doc:"Check every run against the sequential execution.")

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,ccdp list)).")

(* --mode and --machine parsing and help text are generated from the
   runtime's own mode list and the machine preset table, so a new mode or
   preset shows up here without touching the CLI. *)

let mode_of_string s =
  match Ccdp_runtime.Memsys.mode_of_string s with
  | Some m -> Some m
  | None -> (
      (* long-form spellings kept for compatibility *)
      match String.lowercase_ascii s with
      | "invalidate" -> Some Ccdp_runtime.Memsys.Invalidate
      | "incoherent" -> Some Ccdp_runtime.Memsys.Incoherent
      | "directory" -> Some Ccdp_runtime.Memsys.Directory
      | "clustered" -> Some Ccdp_runtime.Memsys.Clustered
      | _ -> None)

let mode_doc =
  String.concat "; "
    (List.map
       (fun m ->
         Printf.sprintf "$(b,%s): %s"
           (String.lowercase_ascii (Ccdp_runtime.Memsys.mode_name m))
           (Ccdp_runtime.Memsys.mode_describe m))
       Ccdp_runtime.Memsys.all_modes)
  ^ "."

let mode_conv =
  let parse s =
    match mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown mode %S (modes: %s)" s
               (String.concat ", "
                  (List.map
                     (fun m ->
                       String.lowercase_ascii (Ccdp_runtime.Memsys.mode_name m))
                     Ccdp_runtime.Memsys.all_modes))))
  in
  Arg.conv (parse, fun ppf m -> Format.fprintf ppf "%s" (Ccdp_runtime.Memsys.mode_name m))

let mode_arg =
  Arg.(
    value
    & opt mode_conv Ccdp_runtime.Memsys.Ccdp
    & info [ "mode" ] ~docv:"MODE" ~doc:mode_doc)

let machine_doc =
  Printf.sprintf
    "Machine preset: %s. Bare interconnect kind names (%s) select the \
     matching T3D variant."
    (String.concat " | "
       (List.map (fun n -> "$(b," ^ n ^ ")") Ccdp_machine.Config.preset_names))
    (String.concat "/" Ccdp_machine.Net.kind_names)

let machine_conv =
  let parse s =
    match Ccdp_machine.Config.preset_of_string s with
    | Some p -> Ok (s, p)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown machine %S (presets: %s)" s
               (String.concat ", " Ccdp_machine.Config.preset_names)))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.fprintf ppf "%s" name)

let machine_arg =
  Arg.(
    value
    & opt machine_conv ("t3d", Ccdp_machine.Config.t3d)
    & info [ "machine" ] ~docv:"MACHINE" ~doc:machine_doc)

(* resolved through CCDP_JOBS and the domain count when not given; -j 1
   bypasses the domain pool entirely (results are identical either way) *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for independent simulator runs (default: \
           \\$(b,CCDP_JOBS) or the recommended domain count). Results are \
           deterministic for any value; 1 disables the pool.")

let resolve_jobs jobs = Ccdp_exec.Pool.resolve_jobs ?jobs ()

(* A subscript outside its array's extents is an error in the program,
   not in the simulator: report it at the reference (FILE:LINE:COL when
   the program came from CRAFT text, else under [what]) and exit 2. *)
let reporting_bad_subscripts what f =
  try f ()
  with Ccdp_runtime.Addr_map.Out_of_bounds { loc; msg } ->
    (match loc with
    | Ccdp_ir.Loc.Src { line; col } ->
        Printf.eprintf "%s:%d:%d: error: %s\n" what line col msg
    | Ccdp_ir.Loc.Synthetic -> Printf.eprintf "%s: error: %s\n" what msg);
    exit 2

(* ---- commands ---- *)

let list_cmd =
  let run n iters =
    List.iter
      (fun (w : Workload.t) -> Printf.printf "%-10s %s\n" w.name w.descr)
      (suite ~n ~iters)
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads")
    Term.(const run $ n_arg $ iters_arg)

let analyze_cmd =
  let run name n iters pe =
    let w = workload ~n ~iters name in
    let cfg = Ccdp_machine.Config.t3d ~n_pes:pe in
    let compiled = Ccdp_core.Pipeline.compile cfg w.program in
    Format.printf "%a@." Ccdp_core.Pipeline.report compiled
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the compiler pipeline and print its report")
    Term.(const run $ workload_arg $ n_arg $ iters_arg $ pe_arg)

let run_cmd =
  let run name n iters pe mode (_, machine) verify jobs =
    reporting_bad_subscripts name @@ fun () ->
    let w = workload ~n ~iters name in
    (* here the pool shards the single run's epochs (Interp's intra-run
       parallelism) rather than a list of runs; the simulated result is
       identical for every job count *)
    let r =
      Ccdp_core.Experiment.run_mode ~machine ~jobs:(resolve_jobs jobs)
        ~n_pes:pe mode w
    in
    Format.printf "%a@." Ccdp_runtime.Interp.pp_result r;
    Format.printf "%a@." Ccdp_runtime.Metrics.pp (Ccdp_runtime.Metrics.of_result r);
    if verify then
      let v = Ccdp_runtime.Verify.against_sequential w.program ~init:(fun _ -> ()) r in
      Format.printf "%a@." Ccdp_runtime.Verify.pp_report v
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute one workload on the machine model")
    Term.(
      const run $ workload_arg $ n_arg $ iters_arg $ pe_arg $ mode_arg
      $ machine_arg $ verify_arg $ jobs_arg)

let eval_rows n iters pes verify spec_four jobs =
  let ws =
    if spec_four then building_workloads (Suite.spec_four ~n ~iters)
    else suite ~n ~iters
  in
  let spec = { Ccdp_core.Experiment.default_spec with pes; verify } in
  Ccdp_core.Experiment.evaluate ~jobs:(resolve_jobs jobs) ~spec ws

let spec_four_arg =
  Arg.(
    value & flag
    & info [ "spec-four" ]
        ~doc:"Restrict to the paper's four benchmarks (MXM, VPENTA, TOMCATV, SWIM).")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV instead.")

let table1_cmd =
  let run n iters pes verify spec4 csv jobs =
    let rows = eval_rows n iters pes verify spec4 jobs in
    if csv then Ccdp_core.Experiment.csv_rows Format.std_formatter rows
    else
      Ccdp_core.Experiment.(print_tbl Format.std_formatter (table1 rows))
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce paper Table 1 (speedups)")
    Term.(
      const run $ n_arg $ iters_arg $ pes_arg $ verify_arg $ spec_four_arg
      $ csv_arg $ jobs_arg)

let table2_cmd =
  let run n iters pes verify spec4 csv jobs =
    let rows = eval_rows n iters pes verify spec4 jobs in
    if csv then Ccdp_core.Experiment.csv_rows Format.std_formatter rows
    else
      Ccdp_core.Experiment.(print_tbl Format.std_formatter (table2 rows))
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Reproduce paper Table 2 (CCDP improvement over BASE)")
    Term.(
      const run $ n_arg $ iters_arg $ pes_arg $ verify_arg $ spec_four_arg
      $ csv_arg $ jobs_arg)

let ablate_cmd =
  let which_arg =
    Arg.(
      value
      & opt (enum [ ("target", `Target); ("sched", `Sched); ("coherence", `Coh) ]) `Coh
      & info [ "which" ] ~docv:"KIND" ~doc:"target | sched | coherence.")
  in
  let run n iters pe which =
    let ws = building_workloads (Suite.spec_four ~n ~iters) in
    let table =
      match which with
      | `Target -> Ccdp_core.Experiment.ablation_target_table
      | `Sched -> Ccdp_core.Experiment.ablation_technique_table
      | `Coh -> Ccdp_core.Experiment.ablation_coherence_table
    in
    Ccdp_core.Experiment.print_tbl Format.std_formatter (table ~n_pes:pe ws)
  in
  Cmd.v (Cmd.info "ablate" ~doc:"Ablation studies (DESIGN.md index)")
    Term.(const run $ n_arg $ iters_arg $ pe_arg $ which_arg)

let load_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"CRAFT-dialect source file.")
  in
  let run path pe mode verify =
    let program =
      try Ccdp_ir.Craft_parse.file path
      with Ccdp_ir.Craft_parse.Error (ln, col, msg) ->
        if col > 0 then Printf.eprintf "%s:%d:%d: error: %s\n" path ln col msg
        else Printf.eprintf "%s:%d: error: %s\n" path ln msg;
        exit 1
    in
    reporting_bad_subscripts path @@ fun () ->
    (* the compile the report prints is the one the run uses *)
    let cfg, prog, plan =
      Ccdp_core.Experiment.setup ~n_pes:pe mode program
        ~report:(Format.printf "%a@.@." Ccdp_core.Pipeline.report)
    in
    let r = Ccdp_runtime.Interp.run cfg prog ~plan ~mode () in
    Format.printf "%a@." Ccdp_runtime.Interp.pp_result r;
    if verify then
      let v = Ccdp_runtime.Verify.against_sequential program ~init:(fun _ -> ()) r in
      Format.printf "%a@." Ccdp_runtime.Verify.pp_report v
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Parse a CRAFT-dialect source file, compile and execute it")
    Term.(const run $ file_arg $ pe_arg $ mode_arg $ verify_arg)

let emit_cmd =
  let run name n iters pe =
    let w = workload ~n ~iters name in
    let cfg = Ccdp_machine.Config.t3d ~n_pes:pe in
    let compiled = Ccdp_core.Pipeline.compile cfg w.program in
    Ccdp_core.Craft_emit.emit Format.std_formatter compiled;
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Print the compiled program as CRAFT-style Fortran with CCDP \
          prefetch annotations")
    Term.(const run $ workload_arg $ n_arg $ iters_arg $ pe_arg)

let profile_cmd =
  let run name n iters pe mode =
    let w = workload ~n ~iters name in
    let r = Ccdp_core.Experiment.run_mode ~n_pes:pe mode w in
    let p = Ccdp_ir.Program.inline w.Workload.program in
    let ep = Ccdp_ir.Epoch.partition p.Ccdp_ir.Program.main in
    Ccdp_runtime.Interp.pp_profile Format.std_formatter ep r;
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Per-epoch cycle breakdown of one run")
    Term.(const run $ workload_arg $ n_arg $ iters_arg $ pe_arg $ mode_arg)

let parallelize_cmd =
  let run name n iters =
    let w = workload ~n ~iters name in
    let p = Ccdp_ir.Program.inline w.Workload.program in
    let _, report = Ccdp_analysis.Parallelize.transform p in
    Format.printf "%a@." Ccdp_analysis.Parallelize.pp_report report
  in
  Cmd.v
    (Cmd.info "parallelize"
       ~doc:"Run the Polaris-style dependence test over a workload")
    Term.(const run $ workload_arg $ n_arg $ iters_arg)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")
  in
  let count_arg =
    Arg.(
      value & opt int 500
      & info [ "count" ] ~docv:"N" ~doc:"Number of random programs to check.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"DIR"
          ~doc:"Write each shrunk failing reproducer there as a .craft file.")
  in
  let break_stale_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "break-stale" ] ~docv:"K"
          ~doc:
            "Fault injection: drop the K-th stale mark from every compile, \
             demonstrating that the oracle catches an unsound analysis.")
  in
  let sabotage_arg =
    Arg.(
      value & flag
      & info [ "sabotage" ]
          ~doc:
            "Protocol fault injection: run the hardware-coherence sabotage \
             campaign (drop snoop invalidations, corrupt directory presence \
             bits) instead of the differential campaign, demonstrating that \
             the staleness oracle catches each protocol fault class.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run every shardable variant with intra-run epoch sharding over \
             $(docv) domains, as the CI smoke job does. Mirrors the \
             $(b,CCDP_SHARDS) environment variable (the flag wins when both \
             are set); campaign output must be identical either way.")
  in
  let run seed count dump break_stale sabotage shards jobs =
    let shards =
      match shards with
      | Some _ -> shards
      | None ->
          Option.bind
            (Sys.getenv_opt "CCDP_SHARDS")
            (fun s -> int_of_string_opt (String.trim s))
    in
    if sabotage then begin
      let summaries =
        Ccdp_fuzz.Driver.sabotage_campaign ~jobs:(resolve_jobs jobs) ~seed
          ~count ()
      in
      List.iter
        (fun s ->
          Format.printf "%a@." Ccdp_fuzz.Driver.pp_sabotage_summary s)
        summaries;
      if
        List.exists
          (fun s -> s.Ccdp_fuzz.Driver.sb_escapes > 0)
          summaries
      then exit 1
    end
    else begin
      let mutate_stale =
        Option.map Ccdp_fuzz.Driver.drop_stale_mark break_stale
      in
      let progress i =
        if i mod 50 = 0 then Printf.eprintf "  ... %d/%d\n%!" i count
      in
      let s =
        Ccdp_fuzz.Driver.campaign ~jobs:(resolve_jobs jobs) ?shards
          ?mutate_stale ?dump_dir:dump ~progress ~seed ~count ()
      in
      Format.printf "%a@." Ccdp_fuzz.Driver.pp_summary s;
      if s.Ccdp_fuzz.Driver.s_failures <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential soundness fuzzing: random CRAFT programs through BASE, \
          every CCDP scheduling variant, the hardware-coherence rivals \
          (MSI, MESI, directory) and the clustered islands mode on a \
          re-islanded machine, checked against sequential execution and \
          the dynamic staleness oracle")
    Term.(
      const run $ seed_arg $ count_arg $ dump_arg $ break_stale_arg
      $ sabotage_arg $ shards_arg $ jobs_arg)

let check_cmd =
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:"Workload name or CRAFT-dialect $(b,.craft) source file.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Check every workload in the suite (plus any TARGETs given).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "warnings-as-errors" ]
          ~doc:"Exit non-zero on warnings too, not just errors.")
  in
  let run targets all n iters pe json werror =
    let resolve t =
      if Filename.check_suffix t ".craft" then
        ( Filename.remove_extension (Filename.basename t),
          try Ccdp_ir.Craft_parse.file t
          with Ccdp_ir.Craft_parse.Error (ln, col, msg) ->
            if col > 0 then Printf.eprintf "%s:%d:%d: error: %s\n" t ln col msg
            else Printf.eprintf "%s:%d: error: %s\n" t ln msg;
            exit 2 )
      else
        let w = workload ~n ~iters t in
        (w.Workload.name, w.Workload.program)
    in
    let named =
      (if all || targets = [] then
         List.map
           (fun (w : Workload.t) -> (w.name, w.program))
           (suite ~n ~iters)
       else [])
      @ List.map resolve targets
    in
    let cfg = Ccdp_machine.Config.t3d ~n_pes:pe in
    let reports =
      List.map
        (fun (name, program) ->
          let compiled = Ccdp_core.Pipeline.compile cfg program in
          { Ccdp_check.Check.name; diags = Ccdp_check.Check.certify compiled })
        named
    in
    if json then print_string (Ccdp_check.Check.json reports)
    else
      List.iter
        (fun r -> Format.printf "%a@." Ccdp_check.Check.pp_report r)
        reports;
    let gate (d : Ccdp_check.Diag.t) =
      werror || d.Ccdp_check.Diag.severity = Ccdp_check.Diag.Error
    in
    if List.exists (fun r -> List.exists gate r.Ccdp_check.Check.diags) reports
    then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically certify compiled coherence plans: coverage of \
          potentially-stale reads, DOALL race freedom, prefetch sizing \
          lints. Exits 1 when an error-severity diagnostic fires, 2 on \
          unusable targets.")
    Term.(
      const run $ targets_arg $ all_arg $ n_arg $ iters_arg $ pe_arg
      $ json_arg $ werror_arg)

let perf_cmd =
  let run name n iters pe mode (_, machine) jobs =
    let jobs = resolve_jobs jobs in
    let w = workload ~n ~iters name in
    let cfg, prog, plan =
      Ccdp_core.Experiment.setup ~machine ~n_pes:pe mode w.program
    in
    let time = Ccdp_core.Bench_json.time in
    let go ?pool () = Ccdp_runtime.Interp.run cfg ?pool prog ~plan ~mode () in
    (* only the plan engine shards; the reference engine stays serial, so
       the cycle-agreement check below also certifies sharded-vs-serial *)
    let r, wall, mw =
      if jobs > 1 then
        Ccdp_exec.Pool.with_pool ~jobs (fun pool -> time (go ~pool))
      else time (fun () -> go ())
    in
    let rr, rwall, rmw =
      time (fun () -> Ccdp_runtime.Interp_ref.run cfg prog ~plan ~mode ())
    in
    if rr.Ccdp_runtime.Interp_ref.cycles <> r.Ccdp_runtime.Interp.cycles then
      failwith
        (Printf.sprintf "perf: engines disagree (%d vs %d cycles)"
           r.Ccdp_runtime.Interp.cycles rr.Ccdp_runtime.Interp_ref.cycles);
    let cycles = r.Ccdp_runtime.Interp.cycles in
    let line eng wall mw =
      Printf.printf "%-5s %9.3fs %12d cycles %14.0f sim-cycles/s %14.0f minor-words\n"
        eng wall cycles
        (if wall > 0.0 then float_of_int cycles /. wall else 0.0)
        mw
    in
    line "plan" wall mw;
    line "ref" rwall rmw;
    if wall > 0.0 then
      Printf.printf "speedup: %.2fx wall-clock, %.1f%% of the allocations\n"
        (rwall /. wall)
        (100.0 *. mw /. Float.max 1.0 rmw)
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Time one workload on the compiled-plan engine and the reference \
          tree-walking engine (identical simulated cycles, host wall-clock \
          and allocation compared)")
    Term.(
      const run $ workload_arg $ n_arg $ iters_arg $ pe_arg $ mode_arg
      $ machine_arg $ jobs_arg)

let sweep_cmd =
  let run n iters pe name =
    let w = workload ~n ~iters name in
    Ccdp_core.Experiment.(
      print_tbl Format.std_formatter (sweep_remote_table ~n_pes:pe w);
      print_tbl Format.std_formatter (sweep_queue_table ~n_pes:pe w))
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Latency and queue-capacity sweeps")
    Term.(const run $ n_arg $ iters_arg $ pe_arg $ workload_arg)

let main =
  Cmd.group
    (Cmd.info "ccdp" ~version:"1.0"
       ~doc:"Compiler-directed cache coherence with data prefetching (Lim & Yew, IPPS'97)")
    [
      list_cmd; analyze_cmd; run_cmd; table1_cmd; table2_cmd; ablate_cmd;
      sweep_cmd; parallelize_cmd; profile_cmd; emit_cmd; load_cmd; check_cmd;
      fuzz_cmd; perf_cmd;
    ]

let () = exit (Cmd.eval main)
