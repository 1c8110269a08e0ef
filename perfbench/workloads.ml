(* The benchmark's four workloads.

   Each workload has a set-up step (building its programs or corpus, timed
   as [setup_s]) and a list of programs; one pass runs every program once.
   Every call into a layer goes through the helpers below, which wrap it in
   a {!Trace} span and fold what it did into a {!tally}. *)

open Ccdp_machine
open Ccdp_runtime
open Ccdp_workloads
module Pipeline = Ccdp_core.Pipeline
module Annot = Ccdp_analysis.Annot
module Schedule = Ccdp_analysis.Schedule
module Check = Ccdp_check.Check
module Driver = Ccdp_fuzz.Driver
module Gen = Ccdp_fuzz.Gen

(* What one pass did: the simulated side (exact, compared across passes)
   and the checks it made. *)
type tally = {
  mutable cycles : int;
  mutable accesses : int;  (** simulated reads + writes *)
  mutable stats : Stats.t;  (** merged over every simulated run *)
  mode_accesses : (string, int) Hashtbl.t;
  mutable runs : int;  (** simulated runs other than sequential references *)
  mutable oracle_checks : int;
  mutable stale_refs : int;
  mutable decisions : int;
  mutable diagnostics : int;
  mutable parse_bytes : int;
  mutable improvements : float list;  (** Table-2 improvement per kernel *)
  mutable attempted : int;
  mutable failures : string list;
}

let tally () =
  {
    cycles = 0;
    accesses = 0;
    stats = Stats.create ();
    mode_accesses = Hashtbl.create 8;
    runs = 0;
    oracle_checks = 0;
    stale_refs = 0;
    decisions = 0;
    diagnostics = 0;
    parse_bytes = 0;
    improvements = [];
    attempted = 0;
    failures = [];
  }

let fail t msg = t.failures <- msg :: t.failures

type program = { pname : string; run : tally -> unit }

type prepared = {
  programs : program list;
  replay : (tally -> unit) option;
      (** fuzz-corpus only: re-runs the corpus layer by layer outside the
          timed passes, for the simulated counters the campaign summary
          does not carry *)
}

(* Only fuzz-corpus draws its inputs from the seed; the kernel workloads
   run the paper's kernels, which carry their own fixed data. *)
type t = { name : string; setup : seed:int -> prepared }

(* Per-layer metric names use these mode tags. *)
let modes = [ "seq"; "base"; "ccdp"; "msi"; "mesi"; "dir"; "clu" ]
let tag mode = String.lowercase_ascii (Memsys.mode_name mode)
let empty = Annot.empty ()

(* ---- layer calls ---------------------------------------------------- *)

let simulate t ?(oracle = false) cfg program ~plan mode =
  let tag = tag mode in
  let r =
    Trace.span "interp.run" ~tag (fun () ->
        Interp.run cfg ~oracle program ~plan ~mode ())
  in
  if Trace.on () then begin
    (* Interp.run creates its memory system and lowers the plan inside the
       call; repeating both on the same inputs splits them out of it *)
    ignore
      (Trace.span "memsys.create" ~tag ~probe:true (fun () ->
           Memsys.create cfg ~oracle program ~plan mode));
    ignore
      (Trace.span "xplan.lower" ~tag ~probe:true (fun () ->
           Ccdp_analysis.Xplan.lower program
             (Ccdp_ir.Epoch.partition program.Ccdp_ir.Program.main)
             plan))
  end;
  let s = r.Interp.stats in
  let a = s.Stats.reads + s.Stats.writes in
  t.cycles <- t.cycles + r.Interp.cycles;
  t.accesses <- t.accesses + a;
  t.stats <- Stats.merge t.stats s;
  Hashtbl.replace t.mode_accesses tag
    (a + Option.value (Hashtbl.find_opt t.mode_accesses tag) ~default:0);
  if mode <> Memsys.Seq then t.runs <- t.runs + 1;
  if oracle then begin
    t.oracle_checks <- t.oracle_checks + Memsys.oracle_checked r.Interp.sys;
    let v = Memsys.oracle_violation_count r.Interp.sys in
    if v > 0 then fail t (Printf.sprintf "%s: %d staleness-oracle violations" tag v)
  end;
  r

(* Compare a run's shared arrays with its sequential reference. *)
let verify t ~what ~(seq : Interp.result) (r : Interp.result) program =
  t.attempted <- t.attempted + 1;
  let rep =
    Trace.span "verify.compare" (fun () ->
        Verify.compare_states ~expected:seq.Interp.sys ~got:r.Interp.sys
          program)
  in
  if not rep.Verify.ok then
    fail t
      (Printf.sprintf "%s: differs from the sequential run (max |diff| %g)"
         what rep.Verify.max_abs_diff)

let compile t ?tuning ?prefetch_clean ?cluster_coherent cfg program =
  let c =
    Trace.span "pipeline.compile" (fun () ->
        Pipeline.compile cfg ?tuning ?prefetch_clean ?cluster_coherent program)
  in
  t.stale_refs <- t.stale_refs + c.Pipeline.stale.Ccdp_analysis.Stale.n_stale;
  t.decisions <- t.decisions + List.length c.Pipeline.decisions;
  c

(* Certify an unmutated compile: any error-severity diagnostic is a
   failure. *)
let certify t ~what c =
  t.attempted <- t.attempted + 1;
  let diags = Trace.span "check.certify" (fun () -> Check.certify c) in
  t.diagnostics <- t.diagnostics + List.length diags;
  match Check.errors diags with
  | [] -> ()
  | errs ->
      fail t
        (Printf.sprintf "%s: certifier raised %d errors, first: %s" what
           (List.length errs)
           (Ccdp_check.Diag.to_string (List.hd errs)))

let seq_cfg = Config.t3d ~n_pes:1

(* ---- spec-ccdp: the paper's experiment ------------------------------ *)

let spec_ccdp ~seed:_ =
  let cfg = Config.t3d ~n_pes:16 in
  let program (w : Workload.t) =
    let inl = Ccdp_ir.Program.inline w.Workload.program in
    let c = Pipeline.compile cfg w.Workload.program in
    let run t =
      let seq = simulate t seq_cfg inl ~plan:empty Memsys.Seq in
      let base = simulate t cfg inl ~plan:empty Memsys.Base in
      verify t ~what:(w.Workload.name ^ "/BASE") ~seq base inl;
      let ccdp =
        simulate t cfg c.Pipeline.program ~plan:c.Pipeline.plan Memsys.Ccdp
      in
      verify t ~what:(w.Workload.name ^ "/CCDP") ~seq ccdp inl;
      t.improvements <-
        (100.0
        *. float_of_int (base.Interp.cycles - ccdp.Interp.cycles)
        /. float_of_int base.Interp.cycles)
        :: t.improvements
    in
    { pname = w.Workload.name; run }
  in
  {
    programs = List.map program (Suite.spec_four ~n:64 ~iters:2 ());
    replay = None;
  }

(* ---- rivals-xbar: the hardware-coherence protocols ------------------ *)

let rivals_xbar ~seed:_ =
  let xbar = Config.t3d_xbar ~n_pes:64 and cxl = Config.cxl_4x16 ~n_pes:64 in
  let program (w : Workload.t) =
    let inl = Ccdp_ir.Program.inline w.Workload.program in
    let c = Pipeline.compile cxl ~cluster_coherent:true w.Workload.program in
    let run t =
      let seq = simulate t seq_cfg inl ~plan:empty Memsys.Seq in
      let check mode r =
        verify t ~what:(w.Workload.name ^ "/" ^ Memsys.mode_name mode) ~seq r inl
      in
      List.iter
        (fun mode -> check mode (simulate t xbar inl ~plan:empty mode))
        Memsys.[ Msi; Mesi; Directory ];
      check Memsys.Clustered
        (simulate t cxl c.Pipeline.program ~plan:c.Pipeline.plan
           Memsys.Clustered)
    in
    { pname = w.Workload.name; run }
  in
  {
    programs = List.map program (Suite.spec_four ~n:48 ~iters:2 ());
    replay = None;
  }

(* ---- wide-setup: the `ccdp load` + `ccdp check` path at 1024 PEs ---- *)

let wide_setup ~seed:_ =
  let cfg = Config.t3d ~n_pes:1024 in
  let program (w : Workload.t) =
    let source = Pipeline.compile cfg w.Workload.program in
    let run t =
      let text =
        Trace.span "craft_emit" (fun () -> Ccdp_core.Craft_emit.to_string source)
      in
      t.parse_bytes <- t.parse_bytes + String.length text;
      let p = Trace.span "craft_parse" (fun () -> Ccdp_ir.Craft_parse.program text) in
      let c = compile t cfg p in
      certify t ~what:w.Workload.name c;
      let r = simulate t cfg c.Pipeline.program ~plan:c.Pipeline.plan Memsys.Ccdp in
      let seq = simulate t seq_cfg p ~plan:empty Memsys.Seq in
      verify t ~what:(w.Workload.name ^ "/CCDP") ~seq r c.Pipeline.program
    in
    { pname = w.Workload.name; run }
  in
  {
    programs = List.map program (Suite.all ~n:32 ~iters:1 ());
    replay = None;
  }

(* ---- fuzz-corpus: the differential soundness campaign --------------- *)

let corpus_size = 400

(* Program [i] of the corpus is the single program a campaign draws from
   its own seed: a campaign folds its programs in batches, so per-program
   check latency is only visible one campaign per program. *)
let program_seed ~seed i = (seed * 1_000_003) + i

(* The program a one-program campaign on seed [si] checks, drawn the way
   the campaign draws it. *)
let draw si = Gen.generate (Random.State.make [| si; 0x51ab |])

(* Mirrors Ccdp_fuzz.Driver's variant list, so the replay re-runs exactly
   what a campaign checks. The replay's run and oracle-check totals are
   compared with the campaign summaries; a drift shows as a failure. *)
let variants =
  let t = Schedule.default_tuning in
  Memsys.
    [
      ("BASE", Base, None);
      ("CCDP/all", Ccdp, Some t);
      ("CCDP/vpg", Ccdp, Some { t with Schedule.allow_sp = false; allow_mbp = false });
      ("CCDP/sp", Ccdp, Some { t with Schedule.allow_vpg = false; allow_mbp = false });
      ("CCDP/mbp", Ccdp, Some { t with Schedule.allow_vpg = false; allow_sp = false });
      ("MSI", Msi, None);
      ("MESI", Mesi, None);
      ("DIR", Directory, None);
      ("CLU", Clustered, Some t);
    ]

let replay_one t si (d : Gen.desc) program =
  let cfg = Config.of_kind d.Gen.net ~n_pes:d.Gen.n_pes in
  let what v = Printf.sprintf "fuzz program seed %d %s" si v in
  let seq =
    simulate t { cfg with Config.n_pes = 1; cluster_pes = 1 } program ~plan:empty
      Memsys.Seq
  in
  List.iter
    (fun (vname, mode, tuning) ->
      let r =
        match tuning with
        | None -> simulate t ~oracle:true cfg program ~plan:empty mode
        | Some tuning ->
            let cfg, cluster_coherent =
              if mode = Memsys.Clustered then
                let n = cfg.Config.n_pes in
                ( {
                    cfg with
                    Config.cluster_pes = (if n > 1 && n mod 2 = 0 then n / 2 else 1);
                  },
                  true )
              else (cfg, false)
            in
            let c =
              compile t ~tuning ~prefetch_clean:d.Gen.pclean ~cluster_coherent
                cfg program
            in
            let go oracle () =
              Interp.run cfg ~oracle c.Pipeline.program ~plan:c.Pipeline.plan
                ~mode ()
            in
            if vname = "CCDP/all" && Trace.on () then begin
              (* the oracle's host cost: the same run with it on and off *)
              ignore (Trace.span "oracle.on" ~probe:true (go true));
              ignore (Trace.span "oracle.off" ~probe:true (go false))
            end;
            simulate t ~oracle:true cfg c.Pipeline.program ~plan:c.Pipeline.plan
              mode
      in
      verify t ~what:(what vname) ~seq r program)
    variants;
  certify t ~what:(what "static")
    (compile t ~prefetch_clean:d.Gen.pclean cfg program)

let fuzz_corpus ~seed =
  let corpus =
    List.init corpus_size (fun i ->
        let si = program_seed ~seed i in
        let d = draw si in
        (si, d, Gen.build d))
  in
  let program (si, _, _) =
    let run t =
      if Trace.on () then begin
        (* the campaign's two steps, timed apart *)
        let d = Trace.span "fuzz.generate" (fun () -> draw si) in
        t.attempted <- t.attempted + 1;
        match Trace.span "fuzz.check_desc" (fun () -> Driver.check_desc d) with
        | None -> ()
        | Some (v, _, detail) ->
            fail t (Printf.sprintf "fuzz program seed %d %s: %s" si v detail)
      end
      else begin
        let s = Driver.campaign ~jobs:1 ~seed:si ~count:1 () in
        t.attempted <- t.attempted + 1;
        t.runs <- t.runs + s.Driver.s_runs;
        t.oracle_checks <- t.oracle_checks + s.Driver.s_oracle_checks;
        if s.Driver.s_failures <> [] || s.Driver.s_static_escapes > 0 then
          fail t
            (Format.asprintf "fuzz program seed %d: %a" si Driver.pp_summary s)
      end
    in
    { pname = string_of_int si; run }
  in
  let replay t =
    List.iter
      (fun (si, d, p) ->
        Trace.span "replay.program" ~tag:(string_of_int si) (fun () ->
            replay_one t si d p))
      corpus
  in
  { programs = List.map program corpus; replay = Some replay }

let all =
  [
    { name = "spec-ccdp"; setup = spec_ccdp };
    { name = "rivals-xbar"; setup = rivals_xbar };
    { name = "wide-setup"; setup = wide_setup };
    { name = "fuzz-corpus"; setup = fuzz_corpus };
  ]
