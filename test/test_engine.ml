(* Engine equivalence: the compiled-plan interpreter (Interp) against the
   reference tree-walker (Interp_ref).

   Interp_ref is the pre-refactor engine kept verbatim as the executable
   specification of the timed semantics; the compiled-plan engine must
   reproduce it cycle-for-cycle. Checked here on a fixed-seed fuzz corpus
   and on the paper's four workloads, across every coherence mode:
   cycles, access statistics, per-PE clocks, epoch count and profile, and
   the final shared-memory image must all be identical (tolerance 0).

   The point of the compiled plans is the hot path allocating no
   per-iteration environments or register-memo hashtables, so the last
   group is a Gc regression gate: the compiled engine must stay under
   half the reference engine's minor-heap words on MXM/CCDP (it measures
   ~1/3; the pre-refactor ratio was 1), and under a fixed number of minor
   words per simulated access on MXM and TOMCATV, in CCDP and BASE. *)

open Ccdp_test_support.Tutil
module Memsys = Ccdp_runtime.Memsys
module Interp = Ccdp_runtime.Interp
module Interp_ref = Ccdp_runtime.Interp_ref
module Gen = Ccdp_fuzz.Gen
module Workload = Ccdp_workloads.Workload
module Experiment = Ccdp_core.Experiment

let modes =
  Memsys.
    [
      Seq; Base; Ccdp; Invalidate; Incoherent; Hscd; Msi; Mesi; Directory;
      Clustered;
    ]

(* one shared 4-worker pool for the sharded re-runs below; created once
   around the whole suite (see the bottom of the file) because domain
   spawn/join per case would dominate the test's runtime *)
let shard_pool : Ccdp_exec.Pool.t option ref = ref None

let assert_equal_runs ?machine name program ~n_pes mode =
  let cfg, prog, plan = Experiment.setup ?machine ~n_pes mode program in
  let a = Interp.run cfg prog ~plan ~mode () in
  let b = Interp_ref.run cfg prog ~plan ~mode () in
  let against tagp (r : Interp.result) =
    let tag s = name ^ "/" ^ Memsys.mode_name mode ^ tagp ^ ": " ^ s in
    check_int (tag "cycles") b.Interp_ref.cycles r.Interp.cycles;
    check_true (tag "stats") (b.Interp_ref.stats = r.Interp.stats);
    check_true (tag "per-PE clocks")
      (b.Interp_ref.per_pe_cycles = r.Interp.per_pe_cycles);
    check_int (tag "epochs") b.Interp_ref.epochs r.Interp.epochs;
    check_true (tag "epoch profile")
      (b.Interp_ref.epoch_profile = r.Interp.epoch_profile);
    let mem =
      Ccdp_runtime.Verify.compare_states ~expected:b.Interp_ref.sys
        ~got:r.Interp.sys prog
    in
    check_true (tag "memory image") mem.Ccdp_runtime.Verify.ok
  in
  against "" a;
  (* the sharded run (jobs=4) must reproduce the serial reference too —
     including the modes/machines where Memsys.shardable says no and the
     run falls back to the serial walk *)
  match !shard_pool with
  | None -> ()
  | Some pool -> against "[sharded]" (Interp.run cfg ~pool prog ~plan ~mode ())

(* fixed seed: the corpus (and so the test) is deterministic *)
let fuzz_corpus =
  let st = Random.State.make [| 0xC0FFEE |] in
  List.init 12 (fun i -> (i, Gen.generate st))

let fuzz_cases =
  List.map
    (fun (i, (d : Gen.desc)) ->
      case
        (Printf.sprintf "fuzz #%d agrees in every mode" i)
        (fun () ->
          let program = Gen.build d in
          (* the desc's own interconnect: the corpus exercises the Net
             dispatch on both engines, not just the uniform machine *)
          let machine = Ccdp_machine.Config.of_kind d.Gen.net in
          List.iter
            (fun mode ->
              assert_equal_runs ~machine
                (Printf.sprintf "fuzz%d" i)
                program ~n_pes:d.Gen.n_pes mode)
            modes))
    fuzz_corpus

let workload_cases =
  List.map
    (fun (w : Workload.t) ->
      case (w.Workload.name ^ " agrees in every mode") (fun () ->
          List.iter
            (fun mode ->
              assert_equal_runs w.Workload.name w.Workload.program ~n_pes:4
                mode)
            modes))
    (Ccdp_workloads.Suite.spec_four ~n:16 ~iters:1 ()
    @ [ Ccdp_workloads.Extras.gauss ~n:16 ])

(* cycle-identity on every interconnect: both engines route through the
   same Net instance state (including the crossbar's shared-port
   contention bookings), so TOMCATV must agree mode-for-mode on all four
   machine presets *)
let machine_cases =
  List.map
    (fun (mname, machine) ->
      case ("tomcatv agrees in every mode on " ^ mname) (fun () ->
          let w = Ccdp_workloads.Tomcatv.workload ~n:16 ~iters:1 in
          List.iter
            (fun mode ->
              assert_equal_runs ~machine
                (w.Workload.name ^ "@" ^ mname)
                w.Workload.program ~n_pes:4 mode)
            modes))
    Experiment.machine_presets

(* the coherence-cluster machines: at 8 PEs cxl-2x32 gives real islands
   of 4, cxl-4x16 islands of 2, and cxl-8x8 degrades to the flat
   crossbar — Clustered (and every flat mode riding the cheap local
   fabric) must stay cycle-identical across both engines and under the
   sharded run's serial fallback on all three *)
let cluster_machine_cases =
  List.map
    (fun (mname, machine) ->
      case ("tomcatv agrees in every mode on " ^ mname) (fun () ->
          let w = Ccdp_workloads.Tomcatv.workload ~n:16 ~iters:1 in
          List.iter
            (fun mode ->
              assert_equal_runs ~machine
                (w.Workload.name ^ "@" ^ mname)
                w.Workload.program ~n_pes:8 mode)
            modes))
    Experiment.cluster_presets

(* pinned intra-epoch synchronization programs: the cycle-costed lock
   (PE-major arbitration; the sharded engine falls back to the serial
   walk, which must still match) and the recognized-reduction barrier
   merge must agree engine-for-engine in every mode *)
let sync_cases =
  let mk name ~wrap epochs =
    case (name ^ " agrees in every mode") (fun () ->
        let d =
          {
            Gen.n = 8;
            dist_dim = 0;
            n_pes = 4;
            net = Ccdp_machine.Net.Uniform;
            pclean = false;
            epochs;
            wrap;
          }
        in
        (match Gen.validate d with
        | Ok () -> ()
        | Error m -> Alcotest.fail ("invalid sync desc: " ^ m));
        let program = Gen.build d in
        List.iter
          (fun mode -> assert_equal_runs name program ~n_pes:d.Gen.n_pes mode)
          modes)
  in
  [
    mk "locked accumulation (block)" ~wrap:false
      [
        Gen.Lock
          { sched = Gen.Block; src = 0; dst = 1; col = 0; col2 = 1; fused = false };
      ];
    mk "locked accumulation (cyclic, fused, wrapped)" ~wrap:true
      [
        Gen.Lock
          { sched = Gen.Cyclic; src = 2; dst = 0; col = 1; col2 = 2; fused = true };
      ];
    mk "recognized reductions (add then max)" ~wrap:false
      [
        Gen.Red { sched = Gen.Block; op = Gen.Radd; src = 0; dst = 1; seed = true };
        Gen.Red { sched = Gen.Cyclic; op = Gen.Rmax; src = 1; dst = 2; seed = false };
      ];
    mk "lock feeding a reduction (wrapped)" ~wrap:true
      [
        Gen.Lock
          { sched = Gen.Block; src = 0; dst = 1; col = 0; col2 = 0; fused = false };
        Gen.Red { sched = Gen.Block; op = Gen.Rmin; src = 1; dst = 2; seed = true };
      ];
  ]

(* A right-nested expression 48 operators deep: every level keeps its left
   operand on the float stack while the right one is evaluated above it, so
   the compiled engine's stack grows to the full depth. Every operator
   appears, Min/Max and the unary ones included; divisors stay >= 1. *)
let deep_program () =
  let module B = Ccdp_ir.Builder in
  let open B.A in
  let b = B.create ~name:"deep" () in
  let dist = Ccdp_ir.Dist.block_along ~rank:2 ~dim:1 in
  B.array_ b "A" [| 16; 16 |] ~dist;
  B.array_ b "B" [| 16; 16 |] ~dist;
  let at = [ v "i"; v "j" ] in
  let rec deep k =
    if k = 0 then B.rd b "A" at
    else
      let leaf =
        match k mod 3 with
        | 0 -> B.rd b "A" at
        | 1 -> B.F.iv "i"
        | _ -> B.F.const (0.5 +. (0.125 *. float_of_int k))
      in
      let e = deep (k - 1) in
      let open B.F in
      match k mod 9 with
      | 0 -> leaf + e
      | 1 -> leaf - e
      | 2 -> leaf * neg e
      | 3 -> leaf / (const 1.0 + abs_ e)
      | 4 -> min_ leaf e
      | 5 -> max_ leaf e
      | 6 -> leaf + sqrt_ (abs_ e)
      | 7 -> leaf - (e * const 0.5)
      | _ -> leaf * (const 1.0 / (const 1.0 + abs_ e))
  in
  B.finish b
    [
      B.doall b "j" (bc 0) (bc 15)
        [
          B.for_ b "i" (bc 0) (bc 15)
            [
              B.assign b "A" at
                B.F.((iv "i" * const 0.25) - (iv "j" * const 0.75));
            ];
        ];
      B.doall b "j" (bc 0) (bc 15)
        [ B.for_ b "i" (bc 0) (bc 15) [ B.assign b "B" at (deep 48) ] ];
    ]

let stack_depth program =
  let p = Ccdp_ir.Program.inline program in
  let ep = Ccdp_ir.Epoch.partition p.Ccdp_ir.Program.main in
  (Ccdp_analysis.Xplan.lower p ep (Ccdp_analysis.Annot.empty ()))
    .Ccdp_analysis.Xplan.stack_depth

let deep_cases =
  [
    case "an expression deeper than any SPEC kernel agrees in every mode"
      (fun () ->
        let program = deep_program () in
        let spec =
          List.fold_left
            (fun acc (w : Workload.t) -> max acc (stack_depth w.Workload.program))
            0
            (Ccdp_workloads.Suite.spec_four ~n:16 ~iters:1 ())
        in
        check_true
          (Printf.sprintf "stack depth %d > SPEC's %d" (stack_depth program)
             spec)
          (stack_depth program > spec);
        List.iter
          (fun mode -> assert_equal_runs "deep" program ~n_pes:4 mode)
          modes;
        (* and bit for bit, signed zeros included *)
        let cfg, prog, plan = Experiment.setup ~n_pes:4 Memsys.Ccdp program in
        let a = Interp.run cfg prog ~plan ~mode:Memsys.Ccdp () in
        let b = Interp_ref.run cfg prog ~plan ~mode:Memsys.Ccdp () in
        for i = 0 to 15 do
          for j = 0 to 15 do
            let x = Memsys.get a.Interp.sys "B" [| i; j |]
            and y = Memsys.get b.Interp_ref.sys "B" [| i; j |] in
            check_true "finite" (Float.is_finite x);
            check_true
              (Printf.sprintf "B(%d,%d) bits" i j)
              (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          done
        done);
  ]

(* minor-heap words of one run of [f], after one warm-up run *)
let minor_words_of f =
  ignore (f ());
  let m0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. m0

let alloc_cases =
  [
    case "compiled engine allocates < 50% of the reference (MXM/ccdp)"
      (fun () ->
        let w = Ccdp_workloads.Mxm.workload ~n:32 in
        let cfg, prog, plan =
          Experiment.setup ~n_pes:8 Memsys.Ccdp w.Workload.program
        in
        let plan_mw =
          minor_words_of (fun () ->
              Interp.run cfg prog ~plan ~mode:Memsys.Ccdp ())
        in
        let ref_mw =
          minor_words_of (fun () ->
              Interp_ref.run cfg prog ~plan ~mode:Memsys.Ccdp ())
        in
        check_true
          (Printf.sprintf "plan %.0f words < 0.5 * ref %.0f words" plan_mw
             ref_mw)
          (plan_mw < 0.5 *. ref_mw));
  ]
  (* Absolute gate on the steady-state hot path: minor words per simulated
     access (reads + writes) of one warm compiled-plan run, 8 PEs.
     Measured with the hashtable/list staging structures: MXM 25.34,
     TOMCATV 43.49 (CCDP). With the flat int staging structures: MXM 10.16,
     TOMCATV 15.77 (CCDP). With the compiled address kernels and unboxed
     float evaluation: CCDP MXM 0.47, TOMCATV 4.30; BASE MXM 0.23,
     TOMCATV 3.27 — what is left is mostly per-run set-up. The bounds are
     the latter plus 25%. *)
  @ List.map
      (fun (name, w, mode, bound) ->
        case
          (Printf.sprintf "%s/%s minor words per access <= %.2f" name
             (String.lowercase_ascii (Memsys.mode_name mode))
             bound)
          (fun () ->
            let cfg, prog, plan =
              Experiment.setup ~n_pes:8 mode w.Workload.program
            in
            let run () = Interp.run cfg prog ~plan ~mode () in
            let r = run () in
            let accesses =
              r.Interp.stats.Ccdp_machine.Stats.reads
              + r.Interp.stats.Ccdp_machine.Stats.writes
            in
            let per = minor_words_of run /. float_of_int accesses in
            check_true
              (Printf.sprintf "%.2f words/access <= %.2f" per bound)
              (per <= bound)))
      [
        ("MXM", Ccdp_workloads.Mxm.workload ~n:32, Memsys.Ccdp, 0.59);
        ( "TOMCATV",
          Ccdp_workloads.Tomcatv.workload ~n:16 ~iters:1,
          Memsys.Ccdp,
          5.38 );
        ("MXM", Ccdp_workloads.Mxm.workload ~n:32, Memsys.Base, 0.29);
        ( "TOMCATV",
          Ccdp_workloads.Tomcatv.workload ~n:16 ~iters:1,
          Memsys.Base,
          4.08 );
      ]

(* Words allocated by one call of [f] after one warm-up call, on either
   heap: [Gc.allocated_bytes] also counts the large arrays that go
   straight to the major heap, which [Gc.minor_words] misses. *)
let allocated_words_of f =
  ignore (f ());
  let b0 = Gc.allocated_bytes () in
  ignore (f ());
  (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)

(* Width gates: with the work fixed (TOMCATV n=32), an idle PE must cost
   O(1). With every PE built eagerly and every PE visited by the
   analyses, [Memsys.create] at 4096 PEs allocated 19.4M words against a
   bound of 5.6M, and compile + certify allocated 105.4M words, 133x
   their 16-PE 0.79M. Built on first activation and visited only when
   active: 5.2M words, and 0.40M against 0.26M (1.5x). The bound on
   [Memsys.create] is its three per-word arrays (memory, the barrier
   shadow and the write stamps) plus a light record per PE. *)
let width_cases =
  let w = Ccdp_workloads.Tomcatv.workload ~n:32 ~iters:1 in
  let setup n_pes = Experiment.setup ~n_pes Memsys.Ccdp w.Workload.program in
  let analyse n_pes () =
    let cfg = Ccdp_machine.Config.t3d ~n_pes in
    Ccdp_check.Check.certify (Ccdp_core.Pipeline.compile cfg w.Workload.program)
  in
  [
    case "TOMCATV Memsys.create at 4096 PEs allocates O(words + PEs)"
      (fun () ->
        let n_pes = 4096 in
        let cfg, prog, plan = setup n_pes in
        let create () = Memsys.create cfg prog ~plan Memsys.Ccdp in
        let total = Ccdp_runtime.Addr_map.total_words (Memsys.map (create ())) in
        let bound = float_of_int ((3 * total) + (128 * n_pes)) in
        let got = allocated_words_of create in
        check_true
          (Printf.sprintf "%.0f words <= %.0f" got bound)
          (got <= bound));
    case "TOMCATV compile + certify at 4096 PEs allocate <= 4x 16 PEs"
      (fun () ->
        let narrow = allocated_words_of (analyse 16) in
        let wide = allocated_words_of (analyse 4096) in
        check_true
          (Printf.sprintf "%.0f words <= 4 * %.0f" wide narrow)
          (wide <= 4.0 *. narrow));
  ]

(* A run hands back its memory system finished: the last barrier has
   settled the barrier shadow and the write stamps, so the result keeps
   one image of memory instead of three, and executes no further
   accesses. Unfinished, the three per-word arrays alone were 3x the
   address map (TOMCATV n=64 on 16 PEs: 0.46M words kept in all, against
   3 x 108,544); finished, the whole system is 0.24M words. *)
let finish_cases =
  [
    case "a finished TOMCATV run keeps one image of memory" (fun () ->
        let w = Ccdp_workloads.Tomcatv.workload ~n:64 ~iters:1 in
        let cfg, prog, plan =
          Experiment.setup ~n_pes:16 Memsys.Ccdp w.Workload.program
        in
        let sys = (Interp.run cfg prog ~plan ~mode:Memsys.Ccdp ()).Interp.sys in
        let total = Ccdp_runtime.Addr_map.total_words (Memsys.map sys) in
        let kept = Obj.reachable_words (Obj.repr sys) in
        check_true
          (Printf.sprintf "%d words < 3 * %d" kept total)
          (kept < 3 * total);
        check_true "a finished system executes no access"
          (match Memsys.activate sys ~pe:0 with
          | () -> false
          | exception Invalid_argument _ -> true));
  ]

let () =
  Ccdp_exec.Pool.with_pool ~jobs:4 (fun pool ->
      shard_pool := Some pool;
      Alcotest.run "engine"
        [
          ("fuzz corpus", fuzz_cases);
          ("workloads", workload_cases);
          ("synchronization", sync_cases);
          ("deep expressions", deep_cases);
          ("machines", machine_cases);
          ("cluster machines", cluster_machine_cases);
          ("allocation", alloc_cases);
          ("machine width", width_cases);
          ("finished runs", finish_cases);
        ])
