open Ccdp_ir
open Ccdp_machine
open Ccdp_runtime
open Ccdp_workloads
open Ccdp_analysis
open Ccdp_test_support.Tutil

let n = 16
let n_pes = 4
let suite = Suite.all ~n ~iters:2 ()

let compile (w : Workload.t) =
  Ccdp_core.Pipeline.compile (Config.t3d ~n_pes) w.program

let run_and_verify mode (w : Workload.t) =
  let cfg = Config.t3d ~n_pes in
  let r =
    match mode with
    | Memsys.Ccdp ->
        let c = compile w in
        Interp.run cfg c.Ccdp_core.Pipeline.program ~plan:c.Ccdp_core.Pipeline.plan
          ~mode ()
    | _ ->
        Interp.run cfg (Program.inline w.program) ~plan:(Annot.empty ()) ~mode ()
  in
  (r, Verify.against_sequential w.program ~init:(fun _ -> ()) r)

let structural =
  [
    case "every workload validates" (fun () ->
        List.iter
          (fun (w : Workload.t) ->
            Alcotest.(check (list string)) (w.name ^ " valid") []
              (Program.validate w.program))
          suite);
    case "find builds only the named workload, by any name the suite lists"
      (fun () ->
        List.iter
          (fun (w : Workload.t) ->
            Alcotest.(check string) "name" w.name
              (Suite.find ~n ~iters:2 w.name).name)
          suite;
        (* n=10 suits TOMCATV, though MXM's multiple-of-4 rule rejects it *)
        Alcotest.(check string) "tomcatv n=10" "tomcatv"
          (Suite.find ~n:10 "tomcatv").name;
        List.iter
          (fun (name, n) ->
            check_true (name ^ " raises")
              (try
                 ignore (Suite.find ~n name);
                 false
               with Invalid_argument _ -> true))
          [ ("nosuch", 16); ("mxm", 10) ]);
    case "the SPEC four are present with their signature arrays" (fun () ->
        let names (w : Workload.t) =
          List.map (fun (a : Array_decl.t) -> a.Array_decl.name) w.program.Program.arrays
        in
        check_int "7 vpenta arrays" 7 (List.length (names (Workload.find suite "vpenta")));
        check_int "14 swim arrays" 14 (List.length (names (Workload.find suite "swim")));
        check_int "7 tomcatv arrays" 7 (List.length (names (Workload.find suite "tomcatv")));
        check_int "3 mxm arrays" 3 (List.length (names (Workload.find suite "mxm"))));
    case "swim keeps its three procedures before inlining" (fun () ->
        let w = Workload.find suite "swim" in
        check_int "3 procs" 3 (List.length w.program.Program.procs));
    case "mxm insists on n divisible by 4" (fun () ->
        check_true "raises"
          (try ignore (Mxm.program ~n:10); false with Invalid_argument _ -> true));
  ]

let classification =
  [
    case "gauss: triangular bounds force conservative staleness" (fun () ->
        (* the DOALL's lower bound k+1 varies with the structure loop, so
           the per-PE restriction widens and even the owner-aligned reads
           classify stale — the paper's own conservative fallback *)
        let c = compile (Workload.find suite "gauss") in
        let st = c.Ccdp_core.Pipeline.stale in
        check_int "all stale" st.Stale.n_reads st.Stale.n_stale;
        let counts = Annot.count c.Ccdp_core.Pipeline.plan in
        check_true "prefetched" (counts.Annot.n_vector + counts.Annot.n_pipelined > 0));
    case "transpose: the gather is stale and vector-prefetched" (fun () ->
        let c = compile (Workload.find suite "transpose") in
        let counts = Annot.count c.Ccdp_core.Pipeline.plan in
        check_true "stale gather" (c.Ccdp_core.Pipeline.stale.Stale.n_stale > 0);
        check_true "vector op" (counts.Annot.n_vector > 0));
    case "vpenta is fully owner-aligned: zero stale references" (fun () ->
        let c = compile (Workload.find suite "vpenta") in
        check_int "stale" 0 c.Ccdp_core.Pipeline.stale.Stale.n_stale);
    case "triad is aligned too" (fun () ->
        let c = compile (Workload.find suite "triad") in
        check_int "stale" 0 c.Ccdp_core.Pipeline.stale.Stale.n_stale);
    case "mxm: exactly the four A references are stale, vector-prefetched" (fun () ->
        let c = compile (Workload.find suite "mxm") in
        check_int "stale" 4 c.Ccdp_core.Pipeline.stale.Stale.n_stale;
        let counts = Annot.count c.Ccdp_core.Pipeline.plan in
        check_int "4 leads" 4 counts.Annot.n_lead;
        check_int "all vector" 4 counts.Annot.n_vector);
    case "tomcatv mixes techniques" (fun () ->
        let c = compile (Workload.find suite "tomcatv") in
        let counts = Annot.count c.Ccdp_core.Pipeline.plan in
        check_true "stale refs" (c.Ccdp_core.Pipeline.stale.Stale.n_stale > 0);
        check_true "vector ops" (counts.Annot.n_vector > 0);
        check_true "covered members" (counts.Annot.n_covered > 0));
    case "swim stale set is the halo subset, not everything" (fun () ->
        let c = compile (Workload.find suite "swim") in
        let st = c.Ccdp_core.Pipeline.stale in
        check_true "some stale" (st.Stale.n_stale > 0);
        check_true "most reads clean" (st.Stale.n_stale * 2 < st.Stale.n_reads));
    case "dynamic workload schedules only moved-back prefetches" (fun () ->
        let c = compile (Workload.find suite "dynamic") in
        let counts = Annot.count c.Ccdp_core.Pipeline.plan in
        check_int "no vector" 0 counts.Annot.n_vector;
        check_int "no pipelined" 0 counts.Annot.n_pipelined;
        check_true "back ops exist" (counts.Annot.n_back > 0));
    case "opaque workload uses software pipelining" (fun () ->
        let c = compile (Workload.find suite "opaque") in
        let counts = Annot.count c.Ccdp_core.Pipeline.plan in
        check_true "pipelined" (counts.Annot.n_pipelined > 0);
        check_int "no vector" 0 counts.Annot.n_vector);
  ]

let correctness =
  List.concat_map
    (fun (w : Workload.t) ->
      [
        case (w.name ^ ": BASE verifies") (fun () ->
            let _, v = run_and_verify Memsys.Base w in
            check_true "ok" v.Verify.ok);
        case (w.name ^ ": CCDP verifies") (fun () ->
            let _, v = run_and_verify Memsys.Ccdp w in
            check_true "ok" v.Verify.ok);
        case (w.name ^ ": INVALIDATE verifies") (fun () ->
            let _, v = run_and_verify Memsys.Invalidate w in
            check_true "ok" v.Verify.ok);
      ])
    suite

let performance =
  [
    case "mxm: CCDP dramatically beats BASE" (fun () ->
        let b, _ = run_and_verify Memsys.Base (Workload.find suite "mxm") in
        let c, _ = run_and_verify Memsys.Ccdp (Workload.find suite "mxm") in
        check_true "at least 2x" (c.Interp.cycles * 2 < b.Interp.cycles));
    case "every workload: CCDP is at least as fast as BASE at 4 PEs" (fun () ->
        List.iter
          (fun (w : Workload.t) ->
            let b, _ = run_and_verify Memsys.Base w in
            let c, _ = run_and_verify Memsys.Ccdp w in
            check_true
              (w.name ^ " not slower than 1.05x BASE")
              (float_of_int c.Interp.cycles <= 1.05 *. float_of_int b.Interp.cycles))
          suite);
    case "vpenta CCDP issues no prefetches at all" (fun () ->
        let r, _ = run_and_verify Memsys.Ccdp (Workload.find suite "vpenta") in
        check_int "none" 0 (Stats.total_prefetches r.Interp.stats));
    case "the incoherent mode corrupts at least one kernel" (fun () ->
        let broken =
          List.exists
            (fun (w : Workload.t) ->
              let _, v = run_and_verify Memsys.Incoherent w in
              not v.Verify.ok)
            suite
        in
        check_true "coherence problem is real" broken);
  ]

let () =
  Alcotest.run "workloads"
    [
      ("structural", structural);
      ("classification", classification);
      ("correctness", correctness);
      ("performance", performance);
    ]
