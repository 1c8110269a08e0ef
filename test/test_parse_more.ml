(* Additional front-end coverage: idempotence of emit after a round trip,
   and the text-authored example workload. *)
open Ccdp_ir
open Ccdp_test_support.Tutil

let tests =
  [
    case "emit is a fixed point after one round trip" (fun () ->
        let w =
          Ccdp_workloads.Workload.find
            (Ccdp_workloads.Suite.all ~n:16 ~iters:1 ())
            "jacobi"
        in
        let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
        let c1 = Ccdp_core.Pipeline.compile cfg w.Ccdp_workloads.Workload.program in
        let t1 = Ccdp_core.Craft_emit.to_string c1 in
        let c2 = Ccdp_core.Pipeline.compile cfg (Craft_parse.program t1) in
        let t2 = Ccdp_core.Craft_emit.to_string c2 in
        let c3 = Ccdp_core.Pipeline.compile cfg (Craft_parse.program t2) in
        let t3 = Ccdp_core.Craft_emit.to_string c3 in
        Alcotest.(check string) "stable" t2 t3);
    case "the shipped heat2d.craft example parses, runs and verifies" (fun () ->
        let path =
          List.find Sys.file_exists
            [
              "../examples/heat2d.craft";
              "../../examples/heat2d.craft";
              "../../../examples/heat2d.craft";
              "examples/heat2d.craft";
            ]
        in
        let p = Craft_parse.file path in
        Alcotest.(check (list string)) "valid" [] (Program.validate p);
        let cfg = Ccdp_machine.Config.t3d ~n_pes:8 in
        let c = Ccdp_core.Pipeline.compile cfg p in
        (* the runtime-bounded cooling loop must have used SP *)
        let counts = Ccdp_analysis.Annot.count c.Ccdp_core.Pipeline.plan in
        check_true "pipelined" (counts.Ccdp_analysis.Annot.n_pipelined > 0);
        let r =
          Ccdp_runtime.Interp.run cfg c.Ccdp_core.Pipeline.program
            ~plan:c.Ccdp_core.Pipeline.plan ~mode:Ccdp_runtime.Memsys.Ccdp ()
        in
        let v = Ccdp_runtime.Verify.against_sequential p ~init:(fun _ -> ()) r in
        check_true "verified" v.Ccdp_runtime.Verify.ok);
    case "integer literals in float context become constants" (fun () ->
        let src =
          "      PROGRAM X\n      REAL*8 A(4)\nCDIR$ SHARED A(:BLOCK)\n\
          \      DO I = 0, 3\n      A(i) = (4*2 + 1)\n      ENDDO\n      END\n"
        in
        let p = Craft_parse.program src in
        let cfg = Ccdp_machine.Config.t3d ~n_pes:2 in
        let r =
          Ccdp_runtime.Interp.run cfg (Program.inline p)
            ~plan:(Ccdp_analysis.Annot.empty ()) ~mode:Ccdp_runtime.Memsys.Seq ()
        in
        check_float "value" 9.0 (Ccdp_runtime.Memsys.get r.Ccdp_runtime.Interp.sys "A" [| 2 |]));
    case "negative parameter values parse" (fun () ->
        let src = "      PROGRAM X\n      PARAMETER (OFF = -3)\n      END\n" in
        check_int "off" (-3) (Program.param (Craft_parse.program src) "off"));
    case "1-D block distribution syntax" (fun () ->
        let src =
          "      PROGRAM X\n      REAL*8 A(8)\nCDIR$ SHARED A(:BLOCK)\n      END\n"
        in
        let p = Craft_parse.program src in
        let a = Program.find_array p "A" in
        check_true "block dim0" (Dist.distributed_dim a.Array_decl.dist = Some 0));
    case "an out-of-bounds subscript is an error located at the reference"
      (fun () ->
        (* U(I + 8, J) on a column-block U(8, 8): parallel and sequential
           runs alike reject it, at line 19 column 21 of the fixture *)
        let p = Craft_parse.file "oob_subscript.craft" in
        let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
        let c = Ccdp_core.Pipeline.compile cfg p in
        List.iter
          (fun (mode, plan) ->
            match
              Ccdp_runtime.Interp.run cfg c.Ccdp_core.Pipeline.program ~plan
                ~mode ()
            with
            | _ -> Alcotest.fail "the out-of-bounds read executed"
            | exception Ccdp_runtime.Addr_map.Out_of_bounds { loc; msg } ->
                check_true "located" (loc = Loc.src ~line:19 ~col:21);
                Alcotest.(check string)
                  "message" "U: index 8 out of bounds 0..7 in dim 0" msg)
          [
            (Ccdp_runtime.Memsys.Ccdp, c.Ccdp_core.Pipeline.plan);
            (Ccdp_runtime.Memsys.Seq, Ccdp_analysis.Annot.empty ());
          ]);
  ]

let () = Alcotest.run "craft-parse-more" [ ("front-end", tests) ]
