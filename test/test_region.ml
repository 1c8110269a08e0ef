open Ccdp_ir
open Ccdp_analysis
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let dist = Dist.block_along ~rank:2 ~dim:1

(* one DOALL epoch over columns reading A with the given subscript maker *)
let setup ?(n = 16) ?(n_pes = 4) ?(sched = Stmt.Static_block) mk =
  let p =
    two_epoch_program ~n ~dist ~init_sched:Stmt.Static_block ~read_sched:sched mk
  in
  let p = Program.inline p in
  let ep = Epoch.partition p.Program.main in
  let infos = Ref_info.collect ep in
  let region = Region.make p ~n_pes in
  (region, infos)

let read_info infos =
  List.find
    (fun (i : Ref_info.t) -> (not i.write) && i.ref_.Reference.array_name = "A")
    infos

let write_info infos =
  List.find
    (fun (i : Ref_info.t) -> i.write && i.ref_.Reference.array_name = "A")
    infos

let read_ij b ~i ~j = B.ref_ b "A" [ i; j ]

let read_jp1 b ~i ~j = B.ref_ b "A" [ i; Affine.add j Affine.one ]

let sections =
  [
    case "section_all covers the iteration space" (fun () ->
        let region, infos = setup read_ij in
        let s = Region.section_all region (read_info infos) in
        check_true "corner" (Section.mem s [| 0; 0 |]);
        check_true "far" (Section.mem s [| 15; 15 |]));
    case "section_pe restricts the parallel dimension" (fun () ->
        let region, infos = setup read_ij in
        let s = Region.section_pe region (read_info infos) ~pe:1 in
        check_true "own col" (Section.mem s [| 3; 4 |]);
        check_false "other col" (Section.mem s [| 3; 0 |]));
    case "shifted subscripts shift the per-PE section" (fun () ->
        let region, infos = setup read_jp1 in
        let s = Region.section_pe region (read_info infos) ~pe:0 in
        (* PE 0 runs j = 0..3, reads columns 1..4 *)
        check_true "col 4" (Section.mem s [| 0; 4 |]);
        check_false "col 0" (Section.mem s [| 0; 0 |]));
    case "serial epochs run on PE 0 only" (fun () ->
        let b = B.create ~name:"s" () in
        B.array_ b "A" [| 8; 8 |] ~dist;
        let p =
          B.finish b [ Stmt.Assign (B.ref_ b "A" [ B.A.c 0; B.A.c 5 ], F.const 1.0) ]
        in
        let ep = Epoch.partition p.Program.main in
        let infos = Ref_info.collect ep in
        let region = Region.make p ~n_pes:4 in
        let w = List.hd infos in
        check_false "pe1 empty"
          (Section.mem (Region.section_pe region w ~pe:1) [| 0; 5 |]);
        check_true "pe0 full"
          (Section.mem (Region.section_pe region w ~pe:0) [| 0; 5 |]));
    case "dynamic schedules widen every PE to the whole region" (fun () ->
        let region, infos = setup ~sched:(Stmt.Dynamic 2) read_ij in
        let s = Region.section_pe region (read_info infos) ~pe:3 in
        check_true "everything" (Section.mem s [| 0; 0 |]));
  ]

let alignment =
  [
    case "owner-computes read is aligned with the init write" (fun () ->
        let region, infos = setup read_ij in
        check_true "aligned"
          (Region.aligned region ~reader:(read_info infos) ~writer:(write_info infos)));
    case "halo read is not aligned" (fun () ->
        let region, infos = setup read_jp1 in
        check_false "misaligned"
          (Region.aligned region ~reader:(read_info infos) ~writer:(write_info infos)));
    case "cyclic reader against block writer is not aligned" (fun () ->
        let region, infos = setup ~sched:Stmt.Static_cyclic read_ij in
        check_false "misaligned"
          (Region.aligned region ~reader:(read_info infos) ~writer:(write_info infos)));
    case "dynamic reader is never aligned" (fun () ->
        let region, infos = setup ~sched:(Stmt.Dynamic 2) read_ij in
        check_false "misaligned"
          (Region.aligned region ~reader:(read_info infos) ~writer:(write_info infos)));
    case "all_local holds for owner-computes" (fun () ->
        let region, infos = setup read_ij in
        check_true "local" (Region.all_local region (read_info infos)));
    case "all_local fails for halo reads" (fun () ->
        let region, infos = setup read_jp1 in
        check_false "remote" (Region.all_local region (read_info infos)));
    case "single PE is always aligned" (fun () ->
        let region, infos = setup ~n_pes:1 read_jp1 in
        check_true "aligned"
          (Region.aligned region ~reader:(read_info infos) ~writer:(write_info infos)));
  ]

let must_sets =
  [
    case "dynamic schedules have empty must-sets" (fun () ->
        let region, infos = setup ~sched:(Stmt.Dynamic 2) read_ij in
        check_true "empty"
          (Section.is_empty (Region.section_pe_must region (read_info infos) ~pe:1)));
    case "static must-sets equal the may-sets for exact subscripts" (fun () ->
        let region, infos = setup read_ij in
        let i = read_info infos in
        check_true "equal"
          (Section.equal
             (Region.section_pe_must region i ~pe:1)
             (Region.section_pe region i ~pe:1)));
    case "coupled subscripts have empty must-sets" (fun () ->
        let region, infos =
          setup (fun b ~i ~j -> ignore j; B.ref_ b "A" [ i; i ])
        in
        let r = read_info infos in
        check_true "must empty"
          (Section.is_empty (Region.section_all_must region r));
        check_false "may nonempty"
          (Section.is_empty (Region.section_all region r)));
  ]

(* The per-PE queries visit only a reference's active PEs. Their oracle
   is the definition: every PE, each section built from its own schedule
   restriction, every PE pair for the cross-PE witness. *)
module Brute = struct
  let section region (i : Ref_info.t) ~pe =
    let env = Region.env_of region i and subs = i.ref_.Reference.subs in
    match i.par_loop with
    | None -> if pe = 0 then Section.of_subscripts subs env else Section.empty
    | Some par -> (
        match
          Iterspace.restrict_pe env par ~n_pes:(Region.n_pes region) ~pe
        with
        | None -> Section.empty
        | Some env' -> Section.of_subscripts subs env')

  let must region (i : Ref_info.t) ~pe =
    let exact env =
      Option.value ~default:Section.empty
        (Section.of_subscripts_exact i.ref_.Reference.subs env)
    in
    let env = Region.env_of region i in
    match i.par_loop with
    | None -> if pe = 0 then exact env else Section.empty
    | Some par -> (
        match
          Iterspace.restrict_pe_info env par ~n_pes:(Region.n_pes region) ~pe
        with
        | Iterspace.Idle | Iterspace.Widened _ -> Section.empty
        | Iterspace.Exact env' -> exact env')

  let pes region = List.init (Region.n_pes region) Fun.id

  let aligned_cluster region ~cluster_pes ~reader ~writer =
    String.equal reader.Ref_info.ref_.Reference.array_name
      writer.Ref_info.ref_.Reference.array_name
    &&
    let w_all = Region.section_all region writer in
    List.for_all
      (fun pe ->
        let touched = Section.inter (section region reader ~pe) w_all in
        Section.is_empty touched
        ||
        let lo = pe / cluster_pes * cluster_pes in
        List.exists
          (fun q ->
            q >= lo && q < lo + cluster_pes
            && Section.contains (must region writer ~pe:q) touched)
          (pes region))
      (pes region)

  let cross_pe region ~reader ~writer =
    List.exists
      (fun p ->
        List.exists
          (fun q ->
            q <> p
            && Section.overlaps (section region reader ~pe:p)
                 (section region writer ~pe:q))
          (pes region))
      (pes region)
end

let active_pe_oracle =
  let programs =
    List.map
      (fun (w : Ccdp_workloads.Workload.t) -> w.Ccdp_workloads.Workload.program)
      (Ccdp_workloads.Suite.all ~n:8 ~iters:1 ())
    @ List.init 12 (fun seed ->
          Ccdp_fuzz.Gen.build
            (Ccdp_fuzz.Gen.generate (Random.State.make [| seed; 0x5EC7 |])))
  in
  let agree n_pes program =
    let p = Program.inline program in
    let infos = Ref_info.collect (Epoch.partition p.Program.main) in
    let region = Region.make p ~n_pes in
    List.for_all
      (fun (i : Ref_info.t) ->
        let f, l = Region.active region i in
        List.for_all
          (fun pe ->
            Section.equal
              (Region.section_pe region i ~pe)
              (Brute.section region i ~pe)
            && Section.equal
                 (Region.section_pe_must region i ~pe)
                 (Brute.must region i ~pe)
            && (f <= pe && pe <= l
               || Section.is_empty (Brute.section region i ~pe)))
          (Brute.pes region))
      infos
    && List.for_all
         (fun (reader : Ref_info.t) ->
           List.for_all
             (fun (writer : Ref_info.t) ->
               (not writer.write)
               || Region.cross_pe region ~reader ~writer
                  = Brute.cross_pe region ~reader ~writer
                  && List.for_all
                       (fun cluster_pes ->
                         n_pes mod cluster_pes <> 0
                         || Region.aligned_cluster region ~cluster_pes ~reader
                              ~writer
                            = Brute.aligned_cluster region ~cluster_pes ~reader
                                ~writer)
                       [ 1; 2; 4 ])
             infos)
         (List.filter (fun (i : Ref_info.t) -> not i.write) infos)
  in
  List.map
    (fun n_pes ->
      case
        (Printf.sprintf
           "active-PE queries agree with every-PE definitions on %d PEs" n_pes)
        (fun () ->
          List.iteri
            (fun k program ->
              check_true (Printf.sprintf "program %d" k) (agree n_pes program))
            programs))
    [ 1; 3; 8; 16 ]

let () =
  Alcotest.run "region"
    [
      ("sections", sections);
      ("alignment", alignment);
      ("must-sets", must_sets);
      ("every-pe", active_pe_oracle);
    ]
