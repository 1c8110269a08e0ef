open Ccdp_ir
open Ccdp_craft
open Ccdp_test_support.Tutil

let block_cols n p = Layout.make ~n_pes:p (Array_decl.make "A" [| n; n |] ~dist:(Dist.block_along ~rank:2 ~dim:1))
let cyclic_cols n p = Layout.make ~n_pes:p (Array_decl.make "A" [| n; n |] ~dist:(Dist.cyclic_along ~rank:2 ~dim:1))

(* The element-level mapping is evaluated only by Addr_map's compiled
   kernel; these helpers observe it for one layout through a program
   holding just that array (one-word lines: its base is word 0). *)
let map_of (l : Layout.t) =
  let decl = l.Layout.decl in
  let p =
    {
      Program.name = "layout";
      arrays = [ decl ];
      procs = [];
      main = [];
      params = [];
    }
  in
  (Ccdp_runtime.Addr_map.make p ~n_pes:l.Layout.n_pes ~line_words:1 (), decl.Array_decl.name)

let owner l idx =
  let m, name = map_of l in
  if l.Layout.decl.Array_decl.dist = Dist.Replicated then `Local
  else `Pe (Ccdp_runtime.Addr_map.canonical m name idx / Ccdp_runtime.Addr_map.pe_span m)

let local_offset l idx =
  let m, name = map_of l in
  Ccdp_runtime.Addr_map.canonical m name idx mod Ccdp_runtime.Addr_map.pe_span m

let owners =
  [
    case "block: columns map to contiguous owners" (fun () ->
        let l = block_cols 8 4 in
        check_true "col0" (owner l [| 0; 0 |] = `Pe 0);
        check_true "col1" (owner l [| 5; 1 |] = `Pe 0);
        check_true "col2" (owner l [| 0; 2 |] = `Pe 1);
        check_true "col7" (owner l [| 0; 7 |] = `Pe 3));
    case "cyclic: columns deal round-robin" (fun () ->
        let l = cyclic_cols 8 4 in
        check_true "col0" (owner l [| 0; 0 |] = `Pe 0);
        check_true "col5" (owner l [| 0; 5 |] = `Pe 1);
        check_true "col7" (owner l [| 0; 7 |] = `Pe 3));
    case "replicated arrays are local everywhere" (fun () ->
        let l = Layout.make ~n_pes:4 (Array_decl.make "R" [| 4 |] ~dist:Dist.replicated) in
        check_true "local" (owner l [| 2 |] = `Local));
    case "undistributed shared array lives on PE 0" (fun () ->
        let l = Layout.make ~n_pes:4 (Array_decl.make "S" [| 4 |]
          ~dist:(Dist.Dims [| Dist.Degenerate |])) in
        check_true "pe0" (owner l [| 3 |] = `Pe 0));
    case "block_cyclic interleaves blocks" (fun () ->
        let l =
          Layout.make ~n_pes:2
            (Array_decl.make "A" [| 2; 8 |] ~dist:(Dist.Dims [| Dist.Degenerate; Dist.Block_cyclic 2 |]))
        in
        check_true "cols 0-1 pe0" (owner l [| 0; 1 |] = `Pe 0);
        check_true "cols 2-3 pe1" (owner l [| 0; 2 |] = `Pe 1);
        check_true "cols 4-5 pe0" (owner l [| 0; 4 |] = `Pe 0));
  ]

let offsets =
  [
    case "per-PE words: block columns" (fun () ->
        let l = block_cols 8 4 in
        check_int "2 cols x 8" 16 l.Layout.per_pe_words);
    case "local offsets are column-major within the portion" (fun () ->
        let l = block_cols 8 4 in
        (* PE 1 holds columns 2,3: element (0,2) is its word 0; (1,2) word 1;
           (0,3) word 8 *)
        check_int "0,2" 0 (local_offset l [| 0; 2 |]);
        check_int "1,2" 1 (local_offset l [| 1; 2 |]);
        check_int "0,3" 8 (local_offset l [| 0; 3 |]));
    case "cyclic local offsets compress the stride" (fun () ->
        let l = cyclic_cols 8 4 in
        (* PE 0 holds columns 0 and 4: (0,4) is word 8 *)
        check_int "0,0" 0 (local_offset l [| 0; 0 |]);
        check_int "0,4" 8 (local_offset l [| 0; 4 |]));
    case "offsets stay within the per-PE extent" (fun () ->
        let l = block_cols 8 4 in
        for i = 0 to 7 do
          for j = 0 to 7 do
            let off = local_offset l [| i; j |] in
            check_true "in range" (off >= 0 && off < l.Layout.per_pe_words)
          done
        done);
  ]

let owned =
  [
    case "owned_section of block columns" (fun () ->
        let l = block_cols 8 4 in
        let s = Layout.owned_section l 1 in
        check_true "owns (0,2)" (Section.mem s [| 0; 2 |]);
        check_true "owns (7,3)" (Section.mem s [| 7; 3 |]);
        check_false "not (0,4)" (Section.mem s [| 0; 4 |]));
    case "owned_section of cyclic columns is strided" (fun () ->
        let l = cyclic_cols 8 4 in
        let s = Layout.owned_section l 1 in
        check_true "col1" (Section.mem s [| 0; 1 |]);
        check_true "col5" (Section.mem s [| 0; 5 |]);
        check_false "col2" (Section.mem s [| 0; 2 |]));
    case "PE beyond the data owns nothing (block)" (fun () ->
        let l = block_cols 4 8 in
        check_true "empty" (Section.is_empty (Layout.owned_section l 7)));
    case "replicated owned section is whole" (fun () ->
        let l = Layout.make ~n_pes:4 (Array_decl.make "R" [| 4 |] ~dist:Dist.replicated) in
        check_true "whole" (Layout.owned_section l 2 = Section.whole));
  ]

let props =
  [
    qcheck "owner matches owned_section membership (block)"
      QCheck.(pair (int_range 0 7) (int_range 0 7))
      (fun (i, j) ->
        let l = block_cols 8 4 in
        match owner l [| i; j |] with
        | `Pe p -> Section.mem (Layout.owned_section l p) [| i; j |]
        | `Local -> false);
    qcheck "owner matches owned_section membership (cyclic)"
      QCheck.(pair (int_range 0 7) (int_range 0 7))
      (fun (i, j) ->
        let l = cyclic_cols 8 4 in
        match owner l [| i; j |] with
        | `Pe p -> Section.mem (Layout.owned_section l p) [| i; j |]
        | `Local -> false);
    qcheck "local_offset is injective per PE (block)"
      QCheck.(pair (pair (int_range 0 7) (int_range 0 7)) (pair (int_range 0 7) (int_range 0 7)))
      (fun ((i1, j1), (i2, j2)) ->
        let l = block_cols 8 4 in
        let o1 = owner l [| i1; j1 |] and o2 = owner l [| i2; j2 |] in
        o1 <> o2
        || (i1, j1) = (i2, j2)
        || local_offset l [| i1; j1 |] <> local_offset l [| i2; j2 |]);
  ]

let () =
  Alcotest.run "layout"
    [ ("owners", owners); ("offsets", offsets); ("owned-sections", owned); ("properties", props) ]
