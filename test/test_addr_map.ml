open Ccdp_ir
open Ccdp_runtime
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let dist = Dist.block_along ~rank:2 ~dim:1

let program () =
  let b = B.create ~name:"am" () in
  B.array_ b "A" [| 8; 8 |] ~dist;
  B.array_ b "R" [| 8 |] ~dist:Dist.replicated;
  B.array_ b "Pv" [| 8 |] ~shared:false;
  B.finish b [ Stmt.Assign (B.ref_ b "A" [ B.A.c 0; B.A.c 0 ], F.const 0.0) ]

let map () = Addr_map.make (program ()) ~n_pes:4 ~line_words:4 ()

let tests =
  [
    case "resolve distributed: owner-local vs remote" (fun () ->
        let m = map () in
        let _, w = Addr_map.resolve m ~pe:0 "A" [| 0; 0 |] in
        check_true "local" (w = `Local);
        let _, w = Addr_map.resolve m ~pe:0 "A" [| 0; 7 |] in
        check_true "remote to 3" (w = `Remote 3));
    case "remote addresses live in the owner's window" (fun () ->
        let m = map () in
        let a, _ = Addr_map.resolve m ~pe:0 "A" [| 0; 7 |] in
        check_true "window" (a >= 3 * Addr_map.pe_span m && a < 4 * Addr_map.pe_span m));
    case "replicated arrays resolve locally on every PE" (fun () ->
        let m = map () in
        let a0, w0 = Addr_map.resolve m ~pe:0 "R" [| 3 |] in
        let a2, w2 = Addr_map.resolve m ~pe:2 "R" [| 3 |] in
        check_true "local both" (w0 = `Local && w2 = `Local);
        check_true "different copies" (a0 <> a2));
    case "all_copies of replicated lists one per PE" (fun () ->
        let m = map () in
        check_int "4 copies" 4 (List.length (Addr_map.all_copies m "R" [| 3 |]));
        check_int "1 copy" 1 (List.length (Addr_map.all_copies m "A" [| 0; 0 |])));
    case "canonical picks the owner copy" (fun () ->
        let m = map () in
        let c = Addr_map.canonical m "A" [| 0; 5 |] in
        let a, _ = Addr_map.resolve m ~pe:2 "A" [| 0; 5 |] in
        check_int "owner copy" a c);
    case "distinct elements get distinct addresses" (fun () ->
        let m = map () in
        let seen = Hashtbl.create 64 in
        for i = 0 to 7 do
          for j = 0 to 7 do
            let a = Addr_map.canonical m "A" [| i; j |] in
            check_false "dup" (Hashtbl.mem seen a);
            Hashtbl.replace seen a ()
          done
        done);
    case "total_words covers every resolved address" (fun () ->
        let m = map () in
        for i = 0 to 7 do
          for j = 0 to 7 do
            for pe = 0 to 3 do
              let a, _ = Addr_map.resolve m ~pe "A" [| i; j |] in
              check_true "bounded" (a >= 0 && a < Addr_map.total_words m)
            done
          done
        done);
    case "coloring separates equal elements of different arrays" (fun () ->
        let b = B.create ~name:"col" () in
        B.array_ b "X" [| 8; 8 |] ~dist;
        B.array_ b "Y" [| 8; 8 |] ~dist;
        let p = B.finish b [ Stmt.Assign (B.ref_ b "X" [ B.A.c 0; B.A.c 0 ], F.const 0.0) ] in
        let m = Addr_map.make p ~n_pes:4 ~line_words:4 ~cache_lines:256 ()
        in
        let ax = Addr_map.canonical m "X" [| 0; 0 |] in
        let ay = Addr_map.canonical m "Y" [| 0; 0 |] in
        check_false "different sets" (ax / 4 mod 256 = ay / 4 mod 256));
  ]

(* round trips between the three views of an element: (pe, name, index)
   resolution, the canonical owner copy, and the all-copies enumeration *)
let round_trips =
  [
    case "owner resolution round-trips through the canonical address"
      (fun () ->
        let m = map () in
        for i = 0 to 7 do
          for j = 0 to 7 do
            let c = Addr_map.canonical m "A" [| i; j |] in
            let owner = c / Addr_map.pe_span m in
            let a, w = Addr_map.resolve m ~pe:owner "A" [| i; j |] in
            check_int "same address" c a;
            check_true "owner is local" (w = `Local)
          done
        done);
    case "resolve lands in all_copies for every PE" (fun () ->
        let m = map () in
        List.iter
          (fun (name, idx) ->
            let copies = Addr_map.all_copies m name idx in
            for pe = 0 to 3 do
              let a, _ = Addr_map.resolve m ~pe name idx in
              check_true "member" (List.mem a copies)
            done)
          [ ("A", [| 2; 5 |]); ("R", [| 3 |]); ("Pv", [| 6 |]) ]);
    case "remote tag names the owner window" (fun () ->
        let m = map () in
        for pe = 0 to 3 do
          for j = 0 to 7 do
            let a, w = Addr_map.resolve m ~pe "A" [| 1; j |] in
            match w with
            | `Local ->
                check_int "local window" pe (a / Addr_map.pe_span m)
            | `Remote owner ->
                check_int "remote window" owner (a / Addr_map.pe_span m);
                check_false "never self" (owner = pe)
          done
        done);
    case "array bases are line-aligned in every window" (fun () ->
        let m = map () in
        List.iter
          (fun (name, idx) ->
            List.iter
              (fun a -> check_int "aligned" 0 (a mod 4))
              (Addr_map.all_copies m name idx))
          [ ("A", [| 0; 0 |]); ("R", [| 0 |]); ("Pv", [| 0 |]) ]);
    case "replicated copies land at the same window offset" (fun () ->
        let m = map () in
        let offsets =
          List.map
            (fun a -> a mod Addr_map.pe_span m)
            (Addr_map.all_copies m "R" [| 5 |])
        in
        match offsets with
        | o :: rest -> List.iter (fun o' -> check_int "offset" o o') rest
        | [] -> Alcotest.fail "no copies");
  ]

(* An independent model of the CRAFT layouts the address kernel compiles:
   ownership restated per pattern, the local index along the distributed
   dimension counted as "owned indices below it", and each PE's window laid
   out column-major with whole rounds of blocks along that dimension. *)
type model = {
  m_dims : int array;
  m_pattern : [ `Replicated | `On_pe0 | `Dist of int * Dist.dim_dist ];
  m_ew : int;
  m_np : int;
}

let ceil_div a b = (a + b - 1) / b

let model_owner m i =
  match m.m_pattern with
  | `Replicated | `On_pe0 -> 0
  | `Dist (d, Dist.Block) -> i / ceil_div m.m_dims.(d) m.m_np
  | `Dist (_, Dist.Cyclic) -> i mod m.m_np
  | `Dist (_, Dist.Block_cyclic w) -> i / w mod m.m_np
  | `Dist (_, Dist.Degenerate) -> assert false

(* owned indices of the distributed dimension below [i] on [i]'s owner *)
let model_local m n i =
  let o = model_owner m i in
  let c = ref 0 in
  for j = 0 to min i n - 1 do
    if model_owner m j = o then incr c
  done;
  !c

let model_extent m d =
  match m.m_pattern with
  | `Dist (dd, pat) when dd = d -> (
      let n = m.m_dims.(d) in
      match pat with
      | Dist.Block | Dist.Cyclic -> ceil_div n m.m_np
      | Dist.Block_cyclic w -> ceil_div n (w * m.m_np) * w
      | Dist.Degenerate -> assert false)
  | _ -> m.m_dims.(d)

let model_span m =
  let w = ref m.m_ew in
  Array.iteri (fun d _ -> w := !w * model_extent m d) m.m_dims;
  max 1 !w

(* window offset and owner of an in-bounds element *)
let model_place m idx =
  let off = ref 0 and owner = ref 0 in
  for d = Array.length idx - 1 downto 0 do
    let i =
      match m.m_pattern with
      | `Dist (dd, _) when dd = d ->
          owner := model_owner m idx.(d);
          model_local m m.m_dims.(d) idx.(d)
      | _ -> idx.(d)
    in
    off := (!off * model_extent m d) + i
  done;
  (!owner, !off * m.m_ew)

let model_copies m idx =
  let owner, off = model_place m idx in
  let span = model_span m in
  match m.m_pattern with
  | `Replicated -> List.init m.m_np (fun pe -> (pe * span) + off)
  | `On_pe0 | `Dist _ -> [ (owner * span) + off ]

let gen_model =
  let open QCheck.Gen in
  int_range 1 3 >>= fun rank ->
  array_size (return rank) (int_range 1 9) >>= fun dims ->
  int_range 1 8 >>= fun np ->
  int_range 1 2 >>= fun ew ->
  int_range 0 (rank - 1) >>= fun dd ->
  oneof
    [
      return `Replicated;
      return `On_pe0;
      return (`Dist (dd, Dist.Block));
      return (`Dist (dd, Dist.Cyclic));
      map (fun w -> `Dist (dd, Dist.Block_cyclic w)) (int_range 1 3);
    ]
  >>= fun pattern ->
  list_size (int_range 1 24)
    (map Array.of_list
       (flatten_l
          (Array.to_list (Array.map (fun n -> int_range (-2) (n + 1)) dims))))
  >|= fun idxs -> ({ m_dims = dims; m_pattern = pattern; m_ew = ew; m_np = np }, idxs)

let print_model (m, idxs) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "dims=(%s) ew=%d np=%d %s idxs=[%s]" (ints m.m_dims) m.m_ew
    m.m_np
    (match m.m_pattern with
    | `Replicated -> "replicated"
    | `On_pe0 -> "on-pe0"
    | `Dist (d, p) -> Format.asprintf "dim %d %a" d Dist.pp (Dist.Dims [| p |]))
    (String.concat " " (List.map (fun a -> "(" ^ ints a ^ ")") idxs))

let kernel_props =
  [
    qcheck ~count:500
      "resolve_h, canonical and all_copies agree with the layout model"
      (QCheck.make ~print:print_model gen_model)
      (fun (m, idxs) ->
        let rank = Array.length m.m_dims in
        let dist, shared =
          match m.m_pattern with
          | `Replicated -> (Dist.replicated, rank mod 2 = 0)
          | `On_pe0 -> (Dist.Dims (Array.make rank Dist.Degenerate), true)
          | `Dist (dd, pat) ->
              ( Dist.Dims
                  (Array.init rank (fun d ->
                       if d = dd then pat else Dist.Degenerate)),
                true )
        in
        let decl =
          Array_decl.make ~elem_words:m.m_ew ~dist ~shared "X" m.m_dims
        in
        let p =
          { Program.name = "km"; arrays = [ decl ]; procs = []; main = []; params = [] }
        in
        let amap = Addr_map.make p ~n_pes:m.m_np ~line_words:1 () in
        let h = Addr_map.handle amap "X" in
        let raises f =
          match f () with
          | _ -> false
          | exception Addr_map.Out_of_bounds _ -> true
        in
        Addr_map.pe_span amap = model_span m
        && List.for_all
             (fun idx ->
               let inb =
                 Array.for_all2 (fun i n -> i >= 0 && i < n) idx m.m_dims
               in
               if not inb then
                 raises (fun () -> Addr_map.resolve_h h ~pe:0 idx)
                 && raises (fun () -> Addr_map.canonical amap "X" idx)
                 && raises (fun () -> Addr_map.all_copies amap "X" idx)
               else
                 let copies = model_copies m idx in
                 Addr_map.all_copies amap "X" idx = copies
                 && Addr_map.canonical amap "X" idx = List.hd copies
                 && List.for_all
                      (fun pe ->
                        Addr_map.resolve_h h ~pe idx
                        = (match m.m_pattern with
                          | `Replicated -> List.nth copies pe
                          | `On_pe0 | `Dist _ -> List.hd copies))
                      (List.init m.m_np Fun.id))
             idxs);
  ]

let () =
  Alcotest.run "addr-map"
    [
      ("mapping", tests);
      ("round-trips", round_trips);
      ("kernel", kernel_props);
    ]
