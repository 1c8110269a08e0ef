(* Network-geometry properties of the interconnect layer. [Net.hops] must
   be a metric on every topology — symmetry, identity of indiscernibles
   and the triangle inequality — and bounded by [Net.diameter]; the cost
   matrix folded at create time must agree with hop-by-hop recomputation.
   Each geometry gets a pinned hop oracle (the torus one against the
   per-dimension minimal ring distance on known factorizations), the
   link-occupancy accounting is unit-tested directly, and the
   coherence-cluster axis (cluster_of / same_cluster / free intra-island
   transfers / per-island buses) has its own suite. *)

open Ccdp_machine
open Ccdp_test_support.Tutil

let machine_arb =
  QCheck.make
    ~print:(fun (kind, n_pes) ->
      Printf.sprintf "%s at %d PEs" (Net.kind_name kind) n_pes)
    QCheck.Gen.(
      pair (oneofl Net.all_kinds)
        (oneofl [ 1; 2; 3; 4; 5; 7; 8; 12; 16; 27; 32; 64 ]))

let metric_suite =
  [
    qcheck ~count:200 "hops is zero exactly on the diagonal" machine_arb
      (fun (kind, n_pes) ->
        let net = Net.create kind ~n_pes in
        let ok = ref true in
        for a = 0 to n_pes - 1 do
          for b = 0 to n_pes - 1 do
            let h = Net.hops net a b in
            if a = b then ok := !ok && h = 0
            else ok := !ok && (h > 0 || kind = Net.Uniform)
          done
        done;
        !ok);
    qcheck ~count:200 "hops is symmetric" machine_arb (fun (kind, n_pes) ->
        let net = Net.create kind ~n_pes in
        let ok = ref true in
        for a = 0 to n_pes - 1 do
          for b = 0 to n_pes - 1 do
            ok := !ok && Net.hops net a b = Net.hops net b a
          done
        done;
        !ok);
    qcheck ~count:100 "hops satisfies the triangle inequality" machine_arb
      (fun (kind, n_pes) ->
        let net = Net.create kind ~n_pes in
        let ok = ref true in
        for a = 0 to n_pes - 1 do
          for b = 0 to n_pes - 1 do
            for c = 0 to n_pes - 1 do
              ok :=
                !ok && Net.hops net a c <= Net.hops net a b + Net.hops net b c
            done
          done
        done;
        !ok);
    qcheck ~count:200 "no pair exceeds the diameter" machine_arb
      (fun (kind, n_pes) ->
        (* padded factorizations (e.g. 5 PEs on a 3x2 grid) may leave the
           far corner unpopulated, so the bound need not be attained *)
        let net = Net.create kind ~n_pes in
        let worst = ref 0 in
        for a = 0 to n_pes - 1 do
          for b = 0 to n_pes - 1 do
            worst := max !worst (Net.hops net a b)
          done
        done;
        ignore kind;
        !worst <= Net.diameter net);
    qcheck ~count:200 "the folded cost matrix is hop * hops" machine_arb
      (fun (kind, n_pes) ->
        let hop = 7 in
        let net = Net.create ~hop kind ~n_pes in
        let ok = ref true in
        for src = 0 to n_pes - 1 do
          for dst = 0 to n_pes - 1 do
            ok := !ok && Net.cost net ~src ~dst = hop * Net.hops net src dst
          done
        done;
        !ok);
    qcheck ~count:200 "zero per-hop cost means zero cost everywhere"
      machine_arb
      (fun (kind, n_pes) ->
        let net = Net.create kind ~n_pes in
        let ok = ref true in
        for src = 0 to n_pes - 1 do
          for dst = 0 to n_pes - 1 do
            ok := !ok && Net.cost net ~src ~dst = 0
          done
        done;
        !ok);
  ]

(* brute-force hop oracle for the mesh: the 2-D analogue of the Torus
   oracle in test_torus.ml — Manhattan distance on the factored grid,
   no wraparound *)
let mesh_oracle =
  [
    case "mesh hops match Manhattan distance on every tested width"
      (fun () ->
        List.iter
          (fun n_pes ->
            let net = Net.create Net.Mesh2d ~n_pes in
            (* recover the grid from distances: nx = 1 + max pe with
               hops 0 pe = pe (a pure x-walk along row 0) *)
            let nx = ref 1 in
            while
              !nx < n_pes && Net.hops net 0 !nx = !nx
            do
              incr nx
            done;
            let nx = !nx in
            for a = 0 to n_pes - 1 do
              for b = 0 to n_pes - 1 do
                let expect =
                  abs ((a mod nx) - (b mod nx)) + abs ((a / nx) - (b / nx))
                in
                check_int
                  (Printf.sprintf "mesh %d: %d->%d" n_pes a b)
                  expect (Net.hops net a b)
              done
            done)
          [ 2; 4; 6; 8; 12; 16; 20; 64 ]);
    case "16 PEs factor into a 4x4 mesh with diameter 6" (fun () ->
        let net = Net.create Net.Mesh2d ~n_pes:16 in
        check_int "diameter" 6 (Net.diameter net);
        (* corner to corner: PE 0 to PE 15 *)
        check_int "corners" 6 (Net.hops net 0 15));
    case "mesh has no wraparound: edge PEs are far apart" (fun () ->
        (* on a 4x4 mesh PEs 0 and 3 sit on opposite x-edges: 3 hops,
           where the torus wrap would make it 1 *)
        let net = Net.create Net.Mesh2d ~n_pes:16 in
        check_int "no wrap" 3 (Net.hops net 0 3));
  ]

(* brute-force torus oracle: hop distance equals the sum of per-dimension
   minimal ring distances on the pinned near-cubic factorizations of the
   power-of-two widths (PE numbering is x-fastest), plus the wraparound
   and diameter facts the deleted standalone torus module used to pin *)
let torus_oracle =
  let ring d a b =
    if d = 0 then 0
    else
      let fwd = (((a - b) mod d) + d) mod d in
      min fwd (d - fwd)
  in
  [
    case "torus hops equal the sum of minimal ring distances" (fun () ->
        List.iter
          (fun (n, (nx, ny, nz)) ->
            let net = Net.create Net.Torus3d ~n_pes:n in
            for a = 0 to n - 1 do
              for b = 0 to n - 1 do
                let coords pe =
                  (pe mod nx, pe / nx mod ny, pe / (nx * ny))
                in
                let xa, ya, za = coords a and xb, yb, zb = coords b in
                check_int
                  (Printf.sprintf "torus %d: %d->%d" n a b)
                  (ring nx xa xb + ring ny ya yb + ring nz za zb)
                  (Net.hops net a b)
              done
            done;
            ignore nz)
          [
            (2, (2, 1, 1)); (4, (2, 2, 1)); (8, (2, 2, 2)); (16, (4, 2, 2));
            (32, (4, 4, 2)); (64, (4, 4, 4)); (27, (3, 3, 3));
          ]);
    case "wraparound shortens long paths" (fun () ->
        (* x-neighbours at opposite edges of the 4x4x4 cube: 0 and 3 are
           one hop via the wraparound link (3 on a mesh) *)
        let net = Net.create Net.Torus3d ~n_pes:64 in
        check_int "wrap" 1 (Net.hops net 0 3));
    case "4x4x4 diameter is 6, 2x2x2 diameter is 3" (fun () ->
        check_int "4x4x4" 6 (Net.diameter (Net.create Net.Torus3d ~n_pes:64));
        check_int "2x2x2" 3 (Net.diameter (Net.create Net.Torus3d ~n_pes:8)));
    case "diameter is attained on exactly-factoring widths" (fun () ->
        List.iter
          (fun n ->
            let net = Net.create Net.Torus3d ~n_pes:n in
            let best = ref 0 in
            for a = 0 to n - 1 do
              for b = 0 to n - 1 do
                best := max !best (Net.hops net a b)
              done
            done;
            check_int (Printf.sprintf "diameter %d" n) (Net.diameter net) !best)
          [ 8; 27; 64 ]);
    case "remote reads cost more to farther owners" (fun () ->
        (* end-to-end through Memsys: with the torus distance model a
           BASE-mode miss to a far-away owner takes longer than one to a
           neighbour *)
        let open Ccdp_ir in
        let module B = Builder in
        let b = B.create ~name:"t" () in
        B.array_ b "A" [| 8; 8 |] ~dist:(Dist.block_along ~rank:2 ~dim:1);
        let p =
          B.finish b
            [
              Stmt.Assign
                (B.ref_ b "A" [ B.A.c 0; B.A.c 0 ], Builder.F.const 0.0);
            ]
        in
        let cfg = Config.t3d_torus ~n_pes:8 in
        let sys =
          Ccdp_runtime.Memsys.create cfg p
            ~plan:(Ccdp_analysis.Annot.empty ())
            Ccdp_runtime.Memsys.Base
        in
        let net = Net.create Net.Torus3d ~n_pes:8 in
        let r id =
          Reference.make ~id "A" [| Affine.var "i"; Affine.var "j" |]
        in
        (* column j is owned by PE j on 8 PEs with 8 columns *)
        let cost owner =
          let t0 = Ccdp_runtime.Memsys.clock sys ~pe:0 in
          ignore
            (Ccdp_runtime.Memsys.read sys ~pe:0 (r owner) ~idx:[| 0; owner |]);
          Ccdp_runtime.Memsys.clock sys ~pe:0 - t0
        in
        let near = ref 1 and far = ref 1 in
        for pe = 1 to 7 do
          if Net.hops net 0 pe < Net.hops net 0 !near then near := pe;
          if Net.hops net 0 pe > Net.hops net 0 !far then far := pe
        done;
        let c_near = cost !near in
        let c_far = cost !far in
        check_true "distance visible" (c_far > c_near));
  ]

let crossbar_oracle =
  [
    case "crossbar is one hop between any two distinct PEs" (fun () ->
        let net = Net.create Net.Crossbar ~n_pes:16 in
        for a = 0 to 15 do
          for b = 0 to 15 do
            check_int
              (Printf.sprintf "xbar %d->%d" a b)
              (if a = b then 0 else 1)
              (Net.hops net a b)
          done
        done;
        check_int "diameter" 1 (Net.diameter net));
    case "single-PE crossbar has diameter zero" (fun () ->
        check_int "diameter" 0 (Net.diameter (Net.create Net.Crossbar ~n_pes:1)));
  ]

(* a booking's delay with the depth it reports through [last_depth] *)
let booked net delay = (delay, Net.last_depth net)

let contention =
  [
    case "an idle link adds no delay" (fun () ->
        let net = Net.create Net.Crossbar ~n_pes:4 in
        let delay, depth = booked net (Net.acquire net ~dst:1 ~now:100 ~hold:8) in
        check_int "delay" 0 delay;
        check_int "depth" 1 depth);
    case "a busy link queues and deepens" (fun () ->
        let net = Net.create Net.Crossbar ~n_pes:4 in
        ignore (Net.acquire net ~dst:1 ~now:100 ~hold:8);
        let d2, q2 = booked net (Net.acquire net ~dst:1 ~now:102 ~hold:8) in
        check_int "second waits for the first" 6 d2;
        check_int "second is depth 2" 2 q2;
        let d3, q3 = booked net (Net.acquire net ~dst:1 ~now:103 ~hold:8) in
        check_int "third waits for both" 13 d3;
        check_int "third is depth 3" 3 q3);
    case "distinct links do not contend" (fun () ->
        let net = Net.create Net.Crossbar ~n_pes:4 in
        ignore (Net.acquire net ~dst:1 ~now:100 ~hold:8);
        let delay, depth = booked net (Net.acquire net ~dst:2 ~now:100 ~hold:8) in
        check_int "delay" 0 delay;
        check_int "depth" 1 depth);
    case "a drained link starts a fresh burst" (fun () ->
        let net = Net.create Net.Crossbar ~n_pes:4 in
        ignore (Net.acquire net ~dst:1 ~now:0 ~hold:8);
        ignore (Net.acquire net ~dst:1 ~now:1 ~hold:8);
        let delay, depth = booked net (Net.acquire net ~dst:1 ~now:50 ~hold:8) in
        check_int "delay" 0 delay;
        check_int "depth resets" 1 depth);
    case "reset_links forgets all bookings" (fun () ->
        let net = Net.create Net.Crossbar ~n_pes:4 in
        ignore (Net.acquire net ~dst:1 ~now:0 ~hold:100);
        Net.reset_links net;
        let delay, depth = booked net (Net.acquire net ~dst:1 ~now:0 ~hold:8) in
        check_int "delay" 0 delay;
        check_int "depth" 1 depth);
  ]

(* the coherence-cluster axis: consecutive-PE islands, free intra-island
   transfers, independent per-island snoop buses *)
let clusters =
  let raises_invalid f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  [
    case "cluster_of partitions consecutive PEs" (fun () ->
        let net = Net.create ~cluster_pes:4 Net.Crossbar ~n_pes:16 in
        check_int "width" 4 (Net.cluster_pes net);
        check_int "count" 4 (Net.n_clusters net);
        for pe = 0 to 15 do
          check_int (Printf.sprintf "cluster of %d" pe) (pe / 4)
            (Net.cluster_of net pe)
        done;
        for a = 0 to 15 do
          for b = 0 to 15 do
            check_true
              (Printf.sprintf "same %d %d" a b)
              (Net.same_cluster net a b = (a / 4 = b / 4))
          done
        done);
    case "a flat machine is all singleton clusters" (fun () ->
        let net = Net.create Net.Torus3d ~n_pes:8 in
        check_int "width" 1 (Net.cluster_pes net);
        check_int "count" 8 (Net.n_clusters net);
        check_true "only the diagonal" (not (Net.same_cluster net 0 1));
        check_true "self" (Net.same_cluster net 5 5));
    case "intra-island transfers are free, cross-island charge hops"
      (fun () ->
        let hop = 7 in
        let net = Net.create ~hop ~cluster_pes:4 Net.Mesh2d ~n_pes:16 in
        for src = 0 to 15 do
          for dst = 0 to 15 do
            let expect =
              if Net.same_cluster net src dst then 0
              else hop * Net.hops net src dst
            in
            check_int
              (Printf.sprintf "cost %d->%d" src dst)
              expect
              (Net.cost net ~src ~dst)
          done
        done);
    case "create rejects ragged or non-positive cluster widths" (fun () ->
        check_true "non-dividing"
          (raises_invalid (fun () ->
               Net.create ~cluster_pes:3 Net.Crossbar ~n_pes:16));
        check_true "zero"
          (raises_invalid (fun () ->
               Net.create ~cluster_pes:0 Net.Crossbar ~n_pes:16));
        check_true "negative"
          (raises_invalid (fun () ->
               Net.create ~cluster_pes:(-2) Net.Crossbar ~n_pes:16)));
    case "island buses book independently and reset together" (fun () ->
        let net = Net.create ~cluster_pes:4 Net.Crossbar ~n_pes:8 in
        ignore (Net.acquire_cluster_bus net ~cluster:0 ~now:0 ~since:0 ~hold:10);
        let d0 =
          Net.acquire_cluster_bus net ~cluster:0 ~now:2 ~since:0 ~hold:10
        in
        check_true "own island pays backlog" (d0 > 0);
        let d1, q1 =
          booked net
            (Net.acquire_cluster_bus net ~cluster:1 ~now:2 ~since:0 ~hold:10)
        in
        check_int "other island idle" 0 d1;
        check_int "other island depth" 1 q1;
        Net.reset_links net;
        let d0' =
          Net.acquire_cluster_bus net ~cluster:0 ~now:0 ~since:0 ~hold:10
        in
        check_int "barrier drains the island bus" 0 d0');
  ]

(* the presets derived from the interconnect kinds stay mutually
   consistent with the uniform T3D machine *)
let presets =
  [
    case "t3d_torus rebalances off the uniform preset's remote latency"
      (fun () ->
        let base = Config.t3d ~n_pes:64 in
        let cfg = Config.t3d_torus ~n_pes:64 in
        let net = Net.create Net.Torus3d ~n_pes:64 in
        let avg = max 1 ((Net.diameter net + 1) / 2) in
        check_int "remote"
          (max base.Config.local (base.Config.remote - (cfg.Config.hop * avg)))
          cfg.Config.remote);
    case "every t3d interconnect preset validates" (fun () ->
        List.iter
          (fun (name, preset) ->
            let cfg = preset ~n_pes:16 in
            check_true (name ^ " valid") (Config.validate cfg = []))
          Config.presets);
    case "preset_of_string resolves names and kind aliases" (fun () ->
        List.iter
          (fun (name, kind) ->
            match Config.preset_of_string name with
            | None -> Alcotest.failf "%s did not resolve" name
            | Some p -> check_true name ((p ~n_pes:8).Config.net = kind))
          [
            ("t3d", Net.Uniform);
            ("T3D-Torus", Net.Torus3d);
            ("mesh", Net.Mesh2d);
            ("crossbar", Net.Crossbar);
            ("xbar", Net.Crossbar);
            ("uniform", Net.Uniform);
          ];
        check_true "unknown rejected" (Config.preset_of_string "pdp11" = None));
    case "only the crossbar preset enables contention by default" (fun () ->
        List.iter
          (fun (name, preset) ->
            let cfg = preset ~n_pes:16 in
            check_true name
              (cfg.Config.link_occ > 0
              = (cfg.Config.net = Net.Crossbar)))
          Config.presets);
    case "validate rejects non-positive and ragged cluster widths" (fun () ->
        let base = Config.t3d ~n_pes:16 in
        let has msg cfg = List.mem msg (Config.validate cfg) in
        check_true "zero"
          (has "cluster_pes must be positive"
             { base with Config.cluster_pes = 0 });
        check_true "negative"
          (has "cluster_pes must be positive"
             { base with Config.cluster_pes = -4 });
        check_true "non-dividing"
          (has "cluster_pes must divide n_pes"
             { base with Config.cluster_pes = 3 });
        check_true "dividing ok"
          (Config.validate { base with Config.cluster_pes = 4 } = []));
    case "every named preset round-trips through preset_of_string" (fun () ->
        List.iter
          (fun name ->
            match Config.preset_of_string name with
            | None -> Alcotest.failf "%s did not resolve" name
            | Some p ->
                List.iter
                  (fun n_pes ->
                    let cfg = p ~n_pes in
                    check_true
                      (Printf.sprintf "%s at %d validates" name n_pes)
                      (Config.validate cfg = []);
                    check_int
                      (Printf.sprintf "%s at %d keeps its width" name n_pes)
                      n_pes cfg.Config.n_pes)
                  [ 1; 2; 16; 64 ])
          Config.preset_names);
    case "cxl presets preserve their island count at the nominal width"
      (fun () ->
        List.iter
          (fun (name, islands) ->
            match Config.preset_of_string name with
            | None -> Alcotest.failf "%s did not resolve" name
            | Some p ->
                let cfg = p ~n_pes:64 in
                check_int (name ^ " island width") (64 / islands)
                  cfg.Config.cluster_pes)
          [ ("cxl-2x32", 2); ("cxl-4x16", 4); ("cxl-8x8", 8) ]);
    case "cxl presets degrade to flat when the width does not divide"
      (fun () ->
        let cfg = Config.cxl_4x16 ~n_pes:6 in
        check_int "flat fallback" 1 cfg.Config.cluster_pes;
        check_true "still valid" (Config.validate cfg = []));
  ]

let () =
  Alcotest.run "net"
    [
      ("metric", metric_suite);
      ("torus oracle", torus_oracle);
      ("mesh oracle", mesh_oracle);
      ("crossbar oracle", crossbar_oracle);
      ("contention", contention);
      ("clusters", clusters);
      ("presets", presets);
    ]
