open Ccdp_ir
open Ccdp_craft
open Ccdp_test_support.Tutil

let iters_of sched ~n_pes ~pe ~lo ~hi ~step =
  match Loop_sched.triplet_of_pe sched ~n_pes ~pe ~lo ~hi ~step with
  | None -> []
  | Some (f, l, s) ->
      let rec go x acc = if x > l then List.rev acc else go (x + s) (x :: acc) in
      go f []

let all_iters ~lo ~hi ~step =
  let rec go x acc = if x > hi then List.rev acc else go (x + step) (x :: acc) in
  go lo []

let partition_exact sched ~n_pes ~lo ~hi ~step =
  let per_pe = List.init n_pes (fun pe -> iters_of sched ~n_pes ~pe ~lo ~hi ~step) in
  let combined = List.sort compare (List.concat per_pe) in
  combined = List.sort compare (all_iters ~lo ~hi ~step)

let static_tests =
  [
    case "block splits 0..7 over 4 PEs in pairs" (fun () ->
        Alcotest.(check (list int)) "pe1" [ 2; 3 ]
          (iters_of Stmt.Static_block ~n_pes:4 ~pe:1 ~lo:0 ~hi:7 ~step:1));
    case "cyclic deals iterations round-robin" (fun () ->
        Alcotest.(check (list int)) "pe1" [ 1; 5 ]
          (iters_of Stmt.Static_cyclic ~n_pes:4 ~pe:1 ~lo:0 ~hi:7 ~step:1));
    case "aligned window matches data blocks even on sub-ranges" (fun () ->
        (* extent 8 over 4 PEs: windows 0-1, 2-3, 4-5, 6-7; loop 1..6 *)
        Alcotest.(check (list int)) "pe0" [ 1 ]
          (iters_of (Stmt.Static_aligned 8) ~n_pes:4 ~pe:0 ~lo:1 ~hi:6 ~step:1);
        Alcotest.(check (list int)) "pe3" [ 6 ]
          (iters_of (Stmt.Static_aligned 8) ~n_pes:4 ~pe:3 ~lo:1 ~hi:6 ~step:1);
        Alcotest.(check (list int)) "pe1" [ 2; 3 ]
          (iters_of (Stmt.Static_aligned 8) ~n_pes:4 ~pe:1 ~lo:1 ~hi:6 ~step:1));
    case "more PEs than iterations leaves some idle" (fun () ->
        check_true "pe7 idle"
          (Loop_sched.triplet_of_pe Stmt.Static_block ~n_pes:8 ~pe:7 ~lo:0 ~hi:3 ~step:1
           = None));
    case "dynamic has no static assignment" (fun () ->
        check_true "none"
          (Loop_sched.triplet_of_pe (Stmt.Dynamic 2) ~n_pes:4 ~pe:0 ~lo:0 ~hi:7 ~step:1
           = None);
        check_false "not static" (Loop_sched.is_static (Stmt.Dynamic 2)));
    case "strided loops respect the step" (fun () ->
        Alcotest.(check (list int)) "pe0 of 0..12 step 4" [ 0; 4 ]
          (iters_of Stmt.Static_block ~n_pes:2 ~pe:0 ~lo:0 ~hi:12 ~step:4));
  ]

let dynamic_tests =
  [
    case "dynamic_chunks covers the range in order" (fun () ->
        let chunks = Loop_sched.dynamic_chunks ~chunk:3 ~lo:0 ~hi:7 ~step:1 in
        Alcotest.(check int) "3 chunks" 3 (List.length chunks);
        match chunks with
        | [ (0, 2, 1); (3, 5, 1); (6, 7, 1) ] -> ()
        | _ -> Alcotest.fail "chunk shape");
    case "dynamic_chunks rejects chunk <= 0" (fun () ->
        check_true "raises"
          (try ignore (Loop_sched.dynamic_chunks ~chunk:0 ~lo:0 ~hi:3 ~step:1); false
           with Invalid_argument _ -> true));
    case "trip_count" (fun () ->
        check_int "simple" 8 (Loop_sched.trip_count ~lo:0 ~hi:7 ~step:1);
        check_int "strided" 3 (Loop_sched.trip_count ~lo:0 ~hi:8 ~step:4);
        check_int "empty" 0 (Loop_sched.trip_count ~lo:5 ~hi:4 ~step:1));
  ]

let pe_of_iter_tests =
  [
    case "pe_of_iter agrees with triplets (block)" (fun () ->
        for i = 0 to 7 do
          match Loop_sched.pe_of_iter Stmt.Static_block ~n_pes:4 ~lo:0 ~hi:7 ~step:1 i with
          | Some pe ->
              check_true "member" (List.mem i (iters_of Stmt.Static_block ~n_pes:4 ~pe ~lo:0 ~hi:7 ~step:1))
          | None -> Alcotest.fail "expected assignment"
        done);
    case "pe_of_iter rejects off-stride values" (fun () ->
        check_true "none"
          (Loop_sched.pe_of_iter Stmt.Static_block ~n_pes:2 ~lo:0 ~hi:8 ~step:2 3 = None));
  ]

let props =
  let gen =
    QCheck.(quad (int_range 1 8) (int_range 0 4) (int_range 0 20) (int_range 1 3))
  in
  [
    qcheck "block partitions exactly" gen (fun (p, lo, len, step) ->
        partition_exact Stmt.Static_block ~n_pes:p ~lo ~hi:(lo + len) ~step);
    qcheck "cyclic partitions exactly" gen (fun (p, lo, len, step) ->
        partition_exact Stmt.Static_cyclic ~n_pes:p ~lo ~hi:(lo + len) ~step);
    qcheck "aligned partitions exactly when extent covers the range" gen
      (fun (p, lo, len, step) ->
        partition_exact (Stmt.Static_aligned (lo + len + 1)) ~n_pes:p ~lo ~hi:(lo + len) ~step);
    qcheck "dynamic chunks partition exactly"
      QCheck.(quad (int_range 1 5) (int_range 0 4) (int_range 0 20) (int_range 1 3))
      (fun (chunk, lo, len, step) ->
        let hi = lo + len in
        let all = List.concat_map (fun (f, l, s) ->
            let rec go x acc = if x > l then List.rev acc else go (x + s) (x :: acc) in
            go f [])
            (Loop_sched.dynamic_chunks ~chunk ~lo ~hi ~step)
        in
        all = all_iters ~lo ~hi ~step);
  ]

(* [active_range] against [triplet_of_pe], PE by PE *)
let active pe sched ~n_pes ~lo ~hi ~step =
  Loop_sched.triplet_of_pe sched ~n_pes ~pe ~lo ~hi ~step <> None

let active_range_props =
  let gen =
    QCheck.(
      make
        ~print:(fun (kind, extent, n_pes, lo, len, step) ->
          Printf.sprintf "kind=%d extent=%d pes=%d lo=%d len=%d step=%d" kind
            extent n_pes lo len step)
        Gen.(
          map
            (fun ((kind, extent, n_pes), (lo, len, step)) ->
              (kind, extent, n_pes, lo, len, step))
            (pair
               (triple (int_range 0 2) (int_range 1 96)
                  (oneof [ int_range 1 16; int_range 1 4096 ]))
               (triple (int_range (-4) 40) (int_range (-3) 60) (int_range 1 5)))))
  in
  let sched_of kind extent =
    match kind with
    | 0 -> Stmt.Static_block
    | 1 -> Stmt.Static_cyclic
    | _ -> Stmt.Static_aligned extent
  in
  [
    qcheck ~count:300
      "active_range is the tightest interval holding every active PE" gen
      (fun (kind, extent, n_pes, lo, len, step) ->
        let sched = sched_of kind extent and hi = lo + len in
        let first, last = Loop_sched.active_range sched ~n_pes ~lo ~hi ~step in
        let ok = ref true in
        for pe = 0 to n_pes - 1 do
          if active pe sched ~n_pes ~lo ~hi ~step && (pe < first || pe > last)
          then ok := false
        done;
        !ok
        && (first > last
           || active first sched ~n_pes ~lo ~hi ~step
              && active last sched ~n_pes ~lo ~hi ~step));
    qcheck ~count:300
      "active_range is exactly the active PEs unless an aligned step skips \
       blocks"
      gen
      (fun (kind, extent, n_pes, lo, len, step) ->
        let sched = sched_of kind extent and hi = lo + len in
        let first, last = Loop_sched.active_range sched ~n_pes ~lo ~hi ~step in
        let skips = kind = 2 && step > (extent + n_pes - 1) / n_pes in
        let ok = ref true in
        for pe = 0 to n_pes - 1 do
          if active pe sched ~n_pes ~lo ~hi ~step <> (first <= pe && pe <= last)
          then ok := false
        done;
        skips || !ok);
    case "an aligned step over whole blocks leaves idle PEs inside the range"
      (fun () ->
        let sched = Stmt.Static_aligned 16 in
        Alcotest.(check (pair int int))
          "range" (0, 14)
          (Loop_sched.active_range sched ~n_pes:16 ~lo:0 ~hi:15 ~step:2);
        check_false "pe1 idle" (active 1 sched ~n_pes:16 ~lo:0 ~hi:15 ~step:2));
    case "an empty loop has an empty range" (fun () ->
        let first, last =
          Loop_sched.active_range Stmt.Static_block ~n_pes:8 ~lo:5 ~hi:4 ~step:1
        in
        check_true "empty" (first > last));
    case "a dynamic schedule may use every PE" (fun () ->
        Alcotest.(check (pair int int))
          "range" (0, 7)
          (Loop_sched.active_range (Stmt.Dynamic 2) ~n_pes:8 ~lo:0 ~hi:3 ~step:1));
  ]

let () =
  Alcotest.run "loop-sched"
    [
      ("static", static_tests);
      ("dynamic", dynamic_tests);
      ("pe-of-iter", pe_of_iter_tests);
      ("properties", props);
      ("active-pes", active_range_props);
    ]
