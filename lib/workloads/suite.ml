(* every workload's name and constructor, in suite order: the paper's four
   benchmarks first *)
let registry =
  [
    ("mxm", fun ~n ~iters:_ -> Mxm.workload ~n);
    ("vpenta", fun ~n ~iters:_ -> Vpenta.workload ~n);
    ("tomcatv", fun ~n ~iters -> Tomcatv.workload ~n ~iters);
    ("swim", fun ~n ~iters -> Swim.workload ~n ~iters);
    ("jacobi", fun ~n ~iters -> Extras.jacobi ~n ~iters);
    ("dynamic", fun ~n ~iters:_ -> Extras.dynamic ~n);
    ("opaque", fun ~n ~iters:_ -> Extras.opaque_sweep ~n);
    ("triad", fun ~n ~iters:_ -> Extras.triad ~n);
    ("transpose", fun ~n ~iters:_ -> Extras.transpose ~n);
    ("gauss", fun ~n ~iters:_ -> Extras.gauss ~n);
  ]

let build ~n ~iters entries = List.map (fun (_, make) -> make ~n ~iters) entries

let spec_four ?(n = 64) ?(iters = 2) () =
  build ~n ~iters (List.filteri (fun i _ -> i < 4) registry)

let all ?(n = 64) ?(iters = 2) () = build ~n ~iters registry

let find ?(n = 64) ?(iters = 2) name =
  match List.assoc_opt name registry with
  | Some make -> make ~n ~iters
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %s (have: %s)" name
           (String.concat ", " (List.map fst registry)))
