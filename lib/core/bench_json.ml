(* Hand-rolled JSON emission: the documents are small and flat, and the
   toolchain pin has no yojson, so a minimal printer keeps the bench
   binary dependency-free. Strings are escaped per RFC 8259; floats are
   printed with a fixed format so payloads compare byte-for-byte. *)

let buf_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_float b f =
  (* %.6f is locale-independent and total for the finite ratios we emit *)
  Buffer.add_string b (Printf.sprintf "%.6f" f)

let buf_list b emit xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      emit b x)
    xs;
  Buffer.add_char b ']'

type perf_row = {
  p_workload : string;
  p_mode : string;
  p_engine : string;
  p_pes : int;
  p_jobs : int;
  p_wall_s : float;
  p_cycles : int;
  p_cycles_per_s : float;
  p_accesses : int;
  p_accesses_per_s : float;
  p_minor_words : float;
}

let time ?(warm = true) f =
  if warm then ignore (f ());
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  (r, wall, Gc.minor_words () -. m0)

type t = {
  bench : string;
  mutable rows : Experiment.row list;  (* in order *)
  mutable tables : Experiment.table list;  (* reversed *)
  mutable perf : perf_row list;  (* reversed *)
  mutable rivals : Experiment.rival_row list;  (* in order *)
}

let create ~bench = { bench; rows = []; tables = []; perf = []; rivals = [] }
let add_rows t rows = t.rows <- t.rows @ rows
let add_table t tbl = t.tables <- tbl :: t.tables
let add_perf t row = t.perf <- row :: t.perf
let add_rivals t rows = t.rivals <- t.rivals @ rows

let buf_row b (r : Experiment.row) =
  Buffer.add_string b "{\"workload\":";
  buf_string b r.Experiment.workload;
  Buffer.add_string b (Printf.sprintf ",\"pes\":%d" r.Experiment.pes);
  Buffer.add_string b
    (Printf.sprintf ",\"seq_cycles\":%d,\"base_cycles\":%d,\"ccdp_cycles\":%d"
       r.Experiment.seq_cycles r.Experiment.base_cycles r.Experiment.ccdp_cycles);
  Buffer.add_string b ",\"base_speedup\":";
  buf_float b (Experiment.base_speedup r);
  Buffer.add_string b ",\"ccdp_speedup\":";
  buf_float b (Experiment.ccdp_speedup r);
  Buffer.add_string b ",\"improvement_pct\":";
  buf_float b (Experiment.improvement r);
  Buffer.add_string b
    (Printf.sprintf ",\"base_ok\":%b,\"ccdp_ok\":%b}" r.Experiment.base_ok
       r.Experiment.ccdp_ok)

let buf_table b (tbl : Experiment.table) =
  Buffer.add_string b "{\"title\":";
  buf_string b tbl.Experiment.title;
  Buffer.add_string b ",\"headers\":";
  buf_list b buf_string tbl.Experiment.headers;
  Buffer.add_string b ",\"rows\":";
  buf_list b (fun b row -> buf_list b buf_string row) tbl.Experiment.trows;
  Buffer.add_char b '}'

let buf_perf_row b r =
  Buffer.add_string b "{\"workload\":";
  buf_string b r.p_workload;
  Buffer.add_string b ",\"mode\":";
  buf_string b r.p_mode;
  Buffer.add_string b ",\"engine\":";
  buf_string b r.p_engine;
  Buffer.add_string b (Printf.sprintf ",\"pes\":%d" r.p_pes);
  Buffer.add_string b (Printf.sprintf ",\"jobs\":%d" r.p_jobs);
  Buffer.add_string b ",\"wall_s\":";
  buf_float b r.p_wall_s;
  Buffer.add_string b (Printf.sprintf ",\"cycles\":%d" r.p_cycles);
  Buffer.add_string b ",\"cycles_per_s\":";
  buf_float b r.p_cycles_per_s;
  Buffer.add_string b (Printf.sprintf ",\"accesses\":%d" r.p_accesses);
  Buffer.add_string b ",\"accesses_per_s\":";
  buf_float b r.p_accesses_per_s;
  Buffer.add_string b ",\"minor_words\":";
  buf_float b r.p_minor_words;
  Buffer.add_char b '}'

let buf_rival_row b (r : Experiment.rival_row) =
  let s = r.Experiment.rv_stats in
  Buffer.add_string b "{\"workload\":";
  buf_string b r.Experiment.rv_workload;
  Buffer.add_string b ",\"machine\":";
  buf_string b r.Experiment.rv_machine;
  Buffer.add_string b ",\"mode\":";
  buf_string b r.Experiment.rv_mode;
  Buffer.add_string b
    (Printf.sprintf ",\"pes\":%d,\"cycles\":%d" r.Experiment.rv_pes
       r.Experiment.rv_cycles);
  Buffer.add_string b ",\"norm\":";
  buf_float b r.Experiment.rv_norm;
  Buffer.add_string b
    (Printf.sprintf
       ",\"ok\":%b,\"invalidations\":%d,\"upgrades\":%d,\"dir_msgs\":%d,\"bus_conflicts\":%d,\"link_conflicts\":%d}"
       r.Experiment.rv_ok s.Ccdp_machine.Stats.invalidations
       s.Ccdp_machine.Stats.upgrades s.Ccdp_machine.Stats.dir_msgs
       s.Ccdp_machine.Stats.bus_conflicts s.Ccdp_machine.Stats.link_conflicts)

(* Each section key appears only when it has content: a bench that never
   produced evaluation rows or tables (perf, rivals) carries no dead
   "rows":[] / "tables":[] keys, and every other bench's payload is
   unchanged byte-for-byte. *)
let payload_body t =
  let b = Buffer.create 1024 in
  let first = ref true in
  let key name =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_char b '"';
    Buffer.add_string b name;
    Buffer.add_string b "\":"
  in
  if t.rows <> [] then (
    key "rows";
    buf_list b buf_row t.rows);
  if t.tables <> [] then (
    key "tables";
    buf_list b buf_table (List.rev t.tables));
  if t.perf <> [] then (
    key "perf";
    buf_list b buf_perf_row (List.rev t.perf));
  if t.rivals <> [] then (
    key "rivals";
    buf_list b buf_rival_row t.rivals);
  Buffer.contents b

let payload_string t = "{" ^ payload_body t ^ "}"

let to_string t ~jobs ~wall_clock_s =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"bench\":";
  buf_string b t.bench;
  Buffer.add_string b (Printf.sprintf ",\"jobs\":%d" jobs);
  Buffer.add_string b ",\"wall_clock_s\":";
  buf_float b wall_clock_s;
  let body = payload_body t in
  if body <> "" then (
    Buffer.add_char b ',';
    Buffer.add_string b body);
  Buffer.add_char b '}';
  Buffer.contents b

let write ?(dir = ".") t ~jobs ~wall_clock_s =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" t.bench) in
  let oc = open_out path in
  output_string oc (to_string t ~jobs ~wall_clock_s);
  output_char oc '\n';
  close_out oc;
  path
