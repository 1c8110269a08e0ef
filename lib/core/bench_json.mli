(** Machine-readable bench trajectory: [BENCH_<mode>.json].

    Each bench mode (table1, table2, ablate, sweep, ...) accumulates its
    evaluation rows and rendered tables into a document and writes it next
    to the formatted output. The document separates the {e payload} —
    rows and tables, a pure function of the simulated machine, identical
    for every job count — from the {e envelope} (jobs used, host
    wall-clock), which varies run to run. Determinism tests compare
    {!payload_string}; trend tooling reads the whole file.

    Schema (all numbers are JSON numbers, all flags JSON booleans):
    {v
    { "bench": "table1",
      "jobs": 8,
      "wall_clock_s": 1.234567,
      "rows": [ { "workload": "MXM", "pes": 4,
                  "seq_cycles": 1, "base_cycles": 1, "ccdp_cycles": 1,
                  "base_speedup": 1.0, "ccdp_speedup": 1.0,
                  "improvement_pct": 0.0,
                  "base_ok": true, "ccdp_ok": true }, ... ],
      "tables": [ { "title": "...", "headers": ["..."],
                    "rows": [["..."]] }, ... ] }
    v}

    Payload keys ([rows], [tables], [perf], [rivals]) are emitted only
    when non-empty: the perf bench's document carries no dead
    ["rows":[]] / ["tables":[]] keys, and benches that emit rows and
    tables are unchanged byte-for-byte.

    The perf bench emits a ["perf"] key (absent from every other bench):
    {v
      "perf": [ { "workload": "MXM", "mode": "ccdp", "engine": "plan",
                  "pes": 16, "jobs": 1, "wall_s": 0.1, "cycles": 1,
                  "cycles_per_s": 1.0, "accesses": 1,
                  "accesses_per_s": 1.0, "minor_words": 1.0 }, ... ]
    v}
    Perf rows mix simulator facts (cycles, accesses — deterministic) with
    host measurements (wall_s, throughputs, minor_words — not), so the
    perf document's payload is not run-to-run stable and is excluded from
    payload-equality checks. *)

type t

(** One engine timing: a (workload, mode, engine) cell of [bench -- perf].
    [p_engine] is ["plan"] ({!Ccdp_runtime.Interp}) or ["ref"]
    ({!Ccdp_runtime.Interp_ref}); [p_jobs] is the intra-run shard count
    the cell ran with (1 = serial); [p_minor_words] is the
    [Gc.minor_words] delta of the run. *)
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

(** [time ?warm f] runs [f] once and returns its result, the host
    wall-clock seconds and the [Gc.minor_words] delta of that run. With
    [warm] (default true) an untimed run comes first, so the timed one
    does not pay lowering and page-in noise. *)
val time : ?warm:bool -> (unit -> 'a) -> 'a * float * float

(** [create ~bench] starts an empty document for one bench mode. *)
val create : bench:string -> t

(** Append evaluation rows (Tables 1-2 style benches). *)
val add_rows : t -> Experiment.row list -> unit

(** Append a rendered table (ablations, sweeps). *)
val add_table : t -> Experiment.table -> unit

(** Append a perf row (perf bench only; rows keep insertion order). *)
val add_perf : t -> perf_row -> unit

(** Append hardware-coherence rival rows (rivals bench only; emitted under
    a ["rivals"] key with one flat object per workload × machine × mode
    cell — absent from every other bench's payload):
    {v
      "rivals": [ { "workload": "MXM", "machine": "t3d-xbar",
                    "mode": "MSI", "pes": 64, "cycles": 1, "norm": 1.0,
                    "ok": true, "invalidations": 0, "upgrades": 0,
                    "dir_msgs": 0, "bus_conflicts": 0,
                    "link_conflicts": 0 }, ... ]
    v} *)
val add_rivals : t -> Experiment.rival_row list -> unit

(** The deterministic part only: [{"rows": [...], "tables": [...]}] with
    empty sections omitted, independent of job count and wall-clock. *)
val payload_string : t -> string

(** Full document including the envelope. *)
val to_string : t -> jobs:int -> wall_clock_s:float -> string

(** Write [BENCH_<bench>.json] under [dir] (default ["."]); returns the
    path written. *)
val write : ?dir:string -> t -> jobs:int -> wall_clock_s:float -> string
