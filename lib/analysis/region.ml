open Ccdp_ir

(* The PEs a reference may touch anything on: [first..last]. [Uniform]
   when each of them touches the same section — a serial epoch on PE 0,
   a DOALL whose schedule or bounds the analysis cannot resolve on every
   PE — computed once per reference; [Per_pe] when each touches its own
   share of the static schedule, computed per PE. The PEs outside the
   interval touch nothing. *)
type reach = Uniform of int * int | Per_pe of Stmt.loop * int * int

(* Everything the queries below know about one reference, built on its
   first query. [may] and [must] hold a [Per_pe] reference's sections,
   one per PE of [first..last], filled on demand; a [Uniform] reference's
   one may-section is [all], its one must-section [must.(0)]. *)
type info = {
  env : Iterspace.env;
  all : Section.t;
  reach : reach;
  may : Section.t option array;
  must : Section.t option array;
  mutable all_must : Section.t option;
}

type t = {
  program : Program.t;
  np : int;
  layouts : (string, Ccdp_craft.Layout.t) Hashtbl.t;
  infos : (int, info) Hashtbl.t;
  memo_aligned : (int * int * int, bool) Hashtbl.t;
  memo_cross : (int * int, bool) Hashtbl.t;
}

let make program ~n_pes =
  let layouts = Hashtbl.create 16 in
  List.iter
    (fun (a : Array_decl.t) ->
      Hashtbl.replace layouts a.name (Ccdp_craft.Layout.make ~n_pes a))
    program.Program.arrays;
  {
    program;
    np = n_pes;
    layouts;
    infos = Hashtbl.create 64;
    memo_aligned = Hashtbl.create 16;
    memo_cross = Hashtbl.create 16;
  }

let n_pes t = t.np
let layout t name = Hashtbl.find t.layouts name
let decl t name = Program.find_array t.program name
let params t = t.program.Program.params

let env_of t (i : Ref_info.t) =
  Iterspace.of_loops ~params:(params t) (Ref_info.scope_loops i)

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v

let id (i : Ref_info.t) = i.ref_.Reference.id

let info t (i : Ref_info.t) =
  match Hashtbl.find_opt t.infos (id i) with
  | Some x -> x
  | None ->
      let env = env_of t i in
      let reach, slots =
        match i.par_loop with
        | None -> (Uniform (0, 0), 1)
        | Some par -> (
            match Iterspace.active_pes env par ~n_pes:t.np with
            | Some (f, l) -> (Per_pe (par, f, l), max 0 (l - f + 1))
            | None -> (Uniform (0, t.np - 1), 1))
      in
      let x =
        {
          env;
          all = Section.of_subscripts i.ref_.Reference.subs env;
          reach;
          may = Array.make slots None;
          must = Array.make slots None;
          all_must = None;
        }
      in
      Hashtbl.replace t.infos (id i) x;
      x

let section_all t i = (info t i).all

let active t i =
  match (info t i).reach with Uniform (f, l) | Per_pe (_, f, l) -> (f, l)

(* slot [k] of [a], computed by [f] on first use *)
let cached a k f =
  match a.(k) with
  | Some s -> s
  | None ->
      let s = f () in
      a.(k) <- Some s;
      s

let section_pe t (i : Ref_info.t) ~pe =
  let x = info t i in
  match x.reach with
  | Uniform (f, l) -> if pe < f || pe > l then Section.empty else x.all
  | Per_pe (par, f, l) ->
      if pe < f || pe > l then Section.empty
      else
        cached x.may (pe - f) (fun () ->
            match Iterspace.restrict_pe x.env par ~n_pes:t.np ~pe with
            | None -> Section.empty
            | Some env' -> Section.of_subscripts i.ref_.Reference.subs env')

let exact_of (i : Ref_info.t) env =
  match Section.of_subscripts_exact i.ref_.Reference.subs env with
  | Some s -> s
  | None -> Section.empty

(* Must-access: Empty unless the PE restriction is exact AND the subscript
   section is provably exact — an under-approximation is the only sound
   thing to rely on ("this PE definitely wrote these elements"). *)
let section_pe_must t (i : Ref_info.t) ~pe =
  let x = info t i in
  let restricted par ~pe =
    match Iterspace.restrict_pe_info x.env par ~n_pes:t.np ~pe with
    | Iterspace.Idle | Iterspace.Widened _ -> Section.empty
    | Iterspace.Exact env' -> exact_of i env'
  in
  match x.reach with
  | Uniform (f, l) ->
      if pe < f || pe > l then Section.empty
      else
        cached x.must 0 (fun () ->
            match i.par_loop with
            | None -> exact_of i x.env
            | Some par -> restricted par ~pe)
  | Per_pe (par, f, l) ->
      if pe < f || pe > l then Section.empty
      else cached x.must (pe - f) (fun () -> restricted par ~pe)

let section_all_must t (i : Ref_info.t) =
  let x = info t i in
  match x.all_must with
  | Some s -> s
  | None ->
      let s =
        match i.par_loop with
        | None -> exact_of i x.env
        | Some par -> (
            (* exact union over PEs is not representable; settle for the
               exact full-range section when the loop bounds resolve (every
               iteration runs on some PE regardless of the schedule) *)
            match
              ( Iterspace.bound_range par.Ccdp_ir.Stmt.lo x.env,
                Iterspace.bound_range par.Ccdp_ir.Stmt.hi x.env )
            with
            | Some _, Some _ -> exact_of i x.env
            | _ -> Section.empty)
      in
      x.all_must <- Some s;
      s

(* [f pe] holds for every / some PE of [first..last] *)
let rec all_pes first last f =
  first > last || (f first && all_pes (first + 1) last f)

let rec exists_pe first last f =
  first <= last && (f first || exists_pe (first + 1) last f)

(* The alignment tests visit only the reader's active PEs: elsewhere the
   touched section is Empty, which every writer section contains. *)
let aligned_pes t ~cluster_pes ~(reader : Ref_info.t) ~(writer : Ref_info.t) =
  let w_all = section_all t writer in
  let touched pe = Section.inter (section_pe t reader ~pe) w_all in
  (* the reader side is a may-set (conservatively large); the writer side
     must be a must-set: elements the PE provably wrote itself, or with
     [cluster_pes > 1] some single PE of the reader's island did (outside
     the writer's active PEs the must-set is Empty) *)
  let owned pe s =
    Section.is_empty s
    ||
    if cluster_pes <= 1 then Section.contains (section_pe_must t writer ~pe) s
    else
      let wf, wl = active t writer in
      let lo = pe / cluster_pes * cluster_pes in
      exists_pe (max lo wf)
        (min wl (lo + cluster_pes - 1))
        (fun q -> Section.contains (section_pe_must t writer ~pe:q) s)
  in
  match (info t reader).reach with
  | Uniform (f, l) ->
      let s = touched f in
      all_pes f l (fun pe -> owned pe s)
  | Per_pe (_, f, l) -> all_pes f l (fun pe -> owned pe (touched pe))

(* Cluster-relaxed owner-computes test: the reading PE need not have
   written the touched elements itself, as long as some single PE of its
   own coherence island provably did — that island sibling's writes reach
   the reader through the island's hardware snoop, so the reader's cached
   copy can never survive them stale. The writer side stays a must-set
   per candidate sibling (a union over the island is not representable
   exactly, so one covering sibling is what may be relied on); [pe]
   itself is a candidate, which makes the test subsume [aligned], and
   [cluster_pes = 1] degenerates to it exactly. *)
let aligned_cluster t ~cluster_pes ~(reader : Ref_info.t)
    ~(writer : Ref_info.t) =
  let cluster_pes = max 1 cluster_pes in
  String.equal reader.ref_.Reference.array_name writer.ref_.Reference.array_name
  && memo t.memo_aligned (cluster_pes, id reader, id writer) (fun () ->
         aligned_pes t ~cluster_pes ~reader ~writer)

let aligned t ~reader ~writer = aligned_cluster t ~cluster_pes:1 ~reader ~writer

(* Some PE of [first..last] other than [p]. *)
let other (first, last) p = first < last || (first = last && first <> p)

(* Over the active PEs only (an idle PE's section overlaps nothing), and
   once per uniform side instead of once per PE. *)
let cross_pe t ~(reader : Ref_info.t) ~(writer : Ref_info.t) =
  memo t.memo_cross (id reader, id writer) (fun () ->
      let ra = active t reader and wa = active t writer in
      match ((info t reader).reach, (info t writer).reach) with
      | Uniform (f, l), Uniform _ ->
          Section.overlaps (section_all t reader) (section_all t writer)
          && exists_pe f l (other wa)
      | Uniform _, Per_pe (_, f, l) ->
          let s = section_all t reader in
          exists_pe f l (fun q ->
              other ra q && Section.overlaps s (section_pe t writer ~pe:q))
      | Per_pe (_, f, l), Uniform _ ->
          let s = section_all t writer in
          exists_pe f l (fun p ->
              other wa p && Section.overlaps (section_pe t reader ~pe:p) s)
      | Per_pe (_, rf, rl), Per_pe (_, wf, wl) ->
          exists_pe rf rl (fun p ->
              let r_pe = section_pe t reader ~pe:p in
              (not (Section.is_empty r_pe))
              && exists_pe wf wl (fun q ->
                     q <> p
                     && Section.overlaps r_pe (section_pe t writer ~pe:q))))

let all_local t (i : Ref_info.t) =
  let lay = layout t i.ref_.Reference.array_name in
  let f, l = active t i in
  all_pes f l (fun pe ->
      Section.contains
        (Ccdp_craft.Layout.owned_section lay pe)
        (section_pe t i ~pe))
