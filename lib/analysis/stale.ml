open Ccdp_ir

type verdict =
  | Clean
  | Stale of { writer_ref : int; writer_epoch : int; at_acquire : bool }

type result = {
  verdicts : (int, verdict) Hashtbl.t;
  n_reads : int;
  n_stale : int;
  diags : string list;
}

let shares_structure_loop (a : Ref_info.t) (b : Ref_info.t) =
  List.exists
    (fun (l : Stmt.loop) ->
      List.exists
        (fun (m : Stmt.loop) -> m.Stmt.loop_id = l.Stmt.loop_id)
        b.Ref_info.outer_serial)
    a.Ref_info.outer_serial

(* May the write execute before the read observes its location?  Strictly
   earlier epochs always may; epochs sharing a serial structure loop reach
   each other through the back-edge regardless of their relative order
   (including a parallel epoch feeding itself across iterations). *)
let may_precede ~(writer : Ref_info.t) ~(reader : Ref_info.t) =
  writer.Ref_info.epoch < reader.Ref_info.epoch
  || shares_structure_loop writer reader

let straight_line (i : Ref_info.t) = i.Ref_info.outer_serial = []

let analyze ?(cluster_pes = 1) region infos =
  let tracked name =
    let d = Region.decl region name in
    d.Array_decl.shared && d.Array_decl.dist <> Dist.Replicated
  in
  let writes =
    List.filter
      (fun (i : Ref_info.t) -> i.write && tracked i.ref_.Reference.array_name)
      infos
  in
  let reads = List.filter (fun (i : Ref_info.t) -> not i.write) infos in
  let diags = ref [] in
  List.iter
    (fun (i : Ref_info.t) ->
      let d = Region.decl region i.ref_.Reference.array_name in
      if
        i.Ref_info.write && d.Array_decl.shared
        && d.Array_decl.dist = Dist.Replicated
        && i.Ref_info.par_loop <> None
      then
        diags :=
          Printf.sprintf
            "write to replicated shared array %s in a parallel epoch (each PE \
             updates its own copy; coherence is not maintained for it)"
            d.Array_decl.name
          :: !diags)
    infos;
  (* Owner-computes alignment assumes each PE is the element's only
     writer — true in the race-free epoch model, broken by locked writes:
     under a lock, every holder may write the same element, and the
     lock-order-last writer (not the reading PE) owns the final value. A
     locked write therefore discharges by alignment only when no other PE
     can write an element the reader touches. *)
  let aligned_discharges ~(reader : Ref_info.t) ~(writer : Ref_info.t) =
    Region.aligned_cluster region ~cluster_pes ~reader ~writer
    && (writer.Ref_info.lock = None
       || not (Region.cross_pe region ~reader ~writer))
  in
  (* Does a later aligned covering write mask [w] before [r] reads? Only in
     straight-line epoch sequences — loop back-edges re-expose the older
     write, so the kill is disabled as soon as a structure loop is
     involved. *)
  let masked ~(r : Ref_info.t) ~(w : Ref_info.t) exposed =
    straight_line r && straight_line w
    && List.exists
         (fun (k : Ref_info.t) ->
           straight_line k
           && k.Ref_info.epoch > w.Ref_info.epoch
           && k.Ref_info.epoch < r.Ref_info.epoch
           && aligned_discharges ~reader:r ~writer:k
           && Section.contains (Region.section_all_must region k) exposed)
         writes
  in
  (* Mini-epoch rule (acquire frontier): a read inside critical(l) may
     observe, at acquire time, data written under the same lock by another
     PE earlier in the *same* epoch — a copy cached before the acquire is
     potentially stale. The owner-computes alignment test does not
     discharge this: even a PE that wrote the element itself interleaves
     with the other holders, so the discharge is cross-PE exclusion — no
     element the reader touches on PE p is written by any other PE. *)
  let same_lock (r : Ref_info.t) (w : Ref_info.t) =
    match (r.Ref_info.lock, w.Ref_info.lock) with
    | Some a, Some b -> String.equal a b
    | _ -> false
  in
  let verdicts = Hashtbl.create (List.length reads) in
  let n_stale = ref 0 in
  List.iter
    (fun (r : Ref_info.t) ->
      let name = r.ref_.Reference.array_name in
      let v =
        if not (tracked name) then Clean
        else
          let r_section = Region.section_all region r in
          let acquire_witness =
            if r.Ref_info.lock = None then None
            else
              List.find_opt
                (fun (w : Ref_info.t) ->
                  String.equal w.ref_.Reference.array_name name
                  && w.Ref_info.epoch = r.Ref_info.epoch
                  && same_lock r w
                  && Section.overlaps r_section (Region.section_all region w)
                  && Region.cross_pe region ~reader:r ~writer:w)
                writes
          in
          let witness =
            match acquire_witness with
            | Some _ -> None
            | None ->
                List.find_opt
                  (fun (w : Ref_info.t) ->
                    String.equal w.ref_.Reference.array_name name
                    && may_precede ~writer:w ~reader:r
                    &&
                    let exposed =
                      Section.inter r_section (Region.section_all region w)
                    in
                    (not (Section.is_empty exposed))
                    && (not (aligned_discharges ~reader:r ~writer:w))
                    && not (masked ~r ~w exposed))
                  writes
          in
          match (acquire_witness, witness) with
          | None, None -> Clean
          | Some w, _ ->
              incr n_stale;
              Stale
                {
                  writer_ref = w.ref_.Reference.id;
                  writer_epoch = w.Ref_info.epoch;
                  at_acquire = true;
                }
          | None, Some w ->
              incr n_stale;
              Stale
                {
                  writer_ref = w.ref_.Reference.id;
                  writer_epoch = w.Ref_info.epoch;
                  at_acquire = false;
                }
      in
      Hashtbl.replace verdicts r.ref_.Reference.id v)
    reads;
  {
    verdicts;
    n_reads = List.length reads;
    n_stale = !n_stale;
    diags = List.rev !diags;
  }

let verdict t id =
  match Hashtbl.find_opt t.verdicts id with Some v -> v | None -> Clean

let stale_ids t =
  Hashtbl.fold
    (fun id v acc -> match v with Stale _ -> id :: acc | Clean -> acc)
    t.verdicts []
  |> List.sort compare

let pp_result ppf t =
  Format.fprintf ppf "stale reference analysis: %d of %d reads potentially stale"
    t.n_stale t.n_reads;
  List.iter (fun d -> Format.fprintf ppf "@,warning: %s" d) t.diags
