open Ccdp_ir
open Ccdp_analysis

(* Independent may-stale derivation.

   Stale.analyze answers "is this read stale?" per read, searching the
   global write list under a precedence predicate built from each
   reference's [outer_serial] stack. This pass re-derives the same facts
   the other way around: a single forward walk of the epoch *tree*
   carrying the set of writes whose stale cached copies may exist, with
   loop back-edges realized by re-visiting a structure loop's body once
   more against the completed write set. Agreement between the two is the
   certifier's cross-check; by construction this derivation collects
   every witness write, not just the first one found. *)

type wentry = { w : Ref_info.t; straight : bool }

type t = {
  witnesses : (int, int list) Hashtbl.t;
      (** tracked read ref id -> witness write ref ids (sorted; [] = clean) *)
}

let derive ?(cluster_pes = 1) region (epochs : Epoch.t) infos =
  let tracked name =
    let d = Region.decl region name in
    d.Array_decl.shared && d.Array_decl.dist <> Dist.Replicated
  in
  let reads_of = Hashtbl.create 16 and writes_of = Hashtbl.create 16 in
  let push tbl k v =
    let prev = match Hashtbl.find_opt tbl k with Some l -> l | None -> [] in
    Hashtbl.replace tbl k (prev @ [ v ])
  in
  List.iter
    (fun (i : Ref_info.t) ->
      if tracked i.ref_.Reference.array_name then
        push (if i.write then writes_of else reads_of) i.Ref_info.epoch i)
    infos;
  let witnesses = Hashtbl.create 32 in
  let pending : wentry list ref = ref [] in
  (* Owner-computes alignment assumes each PE is the element's only
     writer; under a lock every holder may write the same element, and the
     lock-order-last writer owns the final value. A locked write
     discharges by alignment only when no other PE can write an element
     the reader touches. *)
  let aligned_discharges ~(reader : Ref_info.t) ~(writer : Ref_info.t) =
    Region.aligned_cluster region ~cluster_pes ~reader ~writer
    && (writer.Ref_info.lock = None
       || not (Region.cross_pe region ~reader ~writer))
  in
  (* Mini-epoch (acquire-frontier) witnesses, derived independently of
     Stale.analyze: a read inside critical(l) may observe, at acquire,
     data written under the same lock by another PE earlier in the same
     epoch. Alignment does not discharge this — the discharge is cross-PE
     exclusion (no element the reader touches on PE p is written by any
     other PE through the witness candidate). *)
  let acquire_witnesses eid (r : Ref_info.t) =
    match r.Ref_info.lock with
    | None -> []
    | Some lk ->
        let ws =
          match Hashtbl.find_opt writes_of eid with Some l -> l | None -> []
        in
        let r_section = Region.section_all region r in
        List.filter_map
          (fun (w : Ref_info.t) ->
            match w.Ref_info.lock with
            | Some lk'
              when String.equal lk lk'
                   && String.equal w.ref_.Reference.array_name
                        r.ref_.Reference.array_name
                   && Section.overlaps r_section (Region.section_all region w)
                   && Region.cross_pe region ~reader:r ~writer:w ->
                Some w.ref_.Reference.id
            | _ -> None)
          ws
  in
  (* the same masking kill as the stale analysis: only straight-line epoch
     sequences, where no back-edge can re-expose the masked write *)
  let masked ~(r : Ref_info.t) ~(e : wentry) exposed ~r_straight =
    r_straight && e.straight
    && List.exists
         (fun k ->
           k.straight
           && k.w.Ref_info.epoch > e.w.Ref_info.epoch
           && k.w.Ref_info.epoch < r.Ref_info.epoch
           && aligned_discharges ~reader:r ~writer:k.w
           && Section.contains (Region.section_all_must region k.w) exposed)
         !pending
  in
  let visit_reads eid ~straight =
    match Hashtbl.find_opt reads_of eid with
    | None -> ()
    | Some reads ->
        List.iter
          (fun (r : Ref_info.t) ->
            let id = r.ref_.Reference.id in
            if not (Hashtbl.mem witnesses id) then
              Hashtbl.replace witnesses id [];
            List.iter
              (fun wid ->
                let prev = Hashtbl.find witnesses id in
                if not (List.mem wid prev) then
                  Hashtbl.replace witnesses id (prev @ [ wid ]))
              (acquire_witnesses eid r);
            let r_section = Region.section_all region r in
            List.iter
              (fun e ->
                if
                  String.equal e.w.Ref_info.ref_.Reference.array_name
                    r.ref_.Reference.array_name
                then
                  let exposed =
                    Section.inter r_section (Region.section_all region e.w)
                  in
                  if
                    (not (Section.is_empty exposed))
                    && (not (aligned_discharges ~reader:r ~writer:e.w))
                    && not (masked ~r ~e exposed ~r_straight:straight)
                  then
                    let wid = e.w.Ref_info.ref_.Reference.id in
                    let prev = Hashtbl.find witnesses id in
                    if not (List.mem wid prev) then
                      Hashtbl.replace witnesses id (prev @ [ wid ]))
              !pending)
          reads
  in
  let visit_writes eid ~straight =
    match Hashtbl.find_opt writes_of eid with
    | None -> ()
    | Some ws ->
        List.iter
          (fun w ->
            if
              not
                (List.exists
                   (fun e ->
                     e.w.Ref_info.ref_.Reference.id = w.Ref_info.ref_.Reference.id)
                   !pending)
            then pending := !pending @ [ { w; straight } ])
          ws
  in
  (* [record] is false on a loop's second visit: reads re-check against the
     now-complete write set (the back-edge), writes are already recorded *)
  let rec walk ~straight ~record nodes =
    List.iter
      (fun node ->
        match node with
        | Epoch.E (eid, _) ->
            visit_reads eid ~straight;
            if record then visit_writes eid ~straight
        | Epoch.Loop (_, body) ->
            walk ~straight:false ~record body;
            walk ~straight:false ~record:false body
        | Epoch.Branch (_, t, e) ->
            walk ~straight ~record t;
            walk ~straight ~record e)
      nodes
  in
  walk ~straight:true ~record:true epochs.Epoch.nodes;
  let sorted = Hashtbl.create (Hashtbl.length witnesses) in
  Hashtbl.iter
    (fun id ws -> Hashtbl.replace sorted id (List.sort compare ws))
    witnesses;
  { witnesses = sorted }

let witnesses_of t id =
  match Hashtbl.find_opt t.witnesses id with Some l -> l | None -> []

let is_stale t id = witnesses_of t id <> []

let stale_ids t =
  Hashtbl.fold
    (fun id ws acc -> if ws = [] then acc else id :: acc)
    t.witnesses []
  |> List.sort compare
