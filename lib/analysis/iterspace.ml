open Ccdp_ir

type env = (string * (int * int * int)) list

let bound_range b env =
  match b with
  | Bound.Unknown | Bound.Opaque _ -> None
  | Bound.Known e -> (
      match Section.range_of_affine e env with
      | Some d -> Some (d.Section.lo, d.Section.hi)
      | None -> None)

let bound_const b env =
  match bound_range b env with
  | Some (lo, hi) when lo = hi -> Some lo
  | Some _ | None -> None

let of_loops ~params loops =
  let base = List.map (fun (v, x) -> (v, (x, x, 1))) params in
  List.fold_left
    (fun env (l : Stmt.loop) ->
      match (bound_range l.lo env, bound_range l.hi env) with
      | Some (lo_min, _), Some (_, hi_max) when lo_min <= hi_max ->
          env @ [ (l.var, (lo_min, hi_max, l.step)) ]
      | _ -> env)
    base loops

let trip_count (l : Stmt.loop) env =
  match (bound_range l.lo env, bound_range l.hi env) with
  | Some (lo_min, _), Some (_, hi_max) ->
      Some (Ccdp_craft.Loop_sched.trip_count ~lo:lo_min ~hi:hi_max ~step:l.step)
  | _ -> None

let restrict env (l : Stmt.loop) ~by =
  (l.var, by) :: List.filter (fun (v, _) -> v <> l.var) env

type restriction = Idle | Exact of env | Widened of env

let restrict_pe_info env (l : Stmt.loop) ~n_pes ~pe =
  match l.kind with
  | Stmt.Serial -> Exact env
  | Stmt.Doall sched -> (
      match sched with
      | Stmt.Dynamic _ -> Widened env
      | Stmt.Static_block | Stmt.Static_aligned _ | Stmt.Static_cyclic -> (
          match (bound_const l.lo env, bound_const l.hi env) with
          | Some lo, Some hi -> (
              match
                Ccdp_craft.Loop_sched.triplet_of_pe sched ~n_pes ~pe ~lo ~hi
                  ~step:l.step
              with
              | Some t -> Exact (restrict env l ~by:t)
              | None -> Idle)
          | _ -> Widened env))

let active_pes env (l : Stmt.loop) ~n_pes =
  match l.kind with
  | Stmt.Serial | Stmt.Doall (Stmt.Dynamic _) -> None
  | Stmt.Doall sched -> (
      match (bound_const l.lo env, bound_const l.hi env) with
      | Some lo, Some hi ->
          Some
            (Ccdp_craft.Loop_sched.active_range sched ~n_pes ~lo ~hi
               ~step:l.step)
      | _ -> None)

let restrict_pe env l ~n_pes ~pe =
  match restrict_pe_info env l ~n_pes ~pe with
  | Idle -> None
  | Exact e | Widened e -> Some e

let pin_outer env ~inner loops =
  List.fold_left
    (fun env (l : Stmt.loop) ->
      if l.Stmt.loop_id = inner.Stmt.loop_id then env
      else
        match List.assoc_opt l.var env with
        | Some (lo, _, _) -> restrict env l ~by:(lo, lo, 1)
        | None -> env)
    env loops
