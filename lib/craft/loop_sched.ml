open Ccdp_ir

type triplet = int * int * int

let trip_count ~lo ~hi ~step =
  if lo > hi then 0 else ((hi - lo) / step) + 1

let is_static = function
  | Stmt.Static_block | Stmt.Static_aligned _ | Stmt.Static_cyclic -> true
  | Stmt.Dynamic _ -> false

let triplet_of_pe sched ~n_pes ~pe ~lo ~hi ~step =
  let n = trip_count ~lo ~hi ~step in
  if n = 0 then None
  else
    match sched with
    | Stmt.Static_block ->
        let chunk = (n + n_pes - 1) / n_pes in
        let first_idx = pe * chunk and last_idx = min (n - 1) (((pe + 1) * chunk) - 1) in
        if first_idx > last_idx then None
        else Some (lo + (first_idx * step), lo + (last_idx * step), step)
    | Stmt.Static_aligned extent ->
        (* iteration value v runs on the PE owning index v of a
           block-distributed dimension of the given extent *)
        let chunk = (extent + n_pes - 1) / n_pes in
        let wlo = pe * chunk and whi = min (extent - 1) (((pe + 1) * chunk) - 1) in
        if wlo > whi then None
        else
          (* smallest iteration value >= wlo congruent to lo mod step *)
          let first =
            if lo >= wlo then lo else lo + ((wlo - lo + step - 1) / step * step)
          in
          let last_bound = min hi whi in
          if first > last_bound then None
          else
            let last = first + ((last_bound - first) / step * step) in
            Some (first, last, step)
    | Stmt.Static_cyclic ->
        if pe >= n then None
        else
          let first = lo + (pe * step) in
          Some (first, hi, step * n_pes)
    | Stmt.Dynamic _ -> None

let active_range sched ~n_pes ~lo ~hi ~step =
  let n = trip_count ~lo ~hi ~step in
  match sched with
  | Stmt.Dynamic _ -> (0, n_pes - 1)
  | _ when n = 0 -> (0, -1)
  | Stmt.Static_block ->
      let chunk = (n + n_pes - 1) / n_pes in
      (0, (n - 1) / chunk)
  | Stmt.Static_cyclic -> (0, min n n_pes - 1)
  | Stmt.Static_aligned extent ->
      (* the PEs owning the smallest and the largest iteration value that
         falls inside the distributed dimension *)
      let chunk = (extent + n_pes - 1) / n_pes in
      let top = min hi (extent - 1) in
      let first = if lo >= 0 then lo else lo + ((step - 1 - lo) / step * step) in
      if first > top then (0, -1)
      else (first / chunk, (first + ((top - first) / step * step)) / chunk)

let dynamic_chunks ~chunk ~lo ~hi ~step =
  if chunk <= 0 then invalid_arg "Loop_sched.dynamic_chunks: chunk <= 0";
  let n = trip_count ~lo ~hi ~step in
  let rec go idx acc =
    if idx >= n then List.rev acc
    else
      let last_idx = min (n - 1) (idx + chunk - 1) in
      go (last_idx + 1) ((lo + (idx * step), lo + (last_idx * step), step) :: acc)
  in
  go 0 []

let pe_of_iter sched ~n_pes ~lo ~hi ~step i =
  let n = trip_count ~lo ~hi ~step in
  if n = 0 || i < lo || i > hi || (i - lo) mod step <> 0 then None
  else
    let idx = (i - lo) / step in
    match sched with
    | Stmt.Static_block ->
        let chunk = (n + n_pes - 1) / n_pes in
        Some (idx / chunk)
    | Stmt.Static_aligned extent ->
        let chunk = (extent + n_pes - 1) / n_pes in
        Some (min (n_pes - 1) (i / chunk))
    | Stmt.Static_cyclic -> Some (idx mod n_pes)
    | Stmt.Dynamic _ -> None
