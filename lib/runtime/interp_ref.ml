(* The reference interpreter: a direct tree-walk over the IR, kept verbatim
   from before the compiled-plan engine (Xplan + the current Interp)
   replaced it on the hot path. It defines the cycle-exact semantics the
   compiled engine must reproduce — the differential tests run both over
   the fuzz corpus and assert identical cycles, stats and memory images —
   and anchors the perf benchmark's speedup ratio. Intentionally not
   optimized: do not "fix" allocations or lookups here. *)

open Ccdp_ir
open Ccdp_machine
open Ccdp_analysis

type result = {
  mode : Memsys.mode;
  cycles : int;
  stats : Stats.t;
  per_pe_cycles : int array;
  epochs : int;
  epoch_profile : (int * int * int) list;
  sys : Memsys.t;
}

let run cfg ?(oracle = false) ?(sabotage = Memsys.No_fault) (program : Program.t)
    ~plan ~mode ?init () =
  let sys = Memsys.create cfg ~oracle ~sabotage program ~plan mode in
  (match init with Some f -> f sys | None -> ());
  let ep = Epoch.partition program.Program.main in
  let n = cfg.Config.n_pes in
  (* per-PE induction-variable and scalar environments; parameters preloaded *)
  let ivs = Array.init n (fun _ -> Hashtbl.create 16) in
  let svs = Array.init n (fun _ -> Hashtbl.create 16) in
  List.iter
    (fun (k, v) -> Array.iter (fun h -> Hashtbl.replace h k v) ivs)
    program.Program.params;
  let refs_by_id : (int, Reference.t) Hashtbl.t = Hashtbl.create 64 in
  ignore
    (Stmt.fold_refs
       (fun () ~write:_ (r : Reference.t) -> Hashtbl.replace refs_by_id r.id r)
       () program.Program.main);
  let epochs_executed = ref 0 in
  let profile : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let record_epoch id dt =
    let n, c = match Hashtbl.find_opt profile id with Some x -> x | None -> (0, 0) in
    Hashtbl.replace profile id (n + 1, c + dt)
  in
  let clean_lead id =
    Ccdp_analysis.Stale.verdict plan.Annot.stale id = Ccdp_analysis.Stale.Clean
  in
  let lookup pe v =
    match Hashtbl.find_opt ivs.(pe) v with
    | Some x -> x
    | None -> invalid_arg ("Interp: unbound variable " ^ v)
  in
  let eval_affine pe e = Affine.eval e (lookup pe) in
  let eval_idx pe (r : Reference.t) = Array.map (eval_affine pe) r.subs in
  let set_iv pe v x = Hashtbl.replace ivs.(pe) v x in
  let set_iv_all v x = Array.iter (fun h -> Hashtbl.replace h v x) ivs in
  (* [memo] models statement-level register reuse: a compiler loads each
     distinct element once per statement, further occurrences read the
     register for free. *)
  let rec eval_f pe memo (e : Fexpr.t) =
    match e with
    | Fexpr.Const c -> c
    | Fexpr.Ivar v -> float_of_int (lookup pe v)
    | Fexpr.Svar v -> (
        match Hashtbl.find_opt svs.(pe) v with
        | Some x -> x
        | None -> invalid_arg ("Interp: unbound scalar $" ^ v))
    | Fexpr.Ref r -> (
        let idx = eval_idx pe r in
        let key = (r.Reference.array_name, idx) in
        match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
            let v = Memsys.read sys ~pe r ~idx in
            Hashtbl.replace memo key v;
            v)
    | Fexpr.Unop (op, a) -> Fexpr.apply_unop op (eval_f pe memo a)
    | Fexpr.Binop (op, a, b) ->
        let x = eval_f pe memo a in
        let y = eval_f pe memo b in
        Fexpr.apply_binop op x y
  in
  let eval_cond pe memo = function
    | Stmt.Icond (op, a, b) -> Stmt.eval_cmp op (eval_affine pe a) (eval_affine pe b)
    | Stmt.Fcond (op, a, b) ->
        Memsys.charge sys ~pe cfg.Config.flop;
        let x = eval_f pe memo a in
        let y = eval_f pe memo b in
        Stmt.eval_fcmp op x y
  in
  (* Issue one software-pipelined prefetch for a future iteration of one
     reference. With [every > 1] the compiler strip-mined the issue to one
     prefetch instruction per cache line (self-spatial elimination): the
     runtime realizes that soundly as a line-crossing test against the
     previously issued line, so boundary and phase effects can never leave
     a line unissued. *)
  let sp_issue pe (l : Stmt.loop) ~ref_id ~every ~last_line target_iter hi =
    if (l.step > 0 && target_iter <= hi) || (l.step < 0 && target_iter >= hi)
    then begin
      let r = Hashtbl.find refs_by_id ref_id in
      let saved = Hashtbl.find_opt ivs.(pe) l.var in
      set_iv pe l.var target_iter;
      let idx = eval_idx pe r in
      (match saved with
      | Some x -> set_iv pe l.var x
      | None -> Hashtbl.remove ivs.(pe) l.var);
      let skip_cached = clean_lead ref_id in
      if every <= 1 then
        Memsys.issue_line_prefetch ~skip_cached sys ~pe r.Reference.array_name
          ~idx
      else begin
        let line = Memsys.line_of sys ~pe r.Reference.array_name ~idx in
        if line <> !last_line then begin
          last_line := line;
          Memsys.issue_line_prefetch ~skip_cached sys ~pe
            r.Reference.array_name ~idx
        end
      end
    end
  in
  (* find a nested loop statement by id (two-level vector pulls sweep it) *)
  let rec find_loop lid stmts =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some _ -> acc
        | None -> (
            match s with
            | Stmt.For l when l.Stmt.loop_id = lid -> Some l
            | Stmt.For l -> find_loop lid l.Stmt.body
            | Stmt.If (_, a, b) -> (
                match find_loop lid a with
                | Some _ as r -> r
                | None -> find_loop lid b)
            | Stmt.Critical c -> find_loop lid c.Stmt.cbody
            | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Call _ | Stmt.Reduce _ ->
                None))
      None stmts
  in
  (* issue the vector prefetches attached to a loop, for the given range *)
  let vector_issue pe (l : Stmt.loop) ~first ~last ~step =
    List.iter
      (fun op ->
        match op with
        | Annot.Vector { ref_id; group; inner; _ } ->
            let members =
              List.map (Hashtbl.find refs_by_id) (ref_id :: group)
            in
            let name = (List.hd members).Reference.array_name in
            let saved = Hashtbl.find_opt ivs.(pe) l.var in
            let idxs = ref [] in
            let collect () =
              List.iter (fun r -> idxs := eval_idx pe r :: !idxs) members
            in
            let sweep_inner () =
              match inner with
              | None -> collect ()
              | Some lid -> (
                  match find_loop lid l.Stmt.body with
                  | None -> collect ()
                  | Some il ->
                      let ifirst = Bound.eval_exec il.Stmt.lo (lookup pe) in
                      let ilast = Bound.eval_exec il.Stmt.hi (lookup pe) in
                      let isaved = Hashtbl.find_opt ivs.(pe) il.Stmt.var in
                      let w = ref ifirst in
                      let cont () =
                        if il.Stmt.step > 0 then !w <= ilast else !w >= ilast
                      in
                      while cont () do
                        set_iv pe il.Stmt.var !w;
                        collect ();
                        w := !w + il.Stmt.step
                      done;
                      (match isaved with
                      | Some x -> set_iv pe il.Stmt.var x
                      | None -> Hashtbl.remove ivs.(pe) il.Stmt.var))
            in
            let v = ref first in
            let continue () = if step > 0 then !v <= last else !v >= last in
            while continue () do
              set_iv pe l.var !v;
              sweep_inner ();
              v := !v + step
            done;
            (match saved with
            | Some x -> set_iv pe l.var x
            | None -> Hashtbl.remove ivs.(pe) l.var);
            Memsys.vget_issue ~skip_cached:(clean_lead ref_id) sys ~pe name
              (List.rev !idxs)
        | Annot.Pipelined _ | Annot.Back _ -> ())
      (Annot.vectors_at plan l.Stmt.loop_id)
  in
  let sp_plans (l : Stmt.loop) =
    List.filter_map
      (fun op ->
        match op with
        | Annot.Pipelined { ref_id; distance; every; _ } ->
            Some (ref_id, distance, every)
        | Annot.Vector _ | Annot.Back _ -> None)
      (Annot.pipelined_at plan l.Stmt.loop_id)
  in
  (* execute the iterations [first..last..step] of loop [l] on [pe] *)
  let rec exec_range pe (l : Stmt.loop) ~first ~last ~step =
    vector_issue pe l ~first ~last ~step;
    let plans = List.map (fun p -> (p, ref min_int)) (sp_plans l) in
    (* software-pipelining prologue: prefetch the first d iterations *)
    List.iter
      (fun ((ref_id, d, every), last_line) ->
        for k = 0 to d - 1 do
          sp_issue pe l ~ref_id ~every ~last_line (first + (k * step)) last
        done)
      plans;
    let saved = Hashtbl.find_opt ivs.(pe) l.var in
    let v = ref first in
    let continue () = if step > 0 then !v <= last else !v >= last in
    while continue () do
      set_iv pe l.var !v;
      Memsys.charge sys ~pe cfg.Config.loop_overhead;
      List.iter
        (fun ((ref_id, d, every), last_line) ->
          sp_issue pe l ~ref_id ~every ~last_line (!v + (d * step)) last)
        plans;
      (* fresh register file per iteration: scalar replacement is only
         valid within a single iteration of the innermost loop *)
      let memo = Hashtbl.create 8 in
      List.iter (exec_stmt pe memo) l.body;
      v := !v + step
    done;
    match saved with
    | Some x -> set_iv pe l.var x
    | None -> Hashtbl.remove ivs.(pe) l.var

  and exec_loop pe (l : Stmt.loop) =
    let first = Bound.eval_exec l.lo (lookup pe) in
    let last = Bound.eval_exec l.hi (lookup pe) in
    exec_range pe l ~first ~last ~step:l.step

  and exec_stmt pe memo s =
    match s with
    | Stmt.Assign (r, e) ->
        Memsys.charge sys ~pe (Stmt.direct_flops s * cfg.Config.flop);
        let v = eval_f pe memo e in
        let idx = eval_idx pe r in
        Memsys.write sys ~pe r ~idx v;
        (* keep the register copy coherent with the store *)
        Hashtbl.replace memo (r.Reference.array_name, idx) v
    | Stmt.Sassign (x, e) ->
        Memsys.charge sys ~pe (Stmt.direct_flops s * cfg.Config.flop);
        Hashtbl.replace svs.(pe) x (eval_f pe memo e)
    | Stmt.If (c, tb, eb) ->
        if eval_cond pe memo c then List.iter (exec_stmt pe memo) tb
        else List.iter (exec_stmt pe memo) eb
    | Stmt.For l -> exec_loop pe l
    | Stmt.Critical c ->
        Memsys.lock_acquire sys ~pe c.Stmt.lock;
        (* the acquire is a staleness frontier: register copies of shared
           values loaded before it cannot be trusted past it *)
        Hashtbl.reset memo;
        List.iter (exec_stmt pe memo) c.Stmt.cbody;
        Memsys.lock_release sys ~pe c.Stmt.lock
    | Stmt.Reduce r ->
        Memsys.charge sys ~pe (Stmt.direct_flops s * cfg.Config.flop);
        let v = eval_f pe memo r.Stmt.rexpr in
        Hashtbl.replace svs.(pe) r.Stmt.rvar
          (match Hashtbl.find_opt svs.(pe) r.Stmt.rvar with
          | Some x -> Fexpr.apply_binop r.Stmt.rop x v
          | None -> v (* first contribution seeds the partial *))
    | Stmt.Call _ -> invalid_arg "Interp: program contains calls; inline first"
  in
  (* reduction variables of a DOALL, in syntactic order, deduplicated *)
  let reds_of (l : Stmt.loop) =
    let seen = Hashtbl.create 4 in
    List.rev
      (Stmt.fold
         (fun acc s ->
           match s with
           | Stmt.Reduce r when not (Hashtbl.mem seen r.Stmt.rvar) ->
               Hashtbl.add seen r.Stmt.rvar ();
               (r.Stmt.rvar, r.Stmt.rop) :: acc
           | _ -> acc)
         [] [ Stmt.For l ])
  in
  let exec_parallel id (l : Stmt.loop) sched =
    incr epochs_executed;
    let t0 = Machine.time (Memsys.machine sys) in
    (* reduction prologue: capture the incoming value, unbind the variable
       on every PE so each accumulates a private partial seeded by its
       first contribution (no identity element, so -0.0 and min/max need
       no special cases) *)
    let reds =
      List.map
        (fun (v, op) ->
          let inc = Hashtbl.find_opt svs.(0) v in
          Array.iter (fun h -> Hashtbl.remove h v) svs;
          (v, op, inc))
        (reds_of l)
    in
    if mode = Memsys.Seq then exec_loop 0 l
    else begin
      let first = Bound.eval_exec l.lo (lookup 0) in
      let last = Bound.eval_exec l.hi (lookup 0) in
      (match sched with
      | Stmt.Static_block | Stmt.Static_aligned _ | Stmt.Static_cyclic ->
          let lo_pe, hi_pe =
            Ccdp_craft.Loop_sched.active_range sched ~n_pes:n ~lo:first
              ~hi:last ~step:l.step
          in
          for pe = lo_pe to hi_pe do
            match
              Ccdp_craft.Loop_sched.triplet_of_pe sched ~n_pes:n ~pe ~lo:first
                ~hi:last ~step:l.step
            with
            | None -> ()
            | Some (f, la, s) -> exec_range pe l ~first:f ~last:la ~step:s
          done
      | Stmt.Dynamic chunk ->
          let chunks =
            Ccdp_craft.Loop_sched.dynamic_chunks ~chunk ~lo:first ~hi:last
              ~step:l.step
          in
          List.iter
            (fun (f, la, s) ->
              (* greedy self-scheduling: next chunk to the least-loaded PE *)
              let best = ref 0 in
              for pe = 1 to n - 1 do
                if Memsys.clock sys ~pe < Memsys.clock sys ~pe:!best then best := pe
              done;
              exec_range !best l ~first:f ~last:la ~step:s)
            chunks);
      ()
    end;
    (* reduction merge: combine the partials PE-major onto the incoming
       value and broadcast the result (the barrier's combining tree does
       the arithmetic, so no cycles are charged beyond the barrier) *)
    List.iter
      (fun (v, op, inc) ->
        let acc = ref inc in
        for pe = 0 to n - 1 do
          match Hashtbl.find_opt svs.(pe) v with
          | Some p ->
              acc :=
                Some
                  (match !acc with
                  | Some a -> Fexpr.apply_binop op a p
                  | None -> p)
          | None -> ()
        done;
        match !acc with
        | Some x -> Array.iter (fun h -> Hashtbl.replace h v x) svs
        | None -> ())
      reds;
    Memsys.epoch_boundary sys;
    record_epoch id (Machine.time (Memsys.machine sys) - t0)
  in
  let exec_serial_epoch id stmts =
    incr epochs_executed;
    let t0 = Machine.time (Memsys.machine sys) in
    let memo = Hashtbl.create 8 in
    List.iter (exec_stmt 0 memo) stmts;
    Memsys.epoch_boundary sys;
    record_epoch id (Machine.time (Memsys.machine sys) - t0)
  in
  let rec exec_nodes nodes =
    List.iter
      (fun node ->
        match node with
        | Epoch.E (id, Epoch.Par (l, sched)) -> exec_parallel id l sched
        | Epoch.E (id, Epoch.Ser stmts) -> exec_serial_epoch id stmts
        | Epoch.Loop (l, body) ->
            let first = Bound.eval_exec l.Stmt.lo (lookup 0) in
            let last = Bound.eval_exec l.Stmt.hi (lookup 0) in
            let v = ref first in
            let continue () =
              if l.Stmt.step > 0 then !v <= last else !v >= last
            in
            while continue () do
              set_iv_all l.Stmt.var !v;
              exec_nodes body;
              v := !v + l.Stmt.step
            done
        | Epoch.Branch (c, a, b) ->
            if eval_cond 0 (Hashtbl.create 4) c then exec_nodes a
            else exec_nodes b)
      nodes
  in
  exec_nodes ep.Epoch.nodes;
  let mach = Memsys.machine sys in
  {
    mode;
    cycles = Machine.time mach;
    stats = Machine.total_stats mach;
    per_pe_cycles = Array.init n (Machine.clock mach);
    epochs = !epochs_executed;
    epoch_profile =
      Hashtbl.fold (fun id (n, c) acc -> (id, n, c) :: acc) profile []
      |> List.sort compare;
    sys = Memsys.finish sys;
  }

