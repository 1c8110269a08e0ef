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

(* Statement-level register memo as a flat linear-scan buffer keyed by
   canonical word address: scopes hold a handful of distinct elements, so a
   scan beats hashing — and resetting is one store. [memo_caps] bounds the
   population statically; growth is a safety net only. *)
type memo = {
  mutable mn : int;
  mutable mkeys : int array;
  mutable mvals : float array;
}

let memo_make cap =
  let cap = max 1 cap in
  { mn = 0; mkeys = Array.make cap 0; mvals = Array.make cap 0.0 }

(* a plain loop: a local recursive scan would be a closure over [keys],
   [n] and [addr], allocated on every lookup *)
let memo_index m addr =
  let n = m.mn in
  let keys = m.mkeys in
  let i = ref 0 in
  while !i < n && keys.(!i) <> addr do
    incr i
  done;
  if !i < n then !i else -1

(* Values enter the memo from a [float array] slot ([src.(k)]) rather than
   as a float argument, which would be boxed at every call. *)
let memo_add m addr src k =
  (if m.mn = Array.length m.mkeys then begin
     let cap = 2 * m.mn in
     let nk = Array.make cap 0 and nv = Array.make cap 0.0 in
     Array.blit m.mkeys 0 nk 0 m.mn;
     Array.blit m.mvals 0 nv 0 m.mn;
     m.mkeys <- nk;
     m.mvals <- nv
   end);
  m.mkeys.(m.mn) <- addr;
  m.mvals.(m.mn) <- src.(k);
  m.mn <- m.mn + 1

let memo_put m addr src k =
  let i = memo_index m addr in
  if i >= 0 then m.mvals.(i) <- src.(k) else memo_add m addr src k

(* Float-stack operators: operands sit in [st.(sp)] and [st.(sp + 1)], the
   result replaces the left one. Add/Sub/Mul/Div and the unary operators
   are computed inline on unboxed floats; Min/Max (reductions and fuzz
   programs only) defer to [Fexpr.apply_binop] to keep its NaN and signed-
   zero semantics. *)
let binop_at (op : Fexpr.binop) st sp =
  match op with
  | Fexpr.Add -> st.(sp) <- st.(sp) +. st.(sp + 1)
  | Fexpr.Sub -> st.(sp) <- st.(sp) -. st.(sp + 1)
  | Fexpr.Mul -> st.(sp) <- st.(sp) *. st.(sp + 1)
  | Fexpr.Div -> st.(sp) <- st.(sp) /. st.(sp + 1)
  | Fexpr.Min | Fexpr.Max -> st.(sp) <- Fexpr.apply_binop op st.(sp) st.(sp + 1)

let unop_at (op : Fexpr.unop) st sp =
  match op with
  | Fexpr.Neg -> st.(sp) <- -.st.(sp)
  | Fexpr.Sqrt -> st.(sp) <- sqrt st.(sp)
  | Fexpr.Abs -> st.(sp) <- abs_float st.(sp)

(* [Stmt.eval_fcmp] on the two stack slots, without boxing them *)
let fcmp_at (op : Stmt.cmp) st =
  let a = st.(0) and b = st.(1) in
  match op with
  | Stmt.Lt -> a < b
  | Stmt.Le -> a <= b
  | Stmt.Gt -> a > b
  | Stmt.Ge -> a >= b
  | Stmt.Eq -> a = b
  | Stmt.Ne -> a <> b

(* Per-shard mutable evaluation state: everything the recursive evaluator
   scribbles on besides the per-PE frames and the memory system itself.
   One instance per domain shard, so concurrent shards never share a
   scratch buffer; the serial run uses exactly one (no extra allocation
   against the Gc gate). *)
type scratch = {
  s_ridx : int array array;  (** per read occurrence: subscript buffer *)
  s_widx : int array array;
  s_memos : memo array;
  s_sp_lines : int array array;  (** per loop uid: last line issued per sp *)
  mutable s_vaddrs : int array;
      (** the word addresses of the vector get being gathered; grows on
          demand and is reused by every later get *)
  s_stack : float array;
      (** float evaluation stack, [Xplan.stack_depth] slots: expression
          values live here, unboxed, from the memory read to the store *)
}

(* The closure family built over one scratch: the recursive evaluator
   entry points [exec_parallel] and the serial paths dispatch through. *)
type engine = {
  e_range : int -> Xplan.loop -> first:int -> last:int -> step:int -> unit;
  e_loop : int -> Xplan.loop -> unit;
  e_stmt : int -> memo -> Xplan.stmt -> unit;
  e_cond : int -> memo -> Xplan.cond -> bool;
  e_memos : memo array;
}

let run cfg ?(oracle = false) ?(sabotage = Memsys.No_fault) ?pool
    (program : Program.t) ~plan ~mode ?init () =
  let sys = Memsys.create cfg ~oracle ~sabotage program ~plan mode in
  (match init with Some f -> f sys | None -> ());
  let ep = Epoch.partition program.Program.main in
  let xp = Xplan.lower program ep plan in
  let n = cfg.Config.n_pes in
  (* Intra-run sharding: DOALL epochs execute their PEs in [nshards]
     domain shards when the memory system buffers all cross-PE effects to
     the barrier (Memsys.shardable). One shard means today's serial walk,
     closure-for-closure. *)
  let nshards =
    match pool with
    | Some p when Memsys.shardable sys ->
        max 1 (min (Ccdp_exec.Pool.jobs p) n)
    | _ -> 1
  in
  (* per-PE frames: induction variables / parameters (ints) and
     task-private scalars (floats), with bound flags replacing the
     string-keyed environments' membership. Every dormant PE shares one
     template frame, which therefore receives exactly the writes made to
     all PEs (parameters, structure-loop variables, reduction unbinds and
     broadcasts); a PE's own frame is a copy of it, made on the PE's
     first activation. *)
  let nint = max 1 (Xplan.n_int xp) and nflt = max 1 (Xplan.n_flt xp) in
  let itmpl = Array.make nint 0 and ibtmpl = Array.make nint false in
  let ftmpl = Array.make nflt 0.0 and fbtmpl = Array.make nflt false in
  Array.iter
    (fun (slot, v) ->
      itmpl.(slot) <- v;
      ibtmpl.(slot) <- true)
    xp.Xplan.params;
  let iframe = Array.make n itmpl and ibound = Array.make n ibtmpl in
  let fframe = Array.make n ftmpl and fbound = Array.make n fbtmpl in
  let activate pe =
    if iframe.(pe) == itmpl then begin
      iframe.(pe) <- Array.copy itmpl;
      ibound.(pe) <- Array.copy ibtmpl;
      fframe.(pe) <- Array.copy ftmpl;
      fbound.(pe) <- Array.copy fbtmpl;
      Memsys.activate sys ~pe
    end
  in
  (* PE 0 runs serial epochs, branch conditions and structure-loop
     bounds *)
  activate 0;
  (* per static access: prepared memory-system access, shared by every
     shard (read-only after preparation) *)
  let raccs = Array.map (Memsys.prepare_read sys) xp.Xplan.reads in
  let waccs = Array.map (Memsys.prepare_write sys) xp.Xplan.writes in
  let rhs = Array.map Memsys.read_handle raccs in
  let whs = Array.map Memsys.write_handle waccs in
  let scratch_of (r : Reference.t) = Array.make (Array.length r.subs) 0 in
  let make_scratch () =
    {
      s_ridx = Array.map scratch_of xp.Xplan.reads;
      s_widx = Array.map scratch_of xp.Xplan.writes;
      s_memos = Array.map memo_make xp.Xplan.memo_caps;
      s_sp_lines =
        Array.map (fun k -> Array.make (max 1 k) min_int) xp.Xplan.sp_counts;
      s_vaddrs = Array.make 8 0;
      s_stack = Array.make xp.Xplan.stack_depth 0.0;
    }
  in
  let epochs_executed = ref 0 in
  let profile : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let record_epoch id dt =
    let n, c = match Hashtbl.find_opt profile id with Some x -> x | None -> (0, 0) in
    Hashtbl.replace profile id (n + 1, c + dt)
  in
  let unbound_var s =
    invalid_arg ("Interp: unbound variable " ^ xp.Xplan.lay.Xplan.int_names.(s))
  in
  let unbound_scalar s =
    invalid_arg ("Interp: unbound scalar $" ^ xp.Xplan.lay.Xplan.flt_names.(s))
  in
  let eval_aff pe (a : Xplan.aff) =
    let fr = iframe.(pe) and bd = ibound.(pe) in
    let coefs = a.Xplan.acoefs and slots = a.Xplan.aslots in
    let r = ref a.Xplan.abase in
    for k = 0 to Array.length coefs - 1 do
      let s = slots.(k) in
      if not bd.(s) then unbound_var s;
      r := !r + (coefs.(k) * fr.(s))
    done;
    !r
  in
  let eval_bound pe = function
    | Xplan.Fin a -> eval_aff pe a
    | Xplan.Unk -> invalid_arg "Bound.eval_exec: unknown bound is not executable"
  in
  let make_engine sc =
    let ridx = sc.s_ridx
    and widx = sc.s_widx
    and memos = sc.s_memos
    and sp_lines = sc.s_sp_lines
    and stack = sc.s_stack in
    (* evaluate an occurrence's subscripts into its scratch buffer *)
    let eval_subs bufs pe (xr : Xplan.xref) =
    let buf = bufs.(xr.Xplan.xacc) in
    let subs = xr.Xplan.xsubs in
    for d = 0 to Array.length subs - 1 do
      buf.(d) <- eval_aff pe subs.(d)
    done;
    buf
  in
  (* evaluate [e] into [stack.(sp)]; an operator's left operand is
     evaluated first, in place, its right operand one slot above *)
  let rec eval_f pe memo (e : Xplan.fexpr) sp =
    match e with
    | Xplan.XConst c -> stack.(sp) <- c
    | Xplan.XIvar s ->
        if not ibound.(pe).(s) then unbound_var s;
        stack.(sp) <- float_of_int iframe.(pe).(s)
    | Xplan.XSvar s ->
        if not fbound.(pe).(s) then unbound_scalar s;
        stack.(sp) <- fframe.(pe).(s)
    | Xplan.XRead xr ->
        (* [memo] models statement-level register reuse: a compiler loads
           each distinct element once per statement, further occurrences
           read the register for free *)
        let idx = eval_subs ridx pe xr in
        let uid = xr.Xplan.xacc in
        let addr = Addr_map.resolve_h rhs.(uid) ~pe idx in
        let i = memo_index memo addr in
        if i >= 0 then stack.(sp) <- memo.mvals.(i)
        else begin
          Memsys.read_into sys ~pe raccs.(uid) ~idx ~addr stack sp;
          memo_add memo addr stack sp
        end
    | Xplan.XUnop (op, a) ->
        eval_f pe memo a sp;
        unop_at op stack sp
    | Xplan.XBinop (op, a, b) ->
        eval_f pe memo a sp;
        eval_f pe memo b (sp + 1);
        binop_at op stack sp
  in
  let eval_cond pe memo = function
    | Xplan.XIcond (op, a, b) ->
        Stmt.eval_cmp op (eval_aff pe a) (eval_aff pe b)
    | Xplan.XFcond (op, a, b) ->
        Memsys.charge sys ~pe cfg.Config.flop;
        eval_f pe memo a 0;
        eval_f pe memo b 1;
        fcmp_at op stack
  in
  (* Issue one software-pipelined prefetch for a future iteration of one
     reference. With [every > 1] the compiler strip-mined the issue to one
     prefetch instruction per cache line (self-spatial elimination): the
     runtime realizes that soundly as a line-crossing test against the
     previously issued line, so boundary and phase effects can never leave
     a line unissued. *)
  let sp_issue pe (l : Xplan.loop) (sp : Xplan.sp) k target_iter hi =
    if (l.Xplan.l_step > 0 && target_iter <= hi)
       || (l.Xplan.l_step < 0 && target_iter >= hi)
    then begin
      let var = l.Xplan.l_var in
      let sv = iframe.(pe).(var) and sb = ibound.(pe).(var) in
      iframe.(pe).(var) <- target_iter;
      ibound.(pe).(var) <- true;
      let idx = eval_subs ridx pe sp.Xplan.sp_ref in
      iframe.(pe).(var) <- sv;
      ibound.(pe).(var) <- sb;
      let uid = sp.Xplan.sp_ref.Xplan.xacc in
      let acc = raccs.(uid) in
      let addr = Addr_map.resolve_h rhs.(uid) ~pe idx in
      if sp.Xplan.sp_every <= 1 then
        Memsys.pf_issue_c ~skip_cached:sp.Xplan.sp_clean sys ~pe acc ~addr
      else begin
        let line = addr / cfg.Config.line_words in
        let lines = sp_lines.(l.Xplan.l_uid) in
        if line <> lines.(k) then begin
          lines.(k) <- line;
          Memsys.pf_issue_c ~skip_cached:sp.Xplan.sp_clean sys ~pe acc ~addr
        end
      end
    end
  in
  (* append the addresses of one iteration's vector members at position
     [k]; returns the new count *)
  let gather pe (members : Xplan.xref array) (k : int) =
    let need = k + Array.length members in
    if need > Array.length sc.s_vaddrs then begin
      let nb = Array.make (max need (2 * Array.length sc.s_vaddrs)) 0 in
      Array.blit sc.s_vaddrs 0 nb 0 k;
      sc.s_vaddrs <- nb
    end;
    let buf = sc.s_vaddrs in
    for j = 0 to Array.length members - 1 do
      let m = members.(j) in
      let idx = eval_subs ridx pe m in
      buf.(k + j) <- Addr_map.resolve_h rhs.(m.Xplan.xacc) ~pe idx
    done;
    need
  in
  (* issue the vector prefetches attached to a loop, for the given range *)
  let vector_issue pe (l : Xplan.loop) ~first ~last ~step =
    let vecs = l.Xplan.l_vecs in
    let fr = iframe.(pe) and bd = ibound.(pe) in
    let var = l.Xplan.l_var in
    for vi = 0 to Array.length vecs - 1 do
      let vec = vecs.(vi) in
      let members = vec.Xplan.v_members in
      let acc = raccs.(members.(0).Xplan.xacc) in
      let sv = fr.(var) and sb = bd.(var) in
      let n = ref 0 in
      let v = ref first in
      while if step > 0 then !v <= last else !v >= last do
        fr.(var) <- !v;
        bd.(var) <- true;
        (match vec.Xplan.v_inner with
        | None -> n := gather pe members !n
        | Some il ->
            let ifirst = eval_bound pe il.Xplan.l_lo in
            let ilast = eval_bound pe il.Xplan.l_hi in
            let istep = il.Xplan.l_step in
            let ivar = il.Xplan.l_var in
            let isv = fr.(ivar) and isb = bd.(ivar) in
            let w = ref ifirst in
            while if istep > 0 then !w <= ilast else !w >= ilast do
              fr.(ivar) <- !w;
              bd.(ivar) <- true;
              n := gather pe members !n;
              w := !w + istep
            done;
            fr.(ivar) <- isv;
            bd.(ivar) <- isb);
        v := !v + step
      done;
      fr.(var) <- sv;
      bd.(var) <- sb;
      Memsys.vget_issue_c ~skip_cached:vec.Xplan.v_clean sys ~pe acc
        ~addrs:sc.s_vaddrs ~n:!n
    done
  in
  (* execute the iterations [first..last..step] of loop [l] on [pe]; plain
     loops throughout, since a closure or partial application here would
     be allocated once per iteration *)
  let rec exec_range pe (l : Xplan.loop) ~first ~last ~step =
    vector_issue pe l ~first ~last ~step;
    let sps = l.Xplan.l_sps in
    let lines = sp_lines.(l.Xplan.l_uid) in
    Array.fill lines 0 (Array.length lines) min_int;
    (* software-pipelining prologue: prefetch the first d iterations *)
    for k = 0 to Array.length sps - 1 do
      let sp = sps.(k) in
      for j = 0 to sp.Xplan.sp_dist - 1 do
        sp_issue pe l sp k (first + (j * step)) last
      done
    done;
    let var = l.Xplan.l_var in
    let sv = iframe.(pe).(var) and sb = ibound.(pe).(var) in
    let memo = memos.(l.Xplan.l_memo) in
    let body = l.Xplan.l_body in
    let v = ref first in
    while if step > 0 then !v <= last else !v >= last do
      iframe.(pe).(var) <- !v;
      ibound.(pe).(var) <- true;
      Memsys.charge sys ~pe cfg.Config.loop_overhead;
      for k = 0 to Array.length sps - 1 do
        let sp = sps.(k) in
        sp_issue pe l sp k (!v + (sp.Xplan.sp_dist * step)) last
      done;
      (* fresh register file per iteration: scalar replacement is only
         valid within a single iteration of the innermost loop *)
      memo.mn <- 0;
      exec_block pe memo body;
      v := !v + step
    done;
    iframe.(pe).(var) <- sv;
    ibound.(pe).(var) <- sb

  and exec_block pe memo (stmts : Xplan.stmt array) =
    for i = 0 to Array.length stmts - 1 do
      exec_stmt pe memo stmts.(i)
    done

  and exec_loop pe (l : Xplan.loop) =
    let first = eval_bound pe l.Xplan.l_lo in
    let last = eval_bound pe l.Xplan.l_hi in
    exec_range pe l ~first ~last ~step:l.Xplan.l_step

  and exec_stmt pe memo (s : Xplan.stmt) =
    match s with
    | Xplan.XAssign { xflops; dst; src } ->
        Memsys.charge sys ~pe (xflops * cfg.Config.flop);
        eval_f pe memo src 0;
        let idx = eval_subs widx pe dst in
        let uid = dst.Xplan.xacc in
        let addr = Addr_map.resolve_h whs.(uid) ~pe idx in
        Memsys.write_from sys ~pe waccs.(uid) ~addr stack 0;
        (* keep the register copy coherent with the store *)
        memo_put memo addr stack 0
    | Xplan.XSassign { xflops; slot; src } ->
        Memsys.charge sys ~pe (xflops * cfg.Config.flop);
        eval_f pe memo src 0;
        fframe.(pe).(slot) <- stack.(0);
        fbound.(pe).(slot) <- true
    | Xplan.XIf (c, tb, eb) ->
        if eval_cond pe memo c then exec_block pe memo tb
        else exec_block pe memo eb
    | Xplan.XFor l -> exec_loop pe l
    | Xplan.XCritical { xc_lock; xc_body } ->
        Memsys.lock_acquire sys ~pe xc_lock;
        (* the acquire is a coherence frontier: registers holding shared
           values cannot be trusted past it *)
        memo.mn <- 0;
        exec_block pe memo xc_body;
        Memsys.lock_release sys ~pe xc_lock
    | Xplan.XReduce { xflops; slot; rop; src } ->
        Memsys.charge sys ~pe (xflops * cfg.Config.flop);
        eval_f pe memo src 0;
        let fr = fframe.(pe) and fb = fbound.(pe) in
        if fb.(slot) then begin
          (* partial (op) contribution, on the stack *)
          stack.(1) <- stack.(0);
          stack.(0) <- fr.(slot);
          binop_at rop stack 0;
          fr.(slot) <- stack.(0)
        end
        else begin
          (* first contribution seeds the partial *)
          fr.(slot) <- stack.(0);
          fb.(slot) <- true
        end
    in
    {
      e_range = exec_range;
      e_loop = exec_loop;
      e_stmt = exec_stmt;
      e_cond = eval_cond;
      e_memos = memos;
    }
  in
  (* shard 0's engine is the main engine: Seq runs, serial epochs, branch
     conditions, dynamic scheduling and every serial fallback go through
     it, so a one-shard run is exactly the pre-shard interpreter *)
  let engines = Array.init nshards (fun _ -> make_engine (make_scratch ())) in
  let main = engines.(0) in
  let exec_parallel id (l : Xplan.loop) sched (reds : Xplan.xred array) =
    incr epochs_executed;
    let t0 = Machine.time (Memsys.machine sys) in
    (* reduction prologue: capture the incoming binding (PE0's view) and
       unbind the scalar on every PE — each PE's first contribution seeds
       its partial, so no identity element is ever materialized *)
    let incoming =
      Array.map
        (fun (rd : Xplan.xred) ->
          let s = rd.Xplan.rd_slot in
          let inc = if fbound.(0).(s) then Some fframe.(0).(s) else None in
          for pe = 0 to n - 1 do
            fbound.(pe).(s) <- false
          done;
          inc)
        reds
    in
    if mode = Memsys.Seq then main.e_loop 0 l
    else begin
      let first = eval_bound 0 l.Xplan.l_lo in
      let last = eval_bound 0 l.Xplan.l_hi in
      let step = l.Xplan.l_step in
      match sched with
      | Stmt.Static_block | Stmt.Static_aligned _ | Stmt.Static_cyclic ->
          let triplet pe =
            Ccdp_craft.Loop_sched.triplet_of_pe sched ~n_pes:n ~pe ~lo:first
              ~hi:last ~step
          in
          (* Only the PEs in the schedule's active range can have
             iterations. They are activated here, before any shard runs,
             so the accesses find every PE built. *)
          let lo_pe, hi_pe =
            Ccdp_craft.Loop_sched.active_range sched ~n_pes:n ~lo:first
              ~hi:last ~step
          in
          if nshards > 1 then begin
            (* Collect the PEs with iterations, then hand each shard one
               contiguous slice of them: balanced (equal active counts)
               yet cache-friendly — neighbouring PEs' records live on the
               same CPU cache lines, so splitting them across domains
               would make every clock/stats bump a coherence miss. Any
               assignment yields the same simulated state (per-PE state
               is disjoint, shared effects barrier-merge PE-major); the
               choice is purely a host-performance one. *)
            let actives = Array.make (max 0 (hi_pe - lo_pe + 1)) 0 in
            let m = ref 0 in
            for pe = lo_pe to hi_pe do
              if triplet pe <> None then begin
                activate pe;
                actives.(!m) <- pe;
                incr m
              end
            done;
            let m = !m in
            let q = m / nshards and r = m mod nshards in
            ignore
              (Ccdp_exec.Pool.map_shards (Option.get pool) ~shards:nshards
                 (fun s ->
                   let eng = engines.(s) in
                   let lo = (s * q) + min s r in
                   let hi = lo + q + (if s < r then 1 else 0) - 1 in
                   for k = lo to hi do
                     let pe = actives.(k) in
                     match triplet pe with
                     | None -> ()
                     | Some (f, la, st) ->
                         eng.e_range pe l ~first:f ~last:la ~step:st
                   done))
          end
          else
            for pe = lo_pe to hi_pe do
              match triplet pe with
              | None -> ()
              | Some (f, la, s) ->
                  activate pe;
                  main.e_range pe l ~first:f ~last:la ~step:s
            done
      | Stmt.Dynamic chunk ->
          (* greedy self-scheduling reads every PE clock before each
             chunk — inherently serial, always on the main engine *)
          let chunks =
            Ccdp_craft.Loop_sched.dynamic_chunks ~chunk ~lo:first ~hi:last
              ~step
          in
          List.iter
            (fun (f, la, s) ->
              (* greedy self-scheduling: next chunk to the least-loaded PE *)
              let best = ref 0 in
              for pe = 1 to n - 1 do
                if Memsys.clock sys ~pe < Memsys.clock sys ~pe:!best then best := pe
              done;
              activate !best;
              main.e_range !best l ~first:f ~last:la ~step:s)
            chunks
    end;
    (* reduction merge: fold the per-PE partials PE-major onto the
       incoming value and broadcast the result — the combining happens in
       the barrier's combining tree, so it charges no PE cycles *)
    Array.iteri
      (fun k (rd : Xplan.xred) ->
        let s = rd.Xplan.rd_slot in
        let acc = ref incoming.(k) in
        for pe = 0 to n - 1 do
          if fbound.(pe).(s) then
            acc :=
              Some
                (match !acc with
                | Some x -> Fexpr.apply_binop rd.Xplan.rd_op x fframe.(pe).(s)
                | None -> fframe.(pe).(s))
        done;
        match !acc with
        | Some v ->
            for pe = 0 to n - 1 do
              fframe.(pe).(s) <- v;
              fbound.(pe).(s) <- true
            done
        | None -> ())
      reds;
    Memsys.epoch_boundary sys;
    record_epoch id (Machine.time (Memsys.machine sys) - t0)
  in
  let exec_serial_epoch id (stmts : Xplan.stmt array) memo_id =
    incr epochs_executed;
    let t0 = Machine.time (Memsys.machine sys) in
    let memo = main.e_memos.(memo_id) in
    memo.mn <- 0;
    Array.iter (main.e_stmt 0 memo) stmts;
    Memsys.epoch_boundary sys;
    record_epoch id (Machine.time (Memsys.machine sys) - t0)
  in
  let rec exec_nodes nodes =
    Array.iter
      (fun node ->
        match node with
        | Xplan.NPar (id, l, sched, reds) -> exec_parallel id l sched reds
        | Xplan.NSer (id, stmts, memo_id) -> exec_serial_epoch id stmts memo_id
        | Xplan.NLoop { s_var; s_lo; s_hi; s_step; s_body } ->
            let first = eval_bound 0 s_lo in
            let last = eval_bound 0 s_hi in
            let v = ref first in
            while if s_step > 0 then !v <= last else !v >= last do
              for pe = 0 to n - 1 do
                iframe.(pe).(s_var) <- !v;
                ibound.(pe).(s_var) <- true
              done;
              exec_nodes s_body;
              v := !v + s_step
            done
        | Xplan.NBranch (c, memo_id, a, b) ->
            let memo = main.e_memos.(memo_id) in
            memo.mn <- 0;
            if main.e_cond 0 memo c then exec_nodes a else exec_nodes b)
      nodes
  in
  exec_nodes xp.Xplan.nodes;
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

let pp_profile ppf (ep : Epoch.t) r =
  let descr : (int, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (id, e) ->
      Hashtbl.replace descr id
        (match e with
        | Epoch.Par (l, _) -> Printf.sprintf "parallel doall %s" l.Stmt.var
        | Epoch.Ser ss -> Printf.sprintf "serial (%d stmts)" (List.length ss)))
    (Epoch.all ep);
  let total = max 1 r.cycles in
  Format.fprintf ppf "@[<v>epoch profile (%d machine cycles total):@," r.cycles;
  List.iter
    (fun (id, n, c) ->
      Format.fprintf ppf "  epoch %d %-24s x%-5d %9d cycles (%4.1f%%)@," id
        (match Hashtbl.find_opt descr id with Some d -> d | None -> "?")
        n c
        (100.0 *. float_of_int c /. float_of_int total))
    r.epoch_profile;
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%s: %d cycles over %d epoch executions@,%a@]"
    (Memsys.mode_name r.mode) r.cycles r.epochs Stats.pp r.stats
