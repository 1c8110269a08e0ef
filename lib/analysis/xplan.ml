open Ccdp_ir

(* Compile-once execution plan: the interpreter's input, lowered from the
   IR exactly once per run. Induction variables and scalars become slots in
   int-indexed frames, affine subscripts become strength-reduced
   [base + sum coef*slot] evaluators, every static array reference gets a
   dense access uid (the runtime pre-resolves its address handle, read
   route and scratch index buffer against it), and every register-memo
   scope gets a dense id plus a capacity bound so the engine can reuse
   flat buffers instead of allocating a hashtable per iteration. *)

type layout = {
  int_index : (string, int) Hashtbl.t;
  flt_index : (string, int) Hashtbl.t;
  int_names : string array;  (** slot -> induction variable / parameter *)
  flt_names : string array;  (** slot -> task-private scalar *)
}

(* value = const + sum coefs.(k) * frame.(slots.(k)) *)
type aff = { abase : int; acoefs : int array; aslots : int array }

type lbound = Fin of aff | Unk

type xref = {
  xr : Reference.t;
  xsubs : aff array;
  xacc : int;  (** read uid for read occurrences, write uid for Assign dst *)
}

type fexpr =
  | XConst of float
  | XIvar of int
  | XSvar of int
  | XRead of xref
  | XUnop of Fexpr.unop * fexpr
  | XBinop of Fexpr.binop * fexpr * fexpr

type cond =
  | XIcond of Stmt.cmp * aff * aff
  | XFcond of Stmt.cmp * fexpr * fexpr

(* Software-pipelined prefetch of one reference at a loop. *)
type sp = { sp_ref : xref; sp_dist : int; sp_every : int; sp_clean : bool }

(* Vector (block) prefetch of a reference group at loop entry; [v_inner]
   is the lowered nested loop a two-level pull additionally sweeps. *)
type vec = { v_members : xref array; v_clean : bool; v_inner : loop option }

and stmt =
  | XAssign of { xflops : int; dst : xref; src : fexpr }
  | XSassign of { xflops : int; slot : int; src : fexpr }
  | XIf of cond * stmt array * stmt array
  | XFor of loop
  | XCritical of { xc_lock : string; xc_body : stmt array }
  | XReduce of { xflops : int; slot : int; rop : Fexpr.binop; src : fexpr }

and loop = {
  l_src : Stmt.loop;  (** the IR loop (its loop_id) *)
  l_uid : int;  (** dense uid across all lowered loops *)
  l_var : int;
  l_lo : lbound;
  l_hi : lbound;
  l_step : int;
  l_body : stmt array;
  l_memo : int;  (** register-memo scope of one iteration of this loop *)
  l_vecs : vec array;
  l_sps : sp array;
}

(* Reduction merged at a DOALL's barrier: per-PE partials in the float
   frame's [rd_slot], combined PE-major with [rd_op] and broadcast. *)
type xred = { rd_slot : int; rd_op : Fexpr.binop }

type node =
  | NPar of int * loop * Stmt.sched * xred array
      (** epoch id, the DOALL, its schedule, its reductions *)
  | NSer of int * stmt array * int  (** epoch id, body, memo scope *)
  | NLoop of {
      s_var : int;
      s_lo : lbound;
      s_hi : lbound;
      s_step : int;
      s_body : node array;
    }
  | NBranch of cond * int * node array * node array
      (** condition, memo scope for its evaluation, then/else *)

type t = {
  lay : layout;
  nodes : node array;
  params : (int * int) array;  (** (slot, value) preloads *)
  reads : Reference.t array;  (** read uid -> static reference *)
  writes : Reference.t array;  (** write uid -> static reference *)
  memo_caps : int array;
      (** memo scope -> max distinct elements touched in the scope (If
          branches counted both-sides, nested loops excluded: they have
          their own scope) *)
  n_loops : int;
  sp_counts : int array;  (** loop uid -> number of sp ops (engine state) *)
  stack_depth : int;
}

let n_int t = Array.length t.lay.int_names
let n_flt t = Array.length t.lay.flt_names

(* ------------------------------------------------------------------ *)
(* Slot collection                                                     *)
(* ------------------------------------------------------------------ *)

let collect_layout (p : Program.t) =
  let int_index = Hashtbl.create 64 and flt_index = Hashtbl.create 16 in
  let int_rev = ref [] and flt_rev = ref [] in
  let add_int v =
    if not (Hashtbl.mem int_index v) then begin
      Hashtbl.replace int_index v (Hashtbl.length int_index);
      int_rev := v :: !int_rev
    end
  in
  let add_flt v =
    if not (Hashtbl.mem flt_index v) then begin
      Hashtbl.replace flt_index v (Hashtbl.length flt_index);
      flt_rev := v :: !flt_rev
    end
  in
  List.iter (fun (k, _) -> add_int k) p.Program.params;
  let add_aff e = List.iter (fun (v, _) -> add_int v) (Affine.terms e) in
  let add_bound = function
    | Bound.Known e | Bound.Opaque e -> add_aff e
    | Bound.Unknown -> ()
  in
  let rec walk_f = function
    | Fexpr.Const _ -> ()
    | Fexpr.Ivar v -> add_int v
    | Fexpr.Svar v -> add_flt v
    | Fexpr.Ref r -> Array.iter add_aff r.Reference.subs
    | Fexpr.Unop (_, a) -> walk_f a
    | Fexpr.Binop (_, a, b) ->
        walk_f a;
        walk_f b
  in
  let rec walk_s = function
    | Stmt.Assign (r, e) ->
        Array.iter add_aff r.Reference.subs;
        walk_f e
    | Stmt.Sassign (v, e) ->
        add_flt v;
        walk_f e
    | Stmt.For l ->
        add_int l.Stmt.var;
        add_bound l.Stmt.lo;
        add_bound l.Stmt.hi;
        List.iter walk_s l.Stmt.body
    | Stmt.If (c, a, b) ->
        (match c with
        | Stmt.Icond (_, x, y) ->
            add_aff x;
            add_aff y
        | Stmt.Fcond (_, x, y) ->
            walk_f x;
            walk_f y);
        List.iter walk_s a;
        List.iter walk_s b
    | Stmt.Critical c -> List.iter walk_s c.Stmt.cbody
    | Stmt.Reduce r ->
        add_flt r.Stmt.rvar;
        walk_f r.Stmt.rexpr
    | Stmt.Call _ ->
        invalid_arg "Xplan.lower: program contains calls; inline first"
  in
  List.iter walk_s p.Program.main;
  let rev_names tbl rev =
    let a = Array.of_list (List.rev !rev) in
    assert (Array.length a = Hashtbl.length tbl);
    a
  in
  {
    int_index;
    flt_index;
    int_names = rev_names int_index int_rev;
    flt_names = rev_names flt_index flt_rev;
  }

(* ------------------------------------------------------------------ *)
(* Memo capacity: distinct-element upper bound of one scope             *)
(* ------------------------------------------------------------------ *)

let rec reads_in_fexpr = function
  | XConst _ | XIvar _ | XSvar _ -> 0
  | XRead _ -> 1
  | XUnop (_, a) -> reads_in_fexpr a
  | XBinop (_, a, b) -> reads_in_fexpr a + reads_in_fexpr b

let reads_in_cond = function
  | XIcond _ -> 0
  | XFcond (_, a, b) -> reads_in_fexpr a + reads_in_fexpr b

let rec cap_stmts arr = Array.fold_left (fun acc s -> acc + cap_stmt s) 0 arr

and cap_stmt = function
  | XAssign { src; _ } -> 1 + reads_in_fexpr src
  | XSassign { src; _ } | XReduce { src; _ } -> reads_in_fexpr src
  | XIf (c, a, b) -> reads_in_cond c + cap_stmts a + cap_stmts b
  | XCritical { xc_body; _ } -> cap_stmts xc_body
  | XFor _ -> 0 (* nested loop: its own memo scope *)

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* find a lowered nested loop by source id (two-level vector pulls sweep
   it); same search order as the reference engine's [find_loop] *)
let rec find_lowered lid (stmts : stmt array) =
  Array.fold_left
    (fun acc s ->
      match acc with
      | Some _ -> acc
      | None -> (
          match s with
          | XFor l when l.l_src.Stmt.loop_id = lid -> Some l
          | XFor l -> find_lowered lid l.l_body
          | XIf (_, a, b) -> (
              match find_lowered lid a with
              | Some _ as r -> r
              | None -> find_lowered lid b)
          | XCritical { xc_body; _ } -> find_lowered lid xc_body
          | XAssign _ | XSassign _ | XReduce _ -> None))
    None stmts

let lower (p : Program.t) (ep : Epoch.t) (plan : Annot.plan) =
  let lay = collect_layout p in
  let islot v =
    match Hashtbl.find_opt lay.int_index v with
    | Some s -> s
    | None -> invalid_arg ("Xplan.lower: uncollected variable " ^ v)
  in
  let fslot v =
    match Hashtbl.find_opt lay.flt_index v with
    | Some s -> s
    | None -> invalid_arg ("Xplan.lower: uncollected scalar $" ^ v)
  in
  let laff e =
    let ts = Affine.terms e in
    {
      abase = Affine.const_part e;
      acoefs = Array.of_list (List.map snd ts);
      aslots = Array.of_list (List.map (fun (v, _) -> islot v) ts);
    }
  in
  let lbound = function
    | Bound.Known e | Bound.Opaque e -> Fin (laff e)
    | Bound.Unknown -> Unk
  in
  let refs_by_id : (int, Reference.t) Hashtbl.t = Hashtbl.create 64 in
  ignore
    (Stmt.fold_refs
       (fun () ~write:_ (r : Reference.t) -> Hashtbl.replace refs_by_id r.id r)
       () p.Program.main);
  let reads_rev = ref [] and n_reads = ref 0 in
  let writes_rev = ref [] and n_writes = ref 0 in
  let new_read (r : Reference.t) =
    let uid = !n_reads in
    incr n_reads;
    reads_rev := r :: !reads_rev;
    { xr = r; xsubs = Array.map laff r.subs; xacc = uid }
  in
  let new_write (r : Reference.t) =
    let uid = !n_writes in
    incr n_writes;
    writes_rev := r :: !writes_rev;
    { xr = r; xsubs = Array.map laff r.subs; xacc = uid }
  in
  let caps_rev = ref [] and n_memos = ref 0 in
  let new_memo cap =
    let id = !n_memos in
    incr n_memos;
    caps_rev := cap :: !caps_rev;
    id
  in
  let sp_counts_rev = ref [] and n_loops = ref 0 in
  let new_loop_uid n_sps =
    let uid = !n_loops in
    incr n_loops;
    sp_counts_rev := n_sps :: !sp_counts_rev;
    uid
  in
  let clean id =
    Stale.verdict plan.Annot.stale id = Stale.Clean
  in
  let rec lower_f = function
    | Fexpr.Const c -> XConst c
    | Fexpr.Ivar v -> XIvar (islot v)
    | Fexpr.Svar v -> XSvar (fslot v)
    | Fexpr.Ref r -> XRead (new_read r)
    | Fexpr.Unop (op, a) -> XUnop (op, lower_f a)
    | Fexpr.Binop (op, a, b) -> XBinop (op, lower_f a, lower_f b)
  in
  (* float-stack slots an evaluation needs: an operator evaluates its left
     operand in place and its right one a slot above *)
  let rec depth = function
    | XConst _ | XIvar _ | XSvar _ | XRead _ -> 1
    | XUnop (_, a) -> depth a
    | XBinop (_, a, b) -> max (depth a) (1 + depth b)
  in
  let stack_depth = ref 2 in
  let need d = if d > !stack_depth then stack_depth := d in
  let lower_top e =
    let x = lower_f e in
    need (depth x);
    x
  in
  let lower_cond = function
    | Stmt.Icond (op, a, b) -> XIcond (op, laff a, laff b)
    | Stmt.Fcond (op, a, b) ->
        let xa = lower_top a in
        let xb = lower_f b in
        need (1 + depth xb);
        XFcond (op, xa, xb)
  in
  let rec lower_stmts stmts = Array.of_list (List.map lower_stmt stmts)
  and lower_stmt s =
    match s with
    | Stmt.Assign (r, e) ->
        XAssign { xflops = Stmt.direct_flops s; dst = new_write r; src = lower_top e }
    | Stmt.Sassign (v, e) ->
        XSassign { xflops = Stmt.direct_flops s; slot = fslot v; src = lower_top e }
    | Stmt.If (c, a, b) -> XIf (lower_cond c, lower_stmts a, lower_stmts b)
    | Stmt.For l -> XFor (lower_loop l)
    | Stmt.Critical c ->
        XCritical { xc_lock = c.Stmt.lock; xc_body = lower_stmts c.Stmt.cbody }
    | Stmt.Reduce r ->
        XReduce
          {
            xflops = Stmt.direct_flops s;
            slot = fslot r.Stmt.rvar;
            rop = r.Stmt.rop;
            src = lower_top r.Stmt.rexpr;
          }
    | Stmt.Call _ ->
        invalid_arg "Xplan.lower: program contains calls; inline first"
  and lower_loop (l : Stmt.loop) =
    let body = lower_stmts l.Stmt.body in
    let vecs =
      List.filter_map
        (fun op ->
          match op with
          | Annot.Vector { ref_id; group; inner; _ } ->
              let members =
                List.map (Hashtbl.find refs_by_id) (ref_id :: group)
              in
              Some
                {
                  v_members = Array.of_list (List.map new_read members);
                  v_clean = clean ref_id;
                  v_inner =
                    (match inner with
                    | None -> None
                    | Some lid -> find_lowered lid body);
                }
          | Annot.Pipelined _ | Annot.Back _ -> None)
        (Annot.vectors_at plan l.Stmt.loop_id)
    in
    let sps =
      List.filter_map
        (fun op ->
          match op with
          | Annot.Pipelined { ref_id; distance; every; _ } ->
              Some
                {
                  sp_ref = new_read (Hashtbl.find refs_by_id ref_id);
                  sp_dist = distance;
                  sp_every = every;
                  sp_clean = clean ref_id;
                }
          | Annot.Vector _ | Annot.Back _ -> None)
        (Annot.pipelined_at plan l.Stmt.loop_id)
    in
    {
      l_src = l;
      l_uid = new_loop_uid (List.length sps);
      l_var = islot l.Stmt.var;
      l_lo = lbound l.Stmt.lo;
      l_hi = lbound l.Stmt.hi;
      l_step = l.Stmt.step;
      l_body = body;
      l_memo = new_memo (cap_stmts body);
      l_vecs = Array.of_list vecs;
      l_sps = Array.of_list sps;
    }
  in
  (* every reduction statement of a parallel epoch, in syntactic order,
     deduplicated by slot (the checker rejects conflicting ops) *)
  let reds_of (l : Stmt.loop) =
    let seen = Hashtbl.create 4 in
    let reds =
      Stmt.fold
        (fun acc s ->
          match s with
          | Stmt.Reduce r ->
              let slot = fslot r.Stmt.rvar in
              if Hashtbl.mem seen slot then acc
              else begin
                Hashtbl.add seen slot ();
                { rd_slot = slot; rd_op = r.Stmt.rop } :: acc
              end
          | _ -> acc)
        [] [ Stmt.For l ]
    in
    Array.of_list (List.rev reds)
  in
  let rec lower_nodes nodes = Array.of_list (List.map lower_node nodes)
  and lower_node = function
    | Epoch.E (id, Epoch.Par (l, sched)) ->
        NPar (id, lower_loop l, sched, reds_of l)
    | Epoch.E (id, Epoch.Ser stmts) ->
        let body = lower_stmts stmts in
        NSer (id, body, new_memo (cap_stmts body))
    | Epoch.Loop (l, body) ->
        NLoop
          {
            s_var = islot l.Stmt.var;
            s_lo = lbound l.Stmt.lo;
            s_hi = lbound l.Stmt.hi;
            s_step = l.Stmt.step;
            s_body = lower_nodes body;
          }
    | Epoch.Branch (c, a, b) ->
        let lc = lower_cond c in
        NBranch (lc, new_memo (reads_in_cond lc), lower_nodes a, lower_nodes b)
  in
  let nodes = lower_nodes ep.Epoch.nodes in
  {
    lay;
    nodes;
    params =
      Array.of_list
        (List.map (fun (k, v) -> (islot k, v)) p.Program.params);
    reads = Array.of_list (List.rev !reads_rev);
    writes = Array.of_list (List.rev !writes_rev);
    memo_caps = Array.of_list (List.rev !caps_rev);
    n_loops = !n_loops;
    sp_counts = Array.of_list (List.rev !sp_counts_rev);
    stack_depth = !stack_depth;
  }
