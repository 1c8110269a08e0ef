(** Compile-once execution plans for the interpreter.

    {!lower} translates a (call-free) program — already epoch-partitioned
    and annotated — into a form the runtime executes without touching the
    string-keyed IR again:

    - induction variables / integer parameters and task-private scalars
      become slots in dense int- and float-indexed frames ({!layout});
    - affine subscripts and bounds are strength-reduced to
      [base + sum coef * frame.(slot)] evaluators ({!aff});
    - every static array reference occurrence gets a dense access uid
      ([reads]/[writes] map it back to the {!Ccdp_ir.Reference.t}), against
      which the runtime pre-resolves address handles, read routes and
      scratch index buffers;
    - every statement-level register-memo scope (a loop iteration, a serial
      epoch body, a branch condition) gets a dense id and a static
      capacity, so the engine reuses flat buffers keyed by canonical
      address instead of allocating a hashtable per iteration;
    - prefetch operations are pre-bound to their lowered references
      ({!sp}, {!vec}).

    Lowering is pure bookkeeping: the execution semantics (including
    evaluation order, cycle charges and unbound-variable errors) are
    defined by {!Ccdp_runtime.Interp} and checked cycle-exactly against
    {!Ccdp_runtime.Interp_ref}.

    Register memos are keyed by canonical address, which is sound because
    the address kernel bounds-checks every subscript
    ({!Ccdp_runtime.Addr_map.Out_of_bounds}): two IR-distinct elements
    never share an address. *)

open Ccdp_ir

type layout = {
  int_index : (string, int) Hashtbl.t;
  flt_index : (string, int) Hashtbl.t;
  int_names : string array;  (** slot -> induction variable / parameter *)
  flt_names : string array;  (** slot -> task-private scalar *)
}

(** value = [abase] + sum over k of [acoefs.(k) * frame.(aslots.(k))] *)
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

(** Software-pipelined prefetch of one reference at a loop. *)
type sp = { sp_ref : xref; sp_dist : int; sp_every : int; sp_clean : bool }

(** Vector (block) prefetch of a reference group at loop entry; [v_inner]
    is the lowered nested loop a two-level pull additionally sweeps. *)
type vec = { v_members : xref array; v_clean : bool; v_inner : loop option }

and stmt =
  | XAssign of { xflops : int; dst : xref; src : fexpr }
  | XSassign of { xflops : int; slot : int; src : fexpr }
  | XIf of cond * stmt array * stmt array
  | XFor of loop
  | XCritical of { xc_lock : string; xc_body : stmt array }
      (** lock-protected section: acquire, run body, release; acquire
          flushes the register memo (cached shared values must be re-read
          past the frontier) *)
  | XReduce of { xflops : int; slot : int; rop : Fexpr.binop; src : fexpr }
      (** per-PE partial accumulation into the float frame; merged by the
          enclosing {!NPar}'s [xred] list at the barrier *)

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

(** Reduction merged at a DOALL's barrier: per-PE partials in the float
    frame's [rd_slot], combined PE-major with [rd_op] and broadcast. *)
type xred = { rd_slot : int; rd_op : Fexpr.binop }

type node =
  | NPar of int * loop * Ccdp_ir.Stmt.sched * xred array
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
      (** float-stack slots the deepest expression, condition or reduction
          needs when an operator evaluates its left operand in place and its
          right operand one slot above (at least 2: a reduction combines
          its partial with the new contribution) *)
}

val n_int : t -> int
val n_flt : t -> int

(** @raise Invalid_argument if the program contains a [Call]. *)
val lower : Program.t -> Epoch.t -> Annot.plan -> t
