open Ccdp_ir

exception Out_of_bounds of { loc : Loc.t; msg : string }

(* Where the distributed dimension deals its elements. [Replicated] and
   [On_pe0] have no distributed dimension. *)
type kind = Replicated | On_pe0 | Block | Cyclic | Block_cyclic

(* A compiled address kernel. The address of [idx] from [pe] is

     owner * span + base + sum_d idx.(d) * strides.(d) + local * dstride

   where [strides.(ddim)] is 0 and [owner]/[local] split the distributed
   subscript by [kind] and [chunk]. Strides are column-major over the
   owner's window: the distributed dimension counts its per-PE extent,
   every other dimension its declared one. *)
type handle = {
  name : string;
  kind : kind;
  ddim : int;  (** distributed dimension, -1 when there is none *)
  chunk : int;
  dstride : int;  (** word stride of the distributed dimension *)
  np : int;
  dims : int array;  (** declared extents *)
  strides : int array;
  base : int;
  span : int;
  loc : Loc.t;
}

type t = { np : int; span : int; handles : (string, handle) Hashtbl.t }

let compile ~n_pes ~span ~base (lay : Ccdp_craft.Layout.t) =
  let decl = lay.Ccdp_craft.Layout.decl in
  let rank = Array_decl.rank decl in
  let ddim = match lay.Ccdp_craft.Layout.ddim with Some d -> d | None -> -1 in
  let kind =
    match decl.Array_decl.dist with
    | Dist.Replicated -> Replicated
    | Dist.Dims _ when ddim < 0 -> On_pe0
    | Dist.Dims dims -> (
        match dims.(ddim) with
        | Dist.Block -> Block
        | Dist.Cyclic -> Cyclic
        | Dist.Block_cyclic _ -> Block_cyclic
        | Dist.Degenerate -> assert false)
  in
  let strides = Array.make rank 0 in
  let dstride = ref 0 in
  let s = ref decl.Array_decl.elem_words in
  for d = 0 to rank - 1 do
    if d = ddim then begin
      dstride := !s;
      s := !s * lay.Ccdp_craft.Layout.local_extent
    end
    else begin
      strides.(d) <- !s;
      s := !s * decl.Array_decl.dims.(d)
    end
  done;
  {
    name = decl.Array_decl.name;
    kind;
    ddim;
    chunk = lay.Ccdp_craft.Layout.chunk;
    dstride = !dstride;
    np = n_pes;
    dims = decl.Array_decl.dims;
    strides;
    base;
    span;
    loc = Loc.synthetic;
  }

let make (p : Program.t) ~n_pes ~line_words ?(cache_lines = 0) () =
  let next = ref 0 in
  let idx = ref 0 in
  let align w = (w + line_words - 1) / line_words * line_words in
  (* pad [next] up to the first address whose cache set is [slot] *)
  let color_to slot pos =
    if cache_lines = 0 then pos
    else
      let lines = pos / line_words in
      let rem = lines mod cache_lines in
      let pad_lines = (slot - rem + cache_lines) mod cache_lines in
      pos + (pad_lines * line_words)
  in
  let placed =
    List.map
      (fun (a : Array_decl.t) ->
        let lay = Ccdp_craft.Layout.make ~n_pes a in
        let slot = !idx mod 16 * (cache_lines / 16) in
        let base = color_to slot (align !next) in
        next := base + align lay.Ccdp_craft.Layout.per_pe_words;
        incr idx;
        (lay, base))
      p.Program.arrays
  in
  let span = max line_words (align !next) in
  let handles = Hashtbl.create 16 in
  List.iter
    (fun (lay, base) ->
      let h = compile ~n_pes ~span ~base lay in
      Hashtbl.replace handles h.name h)
    placed;
  { np = n_pes; span; handles }

let n_pes t = t.np
let pe_span t = t.span
let total_words t = t.np * t.span

let handle t ?loc name =
  match Hashtbl.find_opt t.handles name with
  | None -> invalid_arg ("Addr_map: unknown array " ^ name)
  | Some h -> ( match loc with None -> h | Some loc -> { h with loc })

let out_of_bounds (h : handle) d i =
  raise
    (Out_of_bounds
       {
         loc = h.loc;
         msg =
           Printf.sprintf "%s: index %d out of bounds 0..%d in dim %d" h.name i
             (h.dims.(d) - 1)
             d;
       })

let resolve_h (h : handle) ~pe idx =
  let dims = h.dims and strides = h.strides in
  let rank = Array.length dims in
  if Array.length idx <> rank then
    invalid_arg (h.name ^ ": subscript rank mismatch");
  let off = ref h.base in
  for d = 0 to rank - 1 do
    let i = idx.(d) in
    if i < 0 || i >= dims.(d) then out_of_bounds h d i;
    off := !off + (i * strides.(d))
  done;
  match h.kind with
  | Replicated -> (pe * h.span) + !off
  | On_pe0 -> !off
  | Block ->
      let i = idx.(h.ddim) in
      let ow = i / h.chunk in
      (ow * h.span) + !off + ((i - (ow * h.chunk)) * h.dstride)
  | Cyclic ->
      let i = idx.(h.ddim) in
      (i mod h.np * h.span) + !off + (i / h.np * h.dstride)
  | Block_cyclic ->
      let i = idx.(h.ddim) and w = h.chunk in
      (i / w mod h.np * h.span)
      + !off
      + (((i / (w * h.np) * w) + (i mod w)) * h.dstride)

let target_of (h : handle) ~pe ~addr =
  let ow = addr / h.span in
  if ow = pe then -1 else ow

let resolve t ~pe name idx =
  let h = handle t name in
  let a = resolve_h h ~pe idx in
  let ow = target_of h ~pe ~addr:a in
  (a, if ow < 0 then `Local else `Remote ow)

let canonical t name idx = resolve_h (handle t name) ~pe:0 idx

let all_copies t name idx =
  let h = handle t name in
  let a = resolve_h h ~pe:0 idx in
  match h.kind with
  | Replicated -> List.init t.np (fun pe -> a + (pe * t.span))
  | On_pe0 | Block | Cyclic | Block_cyclic -> [ a ]
