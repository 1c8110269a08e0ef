open Ccdp_ir

type t = {
  decl : Array_decl.t;
  n_pes : int;
  ddim : int option;
  chunk : int;
  local_extent : int;
  per_pe_words : int;
}

let ceil_div a b = (a + b - 1) / b

let make ~n_pes (decl : Array_decl.t) =
  if n_pes <= 0 then invalid_arg "Layout.make: n_pes <= 0";
  let whole =
    {
      decl;
      n_pes;
      ddim = None;
      chunk = 0;
      local_extent = 0;
      per_pe_words = Array_decl.words decl;
    }
  in
  match decl.dist with
  | Dist.Replicated -> whole
  | Dist.Dims dims -> (
      match Dist.distributed_dim decl.dist with
      | None -> (* undistributed shared array: lives wholly on PE 0 *) whole
      | Some d ->
          let n = decl.dims.(d) in
          let chunk, local_extent =
            match dims.(d) with
            | Dist.Block ->
                let c = ceil_div n n_pes in
                (c, c)
            | Dist.Cyclic -> (1, ceil_div n n_pes)
            | Dist.Block_cyclic w -> (w, ceil_div n (w * n_pes) * w)
            | Dist.Degenerate -> assert false
          in
          let other = Array_decl.elems decl / n in
          {
            decl;
            n_pes;
            ddim = Some d;
            chunk;
            local_extent;
            per_pe_words = other * local_extent * decl.elem_words;
          })

let owned_section t pe =
  match (t.ddim, t.decl.dist) with
  | None, Dist.Replicated -> Section.whole
  | None, Dist.Dims _ -> if pe = 0 then Section.whole else Section.empty
  | Some _, Dist.Replicated -> assert false
  | Some dd, Dist.Dims dims -> (
      let n = t.decl.dims.(dd) in
      let dim_for d =
        if d <> dd then Section.dim ~lo:0 ~hi:(t.decl.dims.(d) - 1) ~step:1
        else
          match dims.(dd) with
          | Dist.Block ->
              let lo = pe * t.chunk and hi = min (n - 1) (((pe + 1) * t.chunk) - 1) in
              if lo > hi then raise Exit else Section.dim ~lo ~hi ~step:1
          | Dist.Cyclic ->
              if pe > n - 1 then raise Exit
              else Section.dim ~lo:pe ~hi:(n - 1) ~step:t.n_pes
          | Dist.Block_cyclic w ->
              (* conservative: hull of this PE's blocks *)
              let lo = pe * w in
              if lo > n - 1 then raise Exit
              else Section.dim ~lo ~hi:(n - 1) ~step:1
          | Dist.Degenerate -> assert false
      in
      try
        Section.of_dims
          (List.init (Array_decl.rank t.decl) dim_for)
      with Exit -> Section.empty)

let pp ppf t =
  Format.fprintf ppf "%a on %d PEs (%d words/PE)" Array_decl.pp t.decl t.n_pes
    t.per_pe_words
