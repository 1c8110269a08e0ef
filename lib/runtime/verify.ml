open Ccdp_ir

type mismatch = {
  array_name : string;
  index : int array;
  expected : float;
  got : float;
}

type report = {
  ok : bool;
  checked : int;
  mismatches : mismatch list;
  max_abs_diff : float;
}

(* Each array's kernel is resolved once per state; the elements are then
   walked by an odometer over the subscripts in column-major order (the
   order [Array_decl.point_of_linear] enumerates), reading both memory
   images directly, so the walk boxes no floats and builds no index
   arrays except for reported mismatches. *)
let compare_states ?(tol = 0.0) ?(max_report = 5) ~expected ~got
    (program : Program.t) =
  let checked = ref 0 in
  let bad = ref 0 in
  let mismatches = ref [] in
  let max_diff = ref 0.0 in
  let me = Memsys.memory expected and mg = Memsys.memory got in
  List.iter
    (fun (a : Array_decl.t) ->
      if a.shared then begin
        let he = Addr_map.handle (Memsys.map expected) a.name
        and hg = Addr_map.handle (Memsys.map got) a.name in
        let dims = a.dims in
        let rank = Array.length dims in
        let idx = Array.make rank 0 in
        for _ = 1 to Array_decl.elems a do
          let e = me.(Addr_map.resolve_h he ~pe:0 idx)
          and g = mg.(Addr_map.resolve_h hg ~pe:0 idx) in
          incr checked;
          let d = abs_float (e -. g) in
          if d > !max_diff then max_diff := d;
          if d > tol && not (Float.is_nan e && Float.is_nan g) then begin
            incr bad;
            if List.length !mismatches < max_report then
              mismatches :=
                {
                  array_name = a.name;
                  index = Array.copy idx;
                  expected = e;
                  got = g;
                }
                :: !mismatches
          end;
          (* advance the odometer; dimension 0 turns fastest *)
          let dim = ref 0 in
          while
            !dim < rank
            &&
            (idx.(!dim) <- idx.(!dim) + 1;
             idx.(!dim) = dims.(!dim))
          do
            idx.(!dim) <- 0;
            incr dim
          done
        done
      end)
    program.Program.arrays;
  {
    ok = !bad = 0;
    checked = !checked;
    mismatches = List.rev !mismatches;
    max_abs_diff = !max_diff;
  }

let against_sequential ?tol (program : Program.t) ~init (r : Interp.result) =
  let program = if program.Program.procs = [] then program else Program.inline program in
  let cfg_seq =
    (* one flat PE: a singleton machine has no clusters to speak of *)
    {
      (Memsys.cfg r.Interp.sys) with
      Ccdp_machine.Config.n_pes = 1;
      Ccdp_machine.Config.cluster_pes = 1;
    }
  in
  let seq =
    Interp.run cfg_seq program ~plan:(Ccdp_analysis.Annot.empty ())
      ~mode:Memsys.Seq ~init ()
  in
  compare_states ?tol ~expected:seq.Interp.sys ~got:r.Interp.sys program

let pp_report ppf r =
  if r.ok then Format.fprintf ppf "verification OK (%d elements)" r.checked
  else begin
    Format.fprintf ppf "verification FAILED (%d elements, max |diff| %g)"
      r.checked r.max_abs_diff;
    List.iter
      (fun m ->
        Format.fprintf ppf "@,  %s(%s): expected %.17g, got %.17g" m.array_name
          (String.concat ","
             (Array.to_list (Array.map string_of_int m.index)))
          m.expected m.got)
      r.mismatches
  end
