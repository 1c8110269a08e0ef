(* Hardware-coherence bookkeeping shared by the snooping and directory
   modes: the M/E/S/I state encoding cache slots carry, and the directory's
   per-line presence/owner table.

   States are plain ints so the cache's per-slot state array stays flat;
   the ordering is meaningful: anything > shared holds the line with
   write permission pending ([exclusive] clean, [modified] dirty), so
   "some other PE owns this line" is a single comparison. *)

let invalid = 0
let shared = 1
let exclusive = 2
let modified = 3

let state_name = function
  | 0 -> "I"
  | 1 -> "S"
  | 2 -> "E"
  | 3 -> "M"
  | _ -> "?"

module Dir = struct
  (* Per-line presence bitset + dirty-owner register, the full-map
     directory of Censier-Feautrier. Presence words pack 63 PEs each
     (OCaml's native int less the tag bit), so membership, insertion and
     removal are single loads on any realistic machine width; [owner] is
     the PE holding the line Modified (-1 = line clean everywhere). *)
  type t = {
    n_pes : int;
    bwords : int;  (** presence words per line *)
    presence : int array;  (** n_lines * bwords, row-major *)
    owner : int array;  (** n_lines; -1 = no dirty owner *)
  }

  let create ~n_pes ~n_lines =
    if n_pes <= 0 || n_lines < 0 then invalid_arg "Coherence.Dir.create";
    let bwords = ((n_pes + 62) / 63) in
    {
      n_pes;
      bwords;
      presence = Array.make (max 1 (n_lines * bwords)) 0;
      owner = Array.make (max 1 n_lines) (-1);
    }

  let n_lines t = Array.length t.owner

  let mem t ~line ~pe =
    t.presence.((line * t.bwords) + (pe / 63)) land (1 lsl (pe mod 63)) <> 0

  let add t ~line ~pe =
    let w = (line * t.bwords) + (pe / 63) in
    t.presence.(w) <- t.presence.(w) lor (1 lsl (pe mod 63))

  let remove t ~line ~pe =
    let w = (line * t.bwords) + (pe / 63) in
    t.presence.(w) <- t.presence.(w) land lnot (1 lsl (pe mod 63))

  let popcount n =
    let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
    go 0 n

  let sharer_count t ~line =
    let base = line * t.bwords in
    let c = ref 0 in
    for w = 0 to t.bwords - 1 do
      c := !c + popcount t.presence.(base + w)
    done;
    !c

  (* Sharers are walked in ascending PE order — the deterministic
     invalidation order both engines replay identically — by a cursor
     rather than a callback, so the walk builds no closure. *)
  let next_sharer t ~line ~from =
    let base = line * t.bwords in
    let limit = t.bwords * 63 in
    let p = ref from and found = ref (-1) in
    while !found < 0 && !p < limit do
      let w = !p / 63 in
      let bits = t.presence.(base + w) lsr (!p mod 63) in
      if bits = 0 then p := (w + 1) * 63
      else if bits land 1 <> 0 then found := !p
      else incr p
    done;
    !found

  let sharers t ~line =
    let acc = ref [] in
    let p = ref (next_sharer t ~line ~from:0) in
    while !p >= 0 do
      acc := !p :: !acc;
      p := next_sharer t ~line ~from:(!p + 1)
    done;
    List.rev !acc

  let clear_line t ~line =
    Array.fill t.presence (line * t.bwords) t.bwords 0;
    t.owner.(line) <- -1

  let owner t ~line = t.owner.(line)
  let set_owner t ~line pe = t.owner.(line) <- pe
end
