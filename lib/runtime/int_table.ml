(* Open addressing with linear probing over three flat int arrays. A slot
   is occupied iff its stamp equals the table's generation, so [clear] is
   one increment and never shrinks the arrays. Removal shifts the rest of
   the probe cluster back instead of leaving tombstones. The load factor
   stays at or below one half, so every probe meets an empty slot.

   Every helper is a top-level function with annotated int parameters:
   without flambda, a local recursive function that captures variables
   allocates a closure per call, and an unannotated comparison compiles
   to the polymorphic [compare_val]. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array;  (** [gen] = occupied; anything else = empty *)
  mutable mask : int;  (** capacity - 1; the capacity is a power of two *)
  mutable gen : int;
  mutable count : int;
}

(* Small on purpose: a machine holds a few tables per PE, and most stay
   small for the whole run. *)
let initial_capacity = 8

let create () =
  {
    keys = Array.make initial_capacity 0;
    vals = Array.make initial_capacity 0;
    stamps = Array.make initial_capacity (-1);
    mask = initial_capacity - 1;
    gen = 0;
    count = 0;
  }

let length t = t.count

let home (k : int) (mask : int) =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* The slot holding [k], or [-1 - i] where [i] is the empty slot that ends
   its probe sequence. *)
let rec probe (stamps : int array) (keys : int array) (gen : int) (mask : int)
    (k : int) (i : int) =
  if stamps.(i) <> gen then -1 - i
  else if keys.(i) = k then i
  else probe stamps keys gen mask k ((i + 1) land mask)

let slot t k = probe t.stamps t.keys t.gen t.mask k (home k t.mask)

let find t k ~default =
  let i = slot t k in
  if i >= 0 then t.vals.(i) else default

let mem t k = slot t k >= 0

let grow t =
  let okeys = t.keys and ovals = t.vals and ostamps = t.stamps in
  let gen = t.gen in
  let cap = 2 * Array.length okeys in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  t.stamps <- Array.make cap (-1);
  t.mask <- cap - 1;
  for j = 0 to Array.length okeys - 1 do
    if ostamps.(j) = gen then begin
      let i = -1 - slot t okeys.(j) in
      t.keys.(i) <- okeys.(j);
      t.vals.(i) <- ovals.(j);
      t.stamps.(i) <- gen
    end
  done

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  let i = slot t k in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let i =
      if 2 * (t.count + 1) <= Array.length t.keys then -1 - i
      else begin
        grow t;
        -1 - slot t k
      end
    in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.stamps.(i) <- t.gen;
    t.count <- t.count + 1
  end

let remove t k =
  let i = slot t k in
  if i >= 0 then begin
    t.count <- t.count - 1;
    let keys = t.keys and vals = t.vals and stamps = t.stamps in
    let mask = t.mask and gen = t.gen in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while stamps.(!j) = gen do
      (* the entry at [j] may fill the hole unless its home lies
         cyclically within (hole, j] *)
      let h = home keys.(!j) mask in
      let stays =
        if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
      in
      if not stays then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    stamps.(!hole) <- -1
  end

let clear t =
  t.gen <- t.gen + 1;
  t.count <- 0
