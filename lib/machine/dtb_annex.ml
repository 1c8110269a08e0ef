(* Resident PE numbers, most recent first, in a fixed array: a touch
   shifts the entries ahead of the touched (or dropped) position one slot
   back and writes the PE at the front. *)
type t = { slots : int array; mutable n : int }

let create ~entries =
  if entries <= 0 then invalid_arg "Dtb_annex.create";
  { slots = Array.make entries 0; n = 0 }

let rec index_from (slots : int array) (n : int) (pe : int) (i : int) =
  if i >= n then -1
  else if slots.(i) = pe then i
  else index_from slots n pe (i + 1)

let touch t pe =
  let slots = t.slots in
  let i = index_from slots t.n pe 0 in
  let last =
    if i >= 0 then i
    else if t.n < Array.length slots then begin
      t.n <- t.n + 1;
      t.n - 1
    end
    else t.n - 1 (* full: the least recent entry falls off *)
  in
  for k = last downto 1 do
    slots.(k) <- slots.(k - 1)
  done;
  slots.(0) <- pe;
  i >= 0

let clear t = t.n <- 0
let resident t = List.init t.n (fun i -> t.slots.(i))
