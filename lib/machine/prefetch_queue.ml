(* Pending entries in arrival order (oldest first) over parallel int
   arrays. Every entry occupies at least one word unless the caller
   inserts zero-word entries, so the arrays rarely grow past the initial
   size; growth doubles them. *)
type entry = { line : int; words : int; ready : int }

type t = {
  cap : int;
  mutable occ : int;
  mutable n : int;
  mutable lines : int array;
  mutable words : int array;
  mutable readys : int array;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Prefetch_queue.create";
  let size = max 1 (min capacity 8) in
  {
    cap = capacity;
    occ = 0;
    n = 0;
    lines = Array.make size 0;
    words = Array.make size 0;
    readys = Array.make size 0;
  }

let capacity t = t.cap
let occupancy t = t.occ

let rec index_from (lines : int array) (n : int) (line : int) (i : int) =
  if i >= n then -1
  else if lines.(i) = line then i
  else index_from lines n line (i + 1)

let index t line = index_from t.lines t.n line 0

let ready_of t ~line =
  let i = index t line in
  if i >= 0 then t.readys.(i) else -1

let grow t =
  let size = 2 * Array.length t.lines in
  let extend a =
    let b = Array.make size 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.lines <- extend t.lines;
  t.words <- extend t.words;
  t.readys <- extend t.readys

let try_insert t ~line ~words ~ready =
  if index t line >= 0 then true
  else if t.occ + words > t.cap then false
  else begin
    if t.n = Array.length t.lines then grow t;
    t.lines.(t.n) <- line;
    t.words.(t.n) <- words;
    t.readys.(t.n) <- ready;
    t.n <- t.n + 1;
    t.occ <- t.occ + words;
    true
  end

let remove t ~line =
  let kept = ref 0 in
  for i = 0 to t.n - 1 do
    if t.lines.(i) = line then t.occ <- t.occ - t.words.(i)
    else begin
      let j = !kept in
      t.lines.(j) <- t.lines.(i);
      t.words.(j) <- t.words.(i);
      t.readys.(j) <- t.readys.(i);
      kept := j + 1
    end
  done;
  t.n <- !kept

let clear t =
  let n = t.n in
  t.n <- 0;
  t.occ <- 0;
  n

let entries t =
  List.init t.n (fun i ->
      { line = t.lines.(i); words = t.words.(i); ready = t.readys.(i) })
