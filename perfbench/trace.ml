(* In-memory span recorder for the traced benchmark run.

   Spans wrap calls the benchmark makes into the libraries' public
   functions; nothing inside lib/ is instrumented. A span records its name,
   a tag (the coherence mode or kernel it belongs to), start and end wall
   time, the domain's minor-heap words at both ends, and its parent. Spans
   stay in memory until [write] dumps them. With recording off, [span] is a
   plain call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  tag : string;
  probe : bool;
      (** extra work the traced run adds to split a layer out of an opaque
          call (a repeated [Memsys.create], say); never done untraced *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

let spans : span list ref = ref []
let next = ref 0
let stack : int list ref = ref []
let recording = ref false
let on () = !recording

let span ?(tag = "") ?(probe = false) name f =
  if not !recording then f ()
  else begin
    let id = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      {
        id;
        parent;
        name;
        tag;
        probe;
        t0 = Unix.gettimeofday ();
        t1 = 0.0;
        w0 = Gc.minor_words ();
        w1 = 0.0;
      }
    in
    stack := id :: !stack;
    let finish () =
      s.t1 <- Unix.gettimeofday ();
      s.w1 <- Gc.minor_words ();
      stack := List.tl !stack;
      spans := s :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* Run [f] with recording on; return its result and the spans it made,
   oldest first. *)
let record f =
  recording := true;
  let before = !spans in
  let r = Fun.protect ~finally:(fun () -> recording := false) f in
  let rec fresh acc l = if l == before then acc else
      match l with s :: rest -> fresh (s :: acc) rest | [] -> acc
  in
  (r, fresh [] !spans)

let duration s = s.t1 -. s.t0
let words s = s.w1 -. s.w0

(* Self time and self words: a span's own figure minus what its direct
   children cover. *)
let self_costs (l : span list) =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let d, w =
          Option.value (Hashtbl.find_opt child s.parent) ~default:(0.0, 0.0)
        in
        Hashtbl.replace child s.parent (d +. duration s, w +. words s)
      end)
    l;
  List.map
    (fun s ->
      let d, w = Option.value (Hashtbl.find_opt child s.id) ~default:(0.0, 0.0) in
      (s, duration s -. d, words s -. w))
    l

let write path ~header =
  let oc = open_out path in
  Printf.fprintf oc "{%s,\n \"spans\": [\n" header;
  let all = List.rev !spans in
  let origin = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let last = List.length all - 1 in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "  {\"id\": %d, \"parent\": %d, \"name\": %S, \"tag\": %S, \
         \"probe\": %b, \"start_s\": %.6f, \"end_s\": %.6f, \
         \"minor_words\": %.0f}%s\n"
        s.id s.parent s.name s.tag s.probe (s.t0 -. origin) (s.t1 -. origin)
        (words s)
        (if i < last then "," else ""))
    all;
  output_string oc " ]}\n";
  close_out oc
