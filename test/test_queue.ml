open Ccdp_machine
open Ccdp_test_support.Tutil

let tests =
  [
    case "insert then find then remove" (fun () ->
        let q = Prefetch_queue.create ~capacity:16 in
        check_true "in" (Prefetch_queue.try_insert q ~line:3 ~words:4 ~ready:100);
        check_true "found" (Prefetch_queue.ready_of q ~line:3 = 100);
        check_int "occ" 4 (Prefetch_queue.occupancy q);
        Prefetch_queue.remove q ~line:3;
        check_true "gone" (Prefetch_queue.ready_of q ~line:3 = -1);
        check_int "occ0" 0 (Prefetch_queue.occupancy q));
    case "overflow drops the insert" (fun () ->
        let q = Prefetch_queue.create ~capacity:8 in
        check_true "a" (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:1);
        check_true "b" (Prefetch_queue.try_insert q ~line:1 ~words:4 ~ready:2);
        check_false "full" (Prefetch_queue.try_insert q ~line:2 ~words:4 ~ready:3);
        check_int "occ" 8 (Prefetch_queue.occupancy q));
    case "re-inserting a pending line is an accepted no-op" (fun () ->
        let q = Prefetch_queue.create ~capacity:8 in
        check_true "first" (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:10);
        check_true "dedup" (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:99);
        check_true "keeps first arrival" (Prefetch_queue.ready_of q ~line:0 = 10);
        check_int "occ once" 4 (Prefetch_queue.occupancy q));
    case "clear reports the number of dropped entries" (fun () ->
        let q = Prefetch_queue.create ~capacity:16 in
        ignore (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:1);
        ignore (Prefetch_queue.try_insert q ~line:1 ~words:4 ~ready:2);
        check_int "two" 2 (Prefetch_queue.clear q);
        check_int "occ" 0 (Prefetch_queue.occupancy q));
    case "entries preserve insertion order" (fun () ->
        let q = Prefetch_queue.create ~capacity:16 in
        ignore (Prefetch_queue.try_insert q ~line:5 ~words:4 ~ready:1);
        ignore (Prefetch_queue.try_insert q ~line:6 ~words:4 ~ready:2);
        match Prefetch_queue.entries q with
        | [ a; b ] ->
            check_int "first" 5 a.Prefetch_queue.line;
            check_int "second" 6 b.Prefetch_queue.line
        | _ -> Alcotest.fail "two entries");
    case "zero-capacity queue drops everything" (fun () ->
        let q = Prefetch_queue.create ~capacity:0 in
        check_false "drop" (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:1));
  ]

let edge =
  [
    case "removing an absent line is a no-op" (fun () ->
        let q = Prefetch_queue.create ~capacity:8 in
        ignore (Prefetch_queue.try_insert q ~line:1 ~words:4 ~ready:1);
        Prefetch_queue.remove q ~line:42;
        check_int "occ untouched" 4 (Prefetch_queue.occupancy q);
        check_true "original still pending" (Prefetch_queue.ready_of q ~line:1 = 1));
    case "an insert that exactly fills the queue is accepted" (fun () ->
        let q = Prefetch_queue.create ~capacity:8 in
        check_true "a" (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:1);
        check_true "fits exactly" (Prefetch_queue.try_insert q ~line:1 ~words:4 ~ready:2);
        check_int "at capacity" 8 (Prefetch_queue.occupancy q);
        check_false "one word over is dropped"
          (Prefetch_queue.try_insert q ~line:2 ~words:1 ~ready:3));
    case "re-issuing a pending line is accepted even when the queue is full"
      (fun () ->
        let q = Prefetch_queue.create ~capacity:8 in
        ignore (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:1);
        ignore (Prefetch_queue.try_insert q ~line:1 ~words:4 ~ready:2);
        check_true "coalesced despite full queue"
          (Prefetch_queue.try_insert q ~line:1 ~words:4 ~ready:99);
        check_int "no double-count" 8 (Prefetch_queue.occupancy q);
        check_true "first arrival kept" (Prefetch_queue.ready_of q ~line:1 = 2));
    case "a dropped insert leaves no trace" (fun () ->
        let q = Prefetch_queue.create ~capacity:4 in
        ignore (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:1);
        check_false "dropped" (Prefetch_queue.try_insert q ~line:7 ~words:4 ~ready:2);
        check_true "not findable" (Prefetch_queue.ready_of q ~line:7 = -1);
        Prefetch_queue.remove q ~line:0;
        check_true "room again after consumption"
          (Prefetch_queue.try_insert q ~line:7 ~words:4 ~ready:3));
    case "a zero-word insert fits even a zero-capacity queue" (fun () ->
        let q = Prefetch_queue.create ~capacity:0 in
        check_true "vacuous fit" (Prefetch_queue.try_insert q ~line:0 ~words:0 ~ready:1);
        check_int "occ" 0 (Prefetch_queue.occupancy q);
        check_true "pending" (Prefetch_queue.ready_of q ~line:0 = 1));
    case "removing from the middle preserves the order of the rest" (fun () ->
        let q = Prefetch_queue.create ~capacity:16 in
        ignore (Prefetch_queue.try_insert q ~line:1 ~words:4 ~ready:1);
        ignore (Prefetch_queue.try_insert q ~line:2 ~words:4 ~ready:2);
        ignore (Prefetch_queue.try_insert q ~line:3 ~words:4 ~ready:3);
        Prefetch_queue.remove q ~line:2;
        match Prefetch_queue.entries q with
        | [ a; b ] ->
            check_int "first" 1 a.Prefetch_queue.line;
            check_int "second" 3 b.Prefetch_queue.line
        | l -> Alcotest.failf "expected two entries, got %d" (List.length l));
    case "clear on an empty queue reports zero" (fun () ->
        let q = Prefetch_queue.create ~capacity:8 in
        check_int "none dropped" 0 (Prefetch_queue.clear q);
        check_int "occ" 0 (Prefetch_queue.occupancy q);
        check_true "still usable"
          (Prefetch_queue.try_insert q ~line:0 ~words:4 ~ready:1));
  ]

let props =
  [
    qcheck "occupancy equals the sum of pending words"
      QCheck.(list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 20))
      (fun lines ->
        let q = Prefetch_queue.create ~capacity:32 in
        List.iter (fun l -> ignore (Prefetch_queue.try_insert q ~line:l ~words:4 ~ready:0)) lines;
        Prefetch_queue.occupancy q
        = List.fold_left (fun acc e -> acc + e.Prefetch_queue.words) 0 (Prefetch_queue.entries q));
  ]

(* The list queue the array queue replaced, kept as the model: entries
   newest first, a pending line deduplicated on its first arrival, an
   overflowing issue dropped. *)
module Model = struct
  type t = {
    cap : int;
    mutable occ : int;
    mutable items : Prefetch_queue.entry list;
  }

  let create cap = { cap; occ = 0; items = [] }

  let find t line =
    List.find_map
      (fun (e : Prefetch_queue.entry) ->
        if e.Prefetch_queue.line = line then Some e.Prefetch_queue.ready
        else None)
      t.items

  let try_insert t ~line ~words ~ready =
    if find t line <> None then true
    else if t.occ + words > t.cap then false
    else begin
      t.items <- { Prefetch_queue.line; words; ready } :: t.items;
      t.occ <- t.occ + words;
      true
    end

  let remove t line =
    let gone, kept =
      List.partition
        (fun (e : Prefetch_queue.entry) -> e.Prefetch_queue.line = line)
        t.items
    in
    List.iter
      (fun (e : Prefetch_queue.entry) -> t.occ <- t.occ - e.Prefetch_queue.words)
      gone;
    t.items <- kept

  let clear t =
    let n = List.length t.items in
    t.items <- [];
    t.occ <- 0;
    n
end

type op = Insert of int * int * int | Remove of int | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun line words ready -> Insert (line, words, ready))
            (int_range 0 7) (int_range 0 5) (int_range 0 500) );
        (3, map (fun line -> Remove line) (int_range 0 7));
        (1, return Clear);
      ])

let op_print = function
  | Insert (l, w, r) -> Printf.sprintf "insert %d/%dw@%d" l w r
  | Remove l -> Printf.sprintf "remove %d" l
  | Clear -> "clear"

let model_props =
  [
    qcheck ~count:500 "array queue agrees with the list model"
      QCheck.(
        pair (int_range 0 20)
          (make
             ~print:(fun ops -> String.concat "; " (List.map op_print ops))
             Gen.(list_size (int_range 0 80) op_gen)))
      (fun (cap, ops) ->
        let q = Prefetch_queue.create ~capacity:cap in
        let m = Model.create cap in
        List.for_all
          (fun op ->
            let same_result =
              match op with
              | Insert (line, words, ready) ->
                  Prefetch_queue.try_insert q ~line ~words ~ready
                  = Model.try_insert m ~line ~words ~ready
              | Remove line ->
                  Prefetch_queue.remove q ~line;
                  Model.remove m line;
                  true
              | Clear -> Prefetch_queue.clear q = Model.clear m
            in
            same_result
            && Prefetch_queue.occupancy q = m.Model.occ
            && Prefetch_queue.entries q = List.rev m.Model.items
            && List.for_all
                 (fun line ->
                   Prefetch_queue.ready_of q ~line
                   = Option.value (Model.find m line) ~default:(-1))
                 [ 0; 1; 2; 3; 4; 5; 6; 7 ])
          ops);
  ]

let () =
  Alcotest.run "queue"
    [
      ("behaviour", tests);
      ("edge-cases", edge);
      ("properties", props);
      ("model", model_props);
    ]
