(* Int_table against Hashtbl as the reference model: random operation
   sequences (replace, remove, mem, find, clear) over key sets small
   enough to collide and wide enough to force growth, with clears
   interleaved so growth spans several generations. *)

open Ccdp_test_support.Tutil
module Int_table = Ccdp_runtime.Int_table

type op = Replace of int * int | Remove of int | Clear

let key_gen =
  QCheck.Gen.(
    oneof
      [
        int_range 0 40;
        (* power-of-two strides: the column sweeps of a cache-line table *)
        map (fun k -> k * 64) (int_range 0 40);
        int_range 0 1_000_000;
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (12, map2 (fun k v -> Replace (k, v)) key_gen (int_range (-5) 1000));
        (6, map (fun k -> Remove k) key_gen);
        (1, return Clear);
      ])

let op_print = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 300) op_gen)

(* every binding of the model is found, and no other probed key is *)
let agrees t model probes =
  Int_table.length t = Hashtbl.length model
  && Hashtbl.fold
       (fun k v ok -> ok && Int_table.find t k ~default:(-7) = v)
       model true
  && List.for_all
       (fun k ->
         Int_table.mem t k = Hashtbl.mem model k
         && Int_table.find t k ~default:(-7)
            = Option.value (Hashtbl.find_opt model k) ~default:(-7))
       probes

let props =
  [
    qcheck ~count:500 "agrees with Hashtbl on random operation sequences"
      ops_arb
      (fun ops ->
        let t = Int_table.create () in
        let model = Hashtbl.create 16 in
        List.for_all
          (fun op ->
            (match op with
            | Replace (k, v) ->
                Int_table.replace t k v;
                Hashtbl.replace model k v
            | Remove k ->
                Int_table.remove t k;
                Hashtbl.remove model k
            | Clear ->
                Int_table.clear t;
                Hashtbl.reset model);
            let probe =
              match op with Replace (k, _) | Remove k -> [ k ] | Clear -> []
            in
            agrees t model probe)
          ops
        && agrees t model (List.init 41 Fun.id));
  ]

let cases =
  [
    case "growth survives many generations" (fun () ->
        let t = Int_table.create () in
        for g = 0 to 9 do
          Int_table.clear t;
          check_int "empty after clear" 0 (Int_table.length t);
          let n = 100 * (g + 1) in
          for k = 0 to n - 1 do
            Int_table.replace t ((k * 37) + g) (k + g)
          done;
          check_int "count" n (Int_table.length t);
          for k = 0 to n - 1 do
            check_int "value" (k + g)
              (Int_table.find t ((k * 37) + g) ~default:(-1))
          done;
          (* last generation's keys that are not this one's are gone *)
          if g > 0 then
            check_false "previous generation cleared"
              (Int_table.mem t ((((100 * g) - 1) * 37) + g - 1))
        done);
    case "negative keys are rejected" (fun () ->
        let t = Int_table.create () in
        check_true "raises"
          (match Int_table.replace t (-1) 0 with
          | () -> false
          | exception Invalid_argument _ -> true));
  ]

let () = Alcotest.run "int_table" [ ("model", props); ("cases", cases) ]
