(* Unit tests for the support library. *)

open Psme_support

let test_sym_interning () =
  let a = Sym.intern "blue" in
  let b = Sym.intern "blue" in
  let c = Sym.intern "red" in
  Alcotest.(check bool) "same spelling, same symbol" true (Sym.equal a b);
  Alcotest.(check bool) "different spelling, different symbol" false (Sym.equal a c);
  Alcotest.(check string) "name round-trips" "blue" (Sym.name a)

let test_sym_fresh () =
  let a = Sym.fresh "g" in
  let b = Sym.fresh "g" in
  Alcotest.(check bool) "fresh symbols are distinct" false (Sym.equal a b);
  let again = Sym.intern (Sym.name a) in
  Alcotest.(check bool) "fresh symbol is interned" true (Sym.equal a again)

let test_sym_concurrent_intern () =
  (* Interning the same strings from several domains must converge. *)
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.init 100 (fun i -> Sym.intern (Printf.sprintf "sym-%d" (i mod 50)))
            |> fun syms -> (d, syms)))
  in
  let results = List.map Domain.join domains in
  let _, first = List.hd results in
  List.iter
    (fun (_, syms) ->
      List.iteri
        (fun i s ->
          Alcotest.(check bool)
            "same string interned identically across domains" true
            (Sym.equal s (List.nth first i)))
        syms)
    results

let test_value_equal () =
  Alcotest.(check bool) "sym=sym" true (Value.equal (Value.sym "a") (Value.sym "a"));
  Alcotest.(check bool) "int<>sym" false (Value.equal (Value.int 1) (Value.sym "1"));
  Alcotest.(check bool) "nil is nil" true (Value.is_nil Value.nil);
  Alcotest.(check bool) "numeric of int" true (Value.numeric (Value.int 3) = Some 3.)

let test_value_compare_total () =
  let vs =
    [ Value.sym "a"; Value.sym "b"; Value.int 1; Value.Float 2.5; Value.Str "x" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool) "antisymmetric" true (compare c1 0 = compare 0 c2))
        vs)
    vs

let test_vec_basic () =
  let v = Vec.create () in
  for i = 0 to 99 do Vec.push v i done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Vec.set v 0 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 0)

let test_vec_swap_remove () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Vec.swap_remove v 1;
  Alcotest.(check (list int)) "swap_remove moves last" [ 1; 4; 3 ] (Vec.to_list v)

let test_vec_fold_iter () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "fold" 6 (Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (2, 3); (1, 2); (0, 1) ] !acc

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "still a permutation" true (sorted = Array.init 50 Fun.id)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  Event_queue.add q ~time:1.0 "a2";
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, x) ->
      order := x :: !order;
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time order, FIFO ties" [ "a"; "a2"; "b"; "c" ]
    (List.rev !order)

let test_event_queue_interleaved () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:5.0 5;
  Event_queue.add q ~time:1.0 1;
  Alcotest.(check (option (pair (float 0.001) int))) "pop min" (Some (1.0, 1))
    (Event_queue.pop q);
  Event_queue.add q ~time:2.0 2;
  Alcotest.(check (option (pair (float 0.001) int))) "pop new min" (Some (2.0, 2))
    (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.001) int))) "pop last" (Some (5.0, 5))
    (Event_queue.pop q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_percentile_edges () =
  Alcotest.(check bool) "empty yields nan" true
    (Float.is_nan (Stats.percentile [||] 50.));
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (Stats.percentile xs 0.);
  Alcotest.(check (float 0.)) "p100 is the maximum" 5. (Stats.percentile xs 100.);
  Alcotest.(check (float 0.)) "p50 is the median" 3. (Stats.percentile xs 50.);
  Alcotest.(check (float 0.)) "singleton, any p" 7. (Stats.percentile [| 7. |] 0.);
  Alcotest.(check (float 0.)) "input not mutated" 5. xs.(0);
  let rejects p =
    Alcotest.check_raises
      (Printf.sprintf "p = %g rejected" p)
      (Invalid_argument "Stats.percentile: p must be in [0, 100]")
      (fun () -> ignore (Stats.percentile xs p))
  in
  rejects (-1.);
  rejects 100.5;
  rejects Float.nan

let suite =
  [
    Alcotest.test_case "sym interning" `Quick test_sym_interning;
    Alcotest.test_case "sym fresh" `Quick test_sym_fresh;
    Alcotest.test_case "sym concurrent intern" `Quick test_sym_concurrent_intern;
    Alcotest.test_case "value equal" `Quick test_value_equal;
    Alcotest.test_case "value compare total" `Quick test_value_compare_total;
    Alcotest.test_case "vec basic" `Quick test_vec_basic;
    Alcotest.test_case "vec swap_remove" `Quick test_vec_swap_remove;
    Alcotest.test_case "vec fold/iter" `Quick test_vec_fold_iter;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "event queue order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue interleaved" `Quick test_event_queue_interleaved;
    Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
  ]
