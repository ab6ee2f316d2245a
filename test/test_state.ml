(* The type-count state vector. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let test_empty () =
  let s = State.create () in
  Alcotest.(check int) "n" 0 (State.n s);
  Alcotest.(check int) "occupied" 0 (State.occupied s);
  Alcotest.(check int) "count of anything" 0 (State.count s PS.empty)

let test_add_remove () =
  let s = State.create () in
  State.add_peer s PS.empty;
  State.add_peer s PS.empty;
  State.add_peer s (PS.singleton 1);
  Alcotest.(check int) "n" 3 (State.n s);
  Alcotest.(check int) "count empty" 2 (State.count s PS.empty);
  State.remove_peer s PS.empty;
  Alcotest.(check int) "after remove" 1 (State.count s PS.empty);
  State.remove_peer s PS.empty;
  Alcotest.(check int) "zero drops type" 1 (State.occupied s);
  Alcotest.(check bool) "remove from empty raises" true
    (try
       State.remove_peer s PS.empty;
       false
     with Invalid_argument _ -> true)

let test_move () =
  let s = State.of_counts [ (PS.empty, 1) ] in
  State.move_peer s ~from_:PS.empty ~to_:(PS.singleton 0);
  Alcotest.(check int) "n preserved" 1 (State.n s);
  Alcotest.(check int) "target" 1 (State.count s (PS.singleton 0));
  Alcotest.(check int) "source" 0 (State.count s PS.empty)

let test_of_counts () =
  let s = State.of_counts [ (PS.empty, 2); (PS.empty, 3); (PS.singleton 0, 0) ] in
  Alcotest.(check int) "summed duplicates" 5 (State.count s PS.empty);
  Alcotest.(check int) "zero dropped" 1 (State.occupied s);
  Alcotest.(check bool) "negative raises" true
    (try
       ignore (State.of_counts [ (PS.empty, -1) ]);
       false
     with Invalid_argument _ -> true)

let test_copy_isolated () =
  let s = State.of_counts [ (PS.empty, 2) ] in
  let t = State.copy s in
  State.add_peer t PS.empty;
  Alcotest.(check int) "original" 2 (State.n s);
  Alcotest.(check int) "copy" 3 (State.n t)

let test_alist_sorted () =
  let s = State.of_counts [ (PS.singleton 2, 1); (PS.empty, 1); (PS.singleton 0, 1) ] in
  let types = List.map fst (State.to_alist s) in
  Alcotest.(check (list int)) "sorted by bitmask" [ 0; 1; 4 ] (List.map PS.to_index types)

let test_piece_counts () =
  let s = State.of_counts [ (PS.of_list [ 0; 1 ], 2); (PS.singleton 1, 3); (PS.empty, 1) ] in
  Alcotest.(check int) "piece 0 copies" 2 (State.piece_copies s ~k:3 ~piece:0);
  Alcotest.(check int) "piece 1 copies" 5 (State.piece_copies s ~k:3 ~piece:1);
  Alcotest.(check int) "piece 2 copies" 0 (State.piece_copies s ~k:3 ~piece:2);
  Alcotest.(check (array int)) "vector" [| 2; 5; 0 |] (State.piece_count_vector s ~k:3)

let test_subset_helpful_counts () =
  let s =
    State.of_counts [ (PS.empty, 1); (PS.singleton 0, 2); (PS.of_list [ 0; 1 ], 4); (PS.singleton 2, 8) ]
  in
  (* E_S for S = {0,1}: empty + {0} + {0,1} = 7; helpers: {2} = 8. *)
  let sset = PS.of_list [ 0; 1 ] in
  Alcotest.(check int) "E_S" 7 (State.count_subset_peers s sset);
  Alcotest.(check int) "x_{H_S}" 8 (State.count_helpful_peers s sset);
  Alcotest.(check int) "partition" (State.n s)
    (State.count_subset_peers s sset + State.count_helpful_peers s sset)

let test_sample_uniform_distribution () =
  let rng = P2p_prng.Rng.of_seed 6 in
  let s = State.of_counts [ (PS.empty, 3); (PS.singleton 0, 1) ] in
  let hits = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    if PS.is_empty (State.peer_at_rank s (P2p_prng.Rng.int_below rng (State.n s))) then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "3/4 of draws" true (Float.abs (freq -. 0.75) < 0.01)

let test_sample_empty_raises () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (State.peer_at_rank (State.create ()) 0);
       false
     with Invalid_argument _ -> true)

let test_equal () =
  let a = State.of_counts [ (PS.empty, 2); (PS.singleton 0, 1) ] in
  let b = State.of_counts [ (PS.singleton 0, 1); (PS.empty, 2) ] in
  Alcotest.(check bool) "equal" true (State.equal a b);
  State.add_peer b PS.empty;
  Alcotest.(check bool) "not equal" false (State.equal a b)

(* Regression for the incrementally maintained copy counts: after a long
   random add/remove/move trace, the O(1) counters must agree exactly
   with a from-scratch rescan of the occupied types.  An off-by-one in
   the move-delta accounting (e.g. double-crediting pieces shared by the
   source and target types) survives short unit tests but not this. *)
let test_incremental_counts_match_rescan () =
  let rng = P2p_prng.Rng.of_seed 4242 in
  let k = 5 in
  let s = State.create () in
  let recount () =
    let fresh = Array.make k 0 in
    State.iter s (fun c v ->
        PS.iter (fun i -> if i < k then fresh.(i) <- fresh.(i) + v) c);
    fresh
  in
  let random_type () = PS.of_index (P2p_prng.Rng.int_below rng (1 lsl k)) in
  let random_occupied () =
    (* A uniformly chosen peer's type — only valid when n > 0. *)
    State.peer_at_rank s (P2p_prng.Rng.int_below rng (State.n s))
  in
  for step = 1 to 5_000 do
    (match P2p_prng.Rng.int_below rng 3 with
    | 0 -> State.add_peer s (random_type ())
    | 1 -> if State.n s > 0 then State.remove_peer s (random_occupied ())
    | _ ->
        if State.n s > 0 then
          State.move_peer s ~from_:(random_occupied ()) ~to_:(random_type ()))
    ;
    if step mod 500 = 0 then
      Alcotest.(check (array int))
        (Printf.sprintf "counts at step %d" step)
        (recount ())
        (State.piece_count_vector s ~k)
  done;
  Alcotest.(check (array int)) "final counts" (recount ()) (State.piece_count_vector s ~k);
  Array.iteri
    (fun i expected ->
      Alcotest.(check int)
        (Printf.sprintf "piece_copies %d" i)
        expected
        (State.piece_copies s ~k ~piece:i))
    (recount ())

(* ---- the useful pair mass ---- *)

(* Brute force from the counts alone: out(A) = Σ_B x_B·1[A ⊄ B] and
   M = Σ_A x_A·out(A). *)
let brute_out s a =
  State.fold s ~init:0 ~f:(fun acc b x -> if PS.subset a b then acc else acc + x)

let brute_mass s = State.fold s ~init:0 ~f:(fun acc a x -> acc + (x * brute_out s a))

let check_pair_mass ~what pm =
  let s = Pair_mass.state pm in
  Alcotest.(check int) (what ^ ": mass") (brute_mass s) (Pair_mass.mass pm);
  State.iter s (fun a _ ->
      Alcotest.(check int)
        (Printf.sprintf "%s: out(%s)" what (PS.to_string a))
        (brute_out s a) (Pair_mass.out_of pm a))

(* A peer moves up from the middle slot and empties it: State moves its
   last slot into the hole, and the out(·) array has to follow. *)
let test_pair_mass_swap_removal () =
  let k = 3 in
  let pm =
    Pair_mass.create
      (State.of_counts [ (PS.empty, 2); (PS.singleton 0, 1); (PS.singleton 1, 3) ])
  in
  let s = Pair_mass.state pm in
  check_pair_mass ~what:"initial" pm;
  let middle = State.slot s (PS.singleton 0) in
  Alcotest.(check bool) "not the last slot" true (middle < State.occupied s - 1);
  Pair_mass.move_up_at pm middle ~to_:(PS.of_list [ 0; 2 ]);
  Alcotest.(check int) "emptied type" 0 (State.count s (PS.singleton 0));
  check_pair_mass ~what:"after a middle move" pm;
  Pair_mass.remove_at pm (State.slot s PS.empty);
  Pair_mass.remove_at pm (State.slot s PS.empty);
  check_pair_mass ~what:"after emptying slot 0" pm;
  Pair_mass.move_up_at pm (State.slot s (PS.singleton 1)) ~to_:(PS.full ~k);
  check_pair_mass ~what:"after a completion" pm;
  Alcotest.(check bool) "move down refused" true
    (try
       Pair_mass.move_up_at pm (State.slot s (PS.full ~k)) ~to_:PS.empty;
       false
     with Invalid_argument _ -> true)

let test_pair_mass_matches_recount () =
  let rng = P2p_prng.Rng.of_seed 77 in
  let k = 4 in
  let pm = Pair_mass.create (State.of_counts [ (PS.empty, 3); (PS.singleton 2, 2) ]) in
  let s = Pair_mass.state pm in
  let random_slot () = State.slot_at_rank s (P2p_prng.Rng.int_below rng (State.n s)) in
  let emptied = ref 0 in
  for step = 1 to 4_000 do
    let before = State.occupied s in
    (* Small populations, so types empty (swap-removal) all the time. *)
    (match P2p_prng.Rng.int_below rng 3 with
    | 0 when State.n s < 12 ->
        Pair_mass.add_peer pm (PS.of_index (P2p_prng.Rng.int_below rng (1 lsl k)))
    | 0 | 1 -> if State.n s > 0 then Pair_mass.remove_at pm (random_slot ())
    | _ ->
        if State.n s > 0 then begin
          let slot = random_slot () in
          let from_ = State.slot_type s slot in
          let extra = PS.of_index (P2p_prng.Rng.int_below rng (1 lsl k)) in
          Pair_mass.move_up_at pm slot ~to_:(PS.union from_ extra)
        end);
    if State.occupied s < before then incr emptied;
    check_pair_mass ~what:(Printf.sprintf "step %d" step) pm
  done;
  Alcotest.(check bool) (Printf.sprintf "%d types emptied" !emptied) true (!emptied > 100)

(* [pick] over every r in [0, M) hits each ordered useful peer pair
   exactly once: type pair (A, B) exactly x_A·x_B·1[A ⊄ B] times. *)
let test_pair_mass_pick_exhaustive () =
  let pm =
    Pair_mass.create
      (State.of_counts
         [ (PS.empty, 3); (PS.singleton 0, 2); (PS.of_list [ 0; 1 ], 1); (PS.singleton 2, 4);
           (PS.full ~k:3, 2) ])
  in
  let s = Pair_mass.state pm in
  let hits = Hashtbl.create 16 in
  for r = 0 to Pair_mass.mass pm - 1 do
    let up, down = Pair_mass.pick pm r in
    let key = (State.slot_type s up, State.slot_type s down) in
    Hashtbl.replace hits key (1 + Option.value (Hashtbl.find_opt hits key) ~default:0)
  done;
  State.iter s (fun a xa ->
      State.iter s (fun b xb ->
          Alcotest.(check int)
            (Printf.sprintf "pair %s -> %s" (PS.to_string a) (PS.to_string b))
            (if PS.subset a b then 0 else xa * xb)
            (Option.value (Hashtbl.find_opt hits (a, b)) ~default:0)))

let () =
  Alcotest.run "state"
    [
      ( "state",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "move" `Quick test_move;
          Alcotest.test_case "of_counts" `Quick test_of_counts;
          Alcotest.test_case "copy" `Quick test_copy_isolated;
          Alcotest.test_case "alist sorted" `Quick test_alist_sorted;
          Alcotest.test_case "piece counts" `Quick test_piece_counts;
          Alcotest.test_case "incremental counts vs rescan" `Quick
            test_incremental_counts_match_rescan;
          Alcotest.test_case "subset/helpful counts" `Quick test_subset_helpful_counts;
          Alcotest.test_case "sample distribution" `Quick test_sample_uniform_distribution;
          Alcotest.test_case "sample empty" `Quick test_sample_empty_raises;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "pair mass",
        [
          Alcotest.test_case "swap-removal keeps out(.)" `Quick test_pair_mass_swap_removal;
          Alcotest.test_case "incremental = brute-force recount" `Quick
            test_pair_mass_matches_recount;
          Alcotest.test_case "pick enumerates useful pairs" `Quick
            test_pair_mass_pick_exhaustive;
        ] );
    ]
