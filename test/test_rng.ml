(* Tests for the xoshiro256** generator. *)

module Rng = P2p_prng.Rng

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_determinism () =
  let a = Rng.of_seed 42 and b = Rng.of_seed 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.of_seed 1 and b = Rng.of_seed 2 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "different seeds diverge" true (!matches < 3)

let test_copy_independent () =
  let a = Rng.of_seed 7 in
  let b = Rng.copy a in
  check Alcotest.int64 "copy same next" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing a does not advance b; resync check *)
  let x = Rng.bits64 a and y = Rng.bits64 b in
  Alcotest.(check bool) "streams now offset" true (x <> y)

let test_split_decorrelates () =
  let parent = Rng.of_seed 99 in
  let child = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr matches
  done;
  Alcotest.(check bool) "child stream distinct" true (!matches < 3)

let test_seed_pair_deterministic () =
  let a = Rng.of_seed_pair ~master:42 ~stream:17 in
  let b = Rng.of_seed_pair ~master:42 ~stream:17 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_pair_streams_decorrelate () =
  (* Adjacent stream indices of the same master must look independent —
     the replication runner hands stream i to replication i. *)
  let a = Rng.of_seed_pair ~master:7 ~stream:0 in
  let b = Rng.of_seed_pair ~master:7 ~stream:1 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "adjacent streams diverge" true (!matches < 3)

let test_seed_pair_masters_decorrelate () =
  let a = Rng.of_seed_pair ~master:1 ~stream:5 in
  let b = Rng.of_seed_pair ~master:2 ~stream:5 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "same stream, different masters diverge" true (!matches < 3)

let test_seed_pair_mean_uniform () =
  (* Pool one draw from each of many streams: cross-stream output should
     still be uniform, not clustered by the derivation. *)
  let acc = ref 0.0 in
  let n = 20_000 in
  for i = 0 to n - 1 do
    acc := !acc +. Rng.float (Rng.of_seed_pair ~master:3 ~stream:i)
  done;
  Alcotest.(check bool) "cross-stream mean near 1/2" true
    (Float.abs ((!acc /. float_of_int n) -. 0.5) < 0.01)

let test_float_range () =
  let rng = Rng.of_seed 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_pos_range () =
  let rng = Rng.of_seed 6 in
  for _ = 1 to 10_000 do
    let x = Rng.float_pos rng in
    Alcotest.(check bool) "in (0,1]" true (x > 0.0 && x <= 1.0)
  done

let test_float_mean () =
  let rng = Rng.of_seed 8 in
  let acc = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_below_bounds () =
  let rng = Rng.of_seed 9 in
  for _ = 1 to 10_000 do
    let x = Rng.int_below rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_int_below_uniform () =
  let rng = Rng.of_seed 10 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Rng.int_below rng 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "frequency near 1/5" true (Float.abs (freq -. 0.2) < 0.01))
    counts

let test_int_below_one () =
  let rng = Rng.of_seed 11 in
  check Alcotest.int "n=1 gives 0" 0 (Rng.int_below rng 1)

let test_int_below_invalid () =
  let rng = Rng.of_seed 12 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int_below: bound must be positive")
    (fun () -> ignore (Rng.int_below rng 0))

let test_int_in_range () =
  let rng = Rng.of_seed 13 in
  for _ = 1 to 1000 do
    let x = Rng.int_in_range rng ~lo:(-3) ~hi:4 in
    Alcotest.(check bool) "in [-3,4]" true (x >= -3 && x <= 4)
  done

let test_bool_balance () =
  let rng = Rng.of_seed 14 in
  let heads = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr heads
  done;
  let freq = float_of_int !heads /. float_of_int n in
  Alcotest.(check bool) "fair coin" true (Float.abs (freq -. 0.5) < 0.01)

let test_bernoulli_extremes () =
  let rng = Rng.of_seed 15 in
  Alcotest.(check bool) "p=1 true" true (Rng.bernoulli rng ~p:1.0);
  Alcotest.(check bool) "p=0 false" false (Rng.bernoulli rng ~p:0.0)

let test_bernoulli_rate () =
  let rng = Rng.of_seed 16 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p=0.3 frequency" true (Float.abs (freq -. 0.3) < 0.01)

let test_jump_changes_state () =
  let a = Rng.of_seed 21 in
  let b = Rng.copy a in
  Rng.jump a;
  Alcotest.(check bool) "jumped stream differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_pp_stable () =
  let rng = Rng.of_seed 1 in
  let s1 = Format.asprintf "%a" Rng.pp rng in
  let s2 = Format.asprintf "%a" Rng.pp (Rng.of_seed 1) in
  check Alcotest.string "pp deterministic" s1 s2

(* Stream pins: the first outputs of the generator, recorded once and
   checked literally.  The tests above check only self-consistency, so a
   change to the state representation or the step that kept a stream
   self-consistent but different would otherwise show only downstream,
   as a moved golden. *)
let seed42_bits =
  [| 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L;
     0xfde6dc7fe2ec5e64L; 0xc50da53101795238L; 0xb82154855a65ddb2L; 0xd99a2743ebe60087L |]

let check_bits name expected rng =
  Array.iteri
    (fun i want -> check Alcotest.int64 (Printf.sprintf "%s bits64 #%d" name i) want (Rng.bits64 rng))
    expected

let test_pin_of_seed () = check_bits "of_seed 42" seed42_bits (Rng.of_seed 42)

let test_pin_of_seed_pair () =
  check_bits "of_seed_pair 42/17"
    [| 0x3fa9eda0bdcca486L; 0x5065ab8890bb9684L; 0x6ef0069c69753120L; 0xa6c8897f4356b30aL;
       0x259d5cfd23b93e4dL; 0x4ee11f3497ee9193L; 0x713ca124ca28ece1L; 0xc7e4d1edfe887b25L |]
    (Rng.of_seed_pair ~master:42 ~stream:17)

let test_pin_split () =
  let parent = Rng.of_seed 42 in
  let child = Rng.split parent in
  check_bits "split child"
    [| 0x8ee445d14631c453L; 0x106fa1a13296fe62L; 0x729a768806244ce5L; 0x91d83a17b20e6585L;
       0x38c33df442fc70fdL; 0xe33cd1b92e2e42f1L; 0x3162280b9dcfa5efL; 0xb4f9f0541228b854L |]
    child;
  (* [split] consumes exactly one parent output. *)
  check_bits "parent after split" (Array.sub seed42_bits 1 7) parent

let test_pin_jump () =
  let rng = Rng.of_seed 42 in
  Rng.jump rng;
  check Alcotest.string "pp after jump"
    "xoshiro256**{81746704fde896b5;645e944932dae0ae;f4776829231c282c;2393f9798732dba1}"
    (Format.asprintf "%a" Rng.pp rng);
  check_bits "after jump"
    [| 0x50086ef83cbf4f4aL; 0xba285ec21347d703L; 0x5ea1247b4dc6452aL; 0x03a5c66424702131L;
       0x77369f9f12449a8bL; 0x1eab92f3c9460792L; 0xf5484aa43e93f003L; 0x42e0a9ae4359c6feL |]
    rng

let test_pin_copy_pp () =
  let rng = Rng.of_seed 42 in
  check Alcotest.string "pp of_seed 42"
    "xoshiro256**{bdd732262feb6e95;28efe333b266f103;47526757130f9f52;581ce1ff0e4ae394}"
    (Format.asprintf "%a" Rng.pp rng);
  for _ = 1 to 3 do
    ignore (Rng.bits64 rng)
  done;
  check_bits "copy" (Array.sub seed42_bits 3 5) (Rng.copy rng)

let test_pin_int_below () =
  (* n = 2^61 + 1 rejects about half of the 62-bit draws, so this pins
     the rejection loop's consumption as well as the reduction. *)
  let rng = Rng.of_seed 42 in
  let big =
    [| 1546998764402558742; 364128774783586872; 1844830170035650695; 209820295410181246;
       1537523385446153277; 750372260756293989; 941232158054729398; 1317312123653859138;
       2153870293806673813; 1870316922587333844; 1712965807924549849; 1881838702456566807;
       1180386813993057008; 721672153837094072; 2263993204587113274; 2087482996259066216 |]
  in
  Array.iteri
    (fun i want ->
      check Alcotest.int (Printf.sprintf "int_below 2^61+1 #%d" i) want
        (Rng.int_below rng ((1 lsl 61) + 1)))
    big;
  Array.iteri
    (fun i want -> check Alcotest.int (Printf.sprintf "int_below 7 #%d" i) want (Rng.int_below rng 7))
    [| 3; 0; 2; 1; 6; 6; 6; 3; 1; 1; 4; 6; 2; 4; 3; 4 |]

let test_pin_floats () =
  let rng = Rng.of_seed 42 in
  let check_float name draw expected =
    Array.iteri
      (fun i want ->
        check Alcotest.int64 (Printf.sprintf "%s #%d" name i) want (Int64.bits_of_float (draw rng)))
      expected
  in
  check_float "float" Rng.float
    [| 0x3fb5780b2e0c2ec0L; 0x3fd84136619b444eL; 0x3fe5c2ea66473c93L; 0x3fed9715a8e0766cL;
       0x3fefbcdb8ffc5d8bL; 0x3fe8a1b4a6202f2aL; 0x3fe7042a90ab4cbbL; 0x3feb3344e87d7cc0L |];
  check_float "float_pos" Rng.float_pos
    [| 0x3fe85d2dce4dd2edL; 0x3fe2aacc2beeebf8L; 0x3fe5d6a766818208L; 0x3fd29a76e61cebe4L;
       0x3fe9a1fdb52600d9L; 0x3fd4920219692d0aL; 0x3fe6c1bd877e5b11L; 0x3fec16ab4d172ccfL |]

let () =
  ignore checkf;
  Alcotest.run "rng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_decorrelates;
          Alcotest.test_case "seed pair determinism" `Quick test_seed_pair_deterministic;
          Alcotest.test_case "seed pair streams" `Quick test_seed_pair_streams_decorrelate;
          Alcotest.test_case "seed pair masters" `Quick test_seed_pair_masters_decorrelate;
          Alcotest.test_case "seed pair uniform" `Quick test_seed_pair_mean_uniform;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float_pos range" `Quick test_float_pos_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "int_below bounds" `Quick test_int_below_bounds;
          Alcotest.test_case "int_below uniform" `Quick test_int_below_uniform;
          Alcotest.test_case "int_below n=1" `Quick test_int_below_one;
          Alcotest.test_case "int_below invalid" `Quick test_int_below_invalid;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "jump" `Quick test_jump_changes_state;
          Alcotest.test_case "pp stable" `Quick test_pp_stable;
          Alcotest.test_case "pin of_seed" `Quick test_pin_of_seed;
          Alcotest.test_case "pin of_seed_pair" `Quick test_pin_of_seed_pair;
          Alcotest.test_case "pin split" `Quick test_pin_split;
          Alcotest.test_case "pin jump" `Quick test_pin_jump;
          Alcotest.test_case "pin copy and pp" `Quick test_pin_copy_pp;
          Alcotest.test_case "pin int_below" `Quick test_pin_int_below;
          Alcotest.test_case "pin float and float_pos" `Quick test_pin_floats;
        ] );
    ]
