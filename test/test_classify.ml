(* The empirical stability classifier, exercised on synthetic traces. *)

open P2p_core

let linear_trace ~n ~slope ~noise ~seed =
  let rng = P2p_prng.Rng.of_seed seed in
  Array.init n (fun i ->
      let t = float_of_int i in
      let v =
        (slope *. t) +. (noise *. P2p_prng.Dist.standard_normal rng) +. 20.0
      in
      (t, Int.max 0 (int_of_float v)))

let test_linear_growth_unstable () =
  let r = Classify.of_samples (linear_trace ~n:400 ~slope:1.0 ~noise:5.0 ~seed:1) in
  Alcotest.(check string) "unstable" "appears-unstable" (Classify.verdict_to_string r.verdict);
  Alcotest.(check bool) "slope near 1" true (Float.abs (r.growth_rate -. 1.0) < 0.1)

let test_flat_noise_stable () =
  let r = Classify.of_samples (linear_trace ~n:400 ~slope:0.0 ~noise:5.0 ~seed:2) in
  Alcotest.(check string) "stable" "appears-stable" (Classify.verdict_to_string r.verdict)

let test_returning_process_stable () =
  (* Oscillating but recurrent: always dips back near zero. *)
  let trace =
    Array.init 400 (fun i ->
        let t = float_of_int i in
        (t, int_of_float (50.0 *. Float.abs (sin (t /. 20.0)))))
  in
  let r = Classify.of_samples trace in
  Alcotest.(check string) "stable" "appears-stable" (Classify.verdict_to_string r.verdict);
  Alcotest.(check bool) "low late minimum" true (r.late_minimum < 10)

let test_too_few_samples () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Classify.of_samples (Array.init 8 (fun i -> (float_of_int i, i))));
       false
     with Invalid_argument _ -> true)

let test_run_end_to_end () =
  let stable = Scenario.flash_crowd ~k:2 ~lambda:0.5 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let r = Classify.run ~horizon:1500.0 ~seed:3 stable in
  Alcotest.(check string) "stable swarm" "appears-stable" (Classify.verdict_to_string r.verdict);
  let transient = Scenario.flash_crowd ~k:2 ~lambda:2.0 ~us:0.2 ~mu:1.0 ~gamma:infinity in
  let r = Classify.run ~horizon:1500.0 ~seed:4 transient in
  Alcotest.(check string) "transient swarm" "appears-unstable"
    (Classify.verdict_to_string r.verdict)

let test_majority_votes () =
  let stable = Scenario.flash_crowd ~k:2 ~lambda:0.4 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  Alcotest.(check string) "majority stable" "appears-stable"
    (Classify.verdict_to_string (Classify.majority ~replications:3 ~horizon:800.0 ~seed:5 stable))

let test_initial_state_respected () =
  let stable = Scenario.flash_crowd ~k:2 ~lambda:0.4 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let club = P2p_pieceset.Pieceset.singleton 1 in
  let r = Classify.run ~horizon:1500.0 ~seed:6 ~initial:[ (club, 200) ] stable in
  (* a stable system recovers even from a 200-peer one-club start *)
  Alcotest.(check string) "recovers" "appears-stable" (Classify.verdict_to_string r.verdict)

(* A transient swarm whose event budget runs out early: the state is
   frozen from there to the horizon, and that flat tail must not be read
   as stability. *)
let test_truncated_run_inconclusive () =
  let transient = Scenario.flash_crowd ~k:4 ~lambda:3.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let stats, _ =
    Sim_markov.run_seeded ~max_events:3_000 ~seed:7 (Sim_markov.default_config transient)
      ~horizon:2_000.0
  in
  Alcotest.(check bool) "the budget truncated the run" true stats.truncated;
  let r = Classify.of_stats stats in
  Alcotest.(check bool)
    (Printf.sprintf "verdict %s is not appears-stable" (Classify.verdict_to_string r.verdict))
    true
    (r.verdict <> Classify.Appears_stable);
  Alcotest.(check string) "inconclusive" "inconclusive" (Classify.verdict_to_string r.verdict)

let () =
  Alcotest.run "classify"
    [
      ( "classify",
        [
          Alcotest.test_case "linear growth" `Quick test_linear_growth_unstable;
          Alcotest.test_case "flat noise" `Quick test_flat_noise_stable;
          Alcotest.test_case "oscillating recurrent" `Quick test_returning_process_stable;
          Alcotest.test_case "too few samples" `Quick test_too_few_samples;
          Alcotest.test_case "end to end" `Quick test_run_end_to_end;
          Alcotest.test_case "majority" `Quick test_majority_votes;
          Alcotest.test_case "initial state" `Quick test_initial_state_respected;
          Alcotest.test_case "truncated run is inconclusive" `Quick
            test_truncated_run_inconclusive;
        ] );
    ]
