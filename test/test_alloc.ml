(* Allocation budgets for the hot path: minor-heap words per draw of the
   generator and per event of the stochastic backends, measured with
   [Gc.minor_words] around the call.  The budgets are upper bounds on
   what a build without flambda allocates (the tightest case: nothing
   inlines across modules), so a regression that boxes a float or an
   int64 on every draw or event fails here rather than showing up only as
   a slower benchmark.  Runs are deterministic from their seeds, so the
   counts do not vary between runs. *)

open P2p_core
module Rng = P2p_prng.Rng

let native () = if Sys.backend_type <> Sys.Native then Alcotest.skip ()

(* Minor words allocated by [f ()], and its result. *)
let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

let check_budget what ~budget per =
  if per > budget then
    Alcotest.failf "%s: %.2f minor words, budget %.2f" what per budget

let draws = 100_000

let per_draw draw =
  let rng = Rng.of_seed 1 in
  let w, () =
    words (fun () ->
        for _ = 1 to draws do
          ignore (Sys.opaque_identity (draw rng))
        done)
  in
  w /. float_of_int draws

let test_int_below () =
  native ();
  (* n = 2^61+1 makes the rejection loop run about twice per draw. *)
  check_budget "Rng.int_below 64 per draw" ~budget:0.0 (per_draw (fun rng -> Rng.int_below rng 64));
  check_budget "Rng.int_below (2^61+1) per draw" ~budget:0.0
    (per_draw (fun rng -> Rng.int_below rng ((1 lsl 61) + 1)))

let test_floats () =
  native ();
  (* At most the boxed return value. *)
  check_budget "Rng.float per draw" ~budget:2.0 (per_draw Rng.float);
  check_budget "Rng.float_pos per draw" ~budget:2.0 (per_draw Rng.float_pos)

let test_markov () =
  native ();
  let params = Scenario.example1 ~lambda0:1.5 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let config = Sim_markov.default_config params in
  let w, (stats, _) =
    words (fun () -> Sim_markov.run ~rng:(Rng.of_seed 3) config ~horizon:20_000.0)
  in
  check_budget "bare Sim_markov.run, Example 1, per event" ~budget:24.0
    (w /. float_of_int stats.Sim_markov.events)

let test_agent () =
  native ();
  let params = Scenario.flash_crowd ~k:4 ~lambda:100.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let config = Sim_agent.default_config params in
  let w, (stats, _) = words (fun () -> Sim_agent.run ~rng:(Rng.of_seed 3) config ~horizon:100.0) in
  check_budget "Sim_agent.run, flash crowd K=4 lambda=100, per event" ~budget:40.0
    (w /. float_of_int stats.Sim_agent.events)

let test_coded () =
  native ();
  let gift =
    { Stability.Coded.q = 64; k = 32; us = 0.0; mu = 1.0; gamma = infinity; lambda0 = 0.9;
      lambda1 = 0.1 }
  in
  let config = Sim_coded.of_gift gift in
  let w, stats = words (fun () -> Sim_coded.run ~rng:(Rng.of_seed 3) config ~horizon:500.0) in
  check_budget "Sim_coded.run, q=64 K=32 gift swarm, per event" ~budget:70.0
    (w /. float_of_int stats.Sim_coded.events)

let () =
  Alcotest.run "alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "Rng.int_below allocates nothing" `Quick test_int_below;
          Alcotest.test_case "Rng.float and float_pos" `Quick test_floats;
          Alcotest.test_case "Sim_markov Example 1 per event" `Quick test_markov;
          Alcotest.test_case "Sim_agent flash crowd per event" `Quick test_agent;
          Alcotest.test_case "Sim_coded q=64 gift swarm per event" `Quick test_coded;
        ] );
    ]
