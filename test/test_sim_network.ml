(* The topology-constrained swarm simulator. *)

open P2p_core
module PS = P2p_pieceset.Pieceset

let stable = Scenario.flash_crowd ~k:3 ~lambda:0.9 ~us:0.8 ~mu:1.0 ~gamma:2.0
let transient = Scenario.flash_crowd ~k:3 ~lambda:1.3 ~us:0.3 ~mu:1.0 ~gamma:infinity

let close ?(tol = 0.15) name expected actual =
  let rel = Float.abs (actual -. expected) /. Float.max 1.0 (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.4g got %.4g" name expected actual)
    true (rel < tol)

let test_conservation () =
  List.iter
    (fun degree ->
      let cfg = { (Sim_network.default_config stable) with degree } in
      let s, final = Sim_network.run_seeded ~seed:1 cfg ~horizon:1000.0 in
      Alcotest.(check int) "arrivals - departures = final" (s.arrivals - s.departures) s.final_n;
      Alcotest.(check int) "state agrees" (State.n final) s.final_n)
    [ None; Some 4; Some 1 ]

let test_fully_connected_matches_agent () =
  let avg run_fn =
    let w = P2p_stats.Welford.create () in
    for seed = 1 to 10 do
      P2p_stats.Welford.add w (run_fn seed)
    done;
    P2p_stats.Welford.mean w
  in
  let network seed =
    (fst (Sim_network.run_seeded ~seed (Sim_network.default_config stable) ~horizon:1500.0))
      .time_avg_n
  in
  let agent seed =
    (fst (Sim_agent.run_seeded ~seed:(seed + 50) (Sim_agent.default_config stable) ~horizon:1500.0))
      .time_avg_n
  in
  close ~tol:0.12 "same law at degree = inf" (avg agent) (avg network)

let test_stable_on_sparse_topology () =
  let cfg = { (Sim_network.default_config stable) with degree = Some 4 } in
  let s, _ = Sim_network.run_seeded ~seed:2 cfg ~horizon:2000.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "still stable at degree 4" "appears-stable"
    (Classify.verdict_to_string r.verdict)

let test_transient_on_sparse_topology () =
  let cfg = { (Sim_network.default_config transient) with degree = Some 4 } in
  let s, _ = Sim_network.run_seeded ~seed:3 cfg ~horizon:1200.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "still transient at degree 4" "appears-unstable"
    (Classify.verdict_to_string r.verdict);
  (* one-club witness rises *)
  let _, last_club = s.club_samples.(Array.length s.club_samples - 1) in
  Alcotest.(check bool) "club forms" true (last_club > 0.5)

let test_mean_degree_tracked () =
  let cfg = { (Sim_network.default_config stable) with degree = Some 3 } in
  let s, _ = Sim_network.run_seeded ~seed:4 cfg ~horizon:800.0 in
  Alcotest.(check bool) "mean degree positive and bounded" true
    (s.mean_degree_time_avg > 0.5 && s.mean_degree_time_avg < 20.0);
  Alcotest.(check bool) "components reported" true (s.final_component_sizes <> [])

let test_degree_validation () =
  let cfg = { (Sim_network.default_config stable) with degree = Some 0 } in
  Alcotest.(check bool) "degree 0 rejected" true
    (try
       ignore (Sim_network.run_seeded ~seed:5 cfg ~horizon:10.0);
       false
     with Invalid_argument _ -> true)

let test_rarest_choices_run () =
  List.iter
    (fun choice ->
      let cfg =
        { (Sim_network.default_config stable) with degree = Some 5; choice }
      in
      let s, _ = Sim_network.run_seeded ~seed:6 cfg ~horizon:800.0 in
      let r = Classify.of_samples s.samples in
      Alcotest.(check string) "stable under rarity policies" "appears-stable"
        (Classify.verdict_to_string r.verdict))
    [ Sim_network.Rarest_global; Sim_network.Rarest_local ]

(* With no overlay every peer neighbours the whole swarm, so local
   rarity is read off the global piece counts (this used to look up
   overlay nodes that a full mesh never creates). *)
let test_local_rarest_on_full_mesh () =
  let cfg =
    { (Sim_network.default_config stable) with degree = None; choice = Sim_network.Rarest_local }
  in
  let s, _ = Sim_network.run_seeded ~seed:8 cfg ~horizon:800.0 in
  Alcotest.(check int) "conservation" (s.arrivals - s.departures) s.final_n;
  Alcotest.(check string) "stable" "appears-stable"
    (Classify.verdict_to_string (Classify.of_run ~truncated:s.truncated s.samples).verdict)

let test_local_rarest_beats_random_on_club_pressure () =
  (* In the transient regime the one-club witness should rise at least as
     fast under random-useful as under local rarest-first (which fights
     rarity). Compare the time the club fraction stays above 1/2. *)
  let run choice =
    let cfg = { (Sim_network.default_config transient) with degree = Some 6; choice } in
    let s, _ = Sim_network.run_seeded ~seed:7 cfg ~horizon:900.0 in
    let above =
      Array.fold_left (fun acc (_, c) -> if c > 0.5 then acc + 1 else acc) 0 s.club_samples
    in
    float_of_int above /. float_of_int (Array.length s.club_samples)
  in
  let random = run Sim_network.Random_useful in
  let rarest = run Sim_network.Rarest_local in
  Alcotest.(check bool)
    (Printf.sprintf "rarest (%.2f) <= random (%.2f) + slack" rarest random)
    true
    (rarest <= random +. 0.15)

let test_deterministic () =
  let cfg = { (Sim_network.default_config stable) with degree = Some 4 } in
  let a, _ = Sim_network.run_seeded ~seed:8 cfg ~horizon:300.0 in
  let b, _ = Sim_network.run_seeded ~seed:8 cfg ~horizon:300.0 in
  Alcotest.(check int) "same events" a.events b.events;
  Alcotest.(check int) "same transfers" a.transfers b.transfers

let test_degree_one_line_graph_survives () =
  (* Degree 1 gives a forest; the global seed still reaches everyone, so a
     comfortably stable system should survive, if with higher population. *)
  let cfg = { (Sim_network.default_config stable) with degree = Some 1 } in
  let s, _ = Sim_network.run_seeded ~seed:9 cfg ~horizon:1500.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "degree-1 still stable" "appears-stable"
    (Classify.verdict_to_string r.verdict)

let () =
  Alcotest.run "sim_network"
    [
      ( "sim_network",
        [
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "matches agent at deg=inf" `Slow test_fully_connected_matches_agent;
          Alcotest.test_case "stable sparse" `Quick test_stable_on_sparse_topology;
          Alcotest.test_case "transient sparse" `Quick test_transient_on_sparse_topology;
          Alcotest.test_case "mean degree" `Quick test_mean_degree_tracked;
          Alcotest.test_case "degree validation" `Quick test_degree_validation;
          Alcotest.test_case "rarity policies" `Quick test_rarest_choices_run;
          Alcotest.test_case "rarest-local on full mesh" `Quick test_local_rarest_on_full_mesh;
          Alcotest.test_case "rarest fights the club" `Quick test_local_rarest_beats_random_on_club_pressure;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "degree one" `Quick test_degree_one_line_graph_survives;
        ] );
    ]
