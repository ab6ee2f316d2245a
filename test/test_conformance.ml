(* Cross-engine conformance: the simulators, the generator, the fluid
   limit, and the exact stationary solver must all describe the same
   Markov chain.

   These tests are the repository's strongest correctness net: they take
   the *same* parameterisation through independent code paths and require
   quantitative agreement. *)

open P2p_core
module PS = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng

(* ---- 1. empirical first-jump law vs the generator row ---- *)

(* From a frozen state the first state change is a given transition with
   probability rate/total_rate, and it happens after an Exp(total_rate)
   holding time, where total_rate sums the generator row
   ([Rate.transitions]) — silent contacts are self-loops and do not
   count.  We measure both by running many very short simulations from
   that state and diffing states, under two policies (the generator row
   depends on the policy; its total does not, by Theorem 14).  The state
   has seeds in their dwell stage, so every contact band is live. *)
let test_first_jump_law () =
  let p =
    Params.make ~k:2 ~us:0.7 ~mu:1.0 ~gamma:2.0
      ~arrivals:[ (PS.empty, 0.6); (PS.singleton 0, 0.4) ]
  in
  let initial =
    [ (PS.empty, 4); (PS.singleton 0, 2); (PS.singleton 1, 1); (PS.full ~k:2, 2) ]
  in
  let state0 = State.of_counts initial in
  (* key the expected distribution by the resulting state fingerprint *)
  let fingerprint st =
    String.concat ";"
      (List.map (fun (c, n) -> Printf.sprintf "%d:%d" (PS.to_index c) n) (State.to_alist st))
  in
  let check_policy ~seed policy =
    let name = policy.Policy.name in
    let transitions = Rate.transitions ~policy p state0 in
    let total_rate = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 transitions in
    let expected = Hashtbl.create 16 in
    List.iter
      (fun (tr, rate) ->
        let next = State.copy state0 in
        Rate.apply p next tr;
        let key = fingerprint next in
        Hashtbl.replace expected key
          (rate /. total_rate +. Option.value (Hashtbl.find_opt expected key) ~default:0.0))
      transitions;
    (* simulate the first jump many times *)
    let observed = Hashtbl.create 16 in
    let holding = P2p_stats.Welford.create () in
    let reps = 60_000 in
    let rng = Rng.of_seed seed in
    let config = { (Sim_markov.default_config p) with policy; initial } in
    for _ = 1 to reps do
      (* run until the first state change using the observer *)
      let first = ref None in
      let observer ~time ~state =
        if Option.is_none !first then first := Some (time, fingerprint state)
      in
      (* a long-enough horizon that a change almost surely happens *)
      ignore (Sim_markov.run ~observer ~rng config ~horizon:(60.0 /. total_rate));
      match !first with
      | Some (time, key) ->
          P2p_stats.Welford.add holding time;
          Hashtbl.replace observed key
            (1 + Option.value (Hashtbl.find_opt observed key) ~default:0)
      | None -> ()
    done;
    let seen = Hashtbl.fold (fun _ c acc -> acc + c) observed 0 in
    Alcotest.(check bool) (name ^ ": almost all runs jumped") true (seen > reps * 99 / 100);
    Hashtbl.iter
      (fun key prob ->
        let freq =
          float_of_int (Option.value (Hashtbl.find_opt observed key) ~default:0)
          /. float_of_int seen
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: jump to %s: theory %.4f empirical %.4f" name key prob freq)
          true
          (Float.abs (prob -. freq) < 0.01))
      expected;
    (* The holding time is Exp(total_rate): its sample mean has standard
       error (1/total_rate)/sqrt(seen).  4.5 standard errors is a
       two-sided false-alarm rate below 1e-5. *)
    let mean = P2p_stats.Welford.mean holding in
    let theory = 1.0 /. total_rate in
    let tol = 4.5 *. theory /. Float.sqrt (float_of_int seen) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: mean holding time %.5f vs 1/total_rate %.5f (tol %.5f)" name mean
         theory tol)
      true
      (Float.abs (mean -. theory) <= tol)
  in
  check_policy ~seed:1 Policy.random_useful;
  check_policy ~seed:2 Policy.rarest_first

(* ---- 2. four engines, one stationary mean ---- *)

let test_four_engines_agree () =
  let p = Params.make ~k:2 ~us:0.9 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.5) ] in
  (* exact *)
  let chain = Truncated.build p ~n_max:22 in
  let exact = Truncated.mean_population chain (Truncated.stationary chain) in
  (* aggregate simulation *)
  let markov =
    (fst (Sim_markov.run_seeded ~seed:2 (Sim_markov.default_config p) ~horizon:25_000.0))
      .time_avg_n
  in
  (* per-peer simulation *)
  let agent =
    (fst (Sim_agent.run_seeded ~seed:3 (Sim_agent.default_config p) ~horizon:25_000.0))
      .time_avg_n
  in
  (* network simulation at degree = inf *)
  let network =
    (fst (Sim_network.run_seeded ~seed:4 (Sim_network.default_config p) ~horizon:25_000.0))
      .time_avg_n
  in
  let check name value =
    Alcotest.(check bool)
      (Printf.sprintf "%s %.3f vs exact %.3f" name value exact)
      true
      (Float.abs (value -. exact) /. exact < 0.08)
  in
  check "sim_markov" markov;
  check "sim_agent" agent;
  check "sim_network" network

(* ---- 3. fluid drift equals generator mean drift on random states ---- *)

(* K = 3 with dense random counts, then K = 5 dense and sparse (each type
   occupied with probability 1/8), so the RHS's skip of empty types is
   checked against the generator too. *)
let test_fluid_equals_generator_everywhere () =
  let rng = Rng.of_seed 5 in
  let check p ~count =
    let d = 1 lsl p.Params.k in
    for _ = 1 to 40 do
      let entries =
        List.filter_map
          (fun c ->
            let count = count () in
            if count > 0 then Some (PS.of_index c, count) else None)
          (List.init d (fun i -> i))
      in
      let s = State.of_counts entries in
      let x = Fluid.of_state ~k:p.k s in
      let dx = Fluid.derivative p x in
      List.iter
        (fun c ->
          let f st = float_of_int (State.count st (PS.of_index c)) in
          let generator_drift = Lyapunov.drift p ~f s in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "k=%d type %d" p.k c)
            generator_drift dx.(c))
        (List.init d (fun i -> i))
    done
  in
  check
    (Params.make ~k:3 ~us:0.5 ~mu:1.3 ~gamma:1.8
       ~arrivals:[ (PS.empty, 0.7); (PS.of_list [ 0; 1 ], 0.2) ])
    ~count:(fun () -> Rng.int_below rng 6);
  let k5 =
    Params.make ~k:5 ~us:0.9 ~mu:1.1 ~gamma:2.5
      ~arrivals:[ (PS.empty, 1.2); (PS.of_list [ 0; 3 ], 0.4); (PS.of_list [ 1; 2; 4 ], 0.3) ]
  in
  check k5 ~count:(fun () -> Rng.int_below rng 6);
  check k5 ~count:(fun () -> if Rng.int_below rng 8 = 0 then 1 + Rng.int_below rng 9 else 0)

(* ---- 4. coded engines: agent vs type-level vs exact ---- *)

let test_coded_engines_agree () =
  let cfg =
    { Coded_chain.q = 2; k = 2; us = 2.0; mu = 1.0; gamma = infinity;
      arrivals = [ (0, 0.5); (1, 0.5) ] }
  in
  let t = Coded_chain.create cfg in
  let exact = (Coded_chain.stationary t ~n_max:25).mean_n in
  let type_level =
    (Coded_chain.simulate ~rng:(Rng.of_seed 6) t ~init:(Coded_chain.empty_state t)
       ~horizon:25_000.0)
      .time_avg_n
  in
  let g = { Stability.Coded.q = 2; k = 2; us = 2.0; mu = 1.0; gamma = infinity;
            lambda0 = 0.5; lambda1 = 0.5 } in
  let agent = (Sim_coded.run_seeded ~seed:7 (Sim_coded.of_gift g) ~horizon:25_000.0).time_avg_n in
  Alcotest.(check bool)
    (Printf.sprintf "type-level %.3f vs exact %.3f" type_level exact)
    true
    (Float.abs (type_level -. exact) /. exact < 0.08);
  Alcotest.(check bool)
    (Printf.sprintf "agent %.3f vs exact %.3f" agent exact)
    true
    (Float.abs (agent -. exact) /. exact < 0.08)

(* ---- 5. Little's law across simulators ---- *)

let test_littles_law_everywhere () =
  let p = Params.make ~k:3 ~us:0.8 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.6) ] in
  let stats, _ = Sim_agent.run_seeded ~seed:8 (Sim_agent.default_config p) ~horizon:20_000.0 in
  let lambda = Params.lambda_total p in
  Alcotest.(check bool)
    (Printf.sprintf "N = lambda T: %.3f vs %.3f" stats.time_avg_n
       (lambda *. stats.mean_sojourn))
    true
    (Float.abs (stats.time_avg_n -. (lambda *. stats.mean_sojourn))
     /. Float.max 1.0 stats.time_avg_n
    < 0.08)

(* ---- 6. sharded runs agree in law with unsharded ones ---- *)

(* A sharded run is a different sample path of (approximately) the same
   chain: stale remote populations and barrier-time uploads are its
   O(sync_every) deviations (DESIGN §17).  At a small window the
   replicated time-average N and transfer rate of 2-shard agent runs
   (the one sharded model) must sit within the replication confidence
   interval of unsharded runs. *)
let test_sharded_agrees_in_law () =
  let p = Params.make ~k:3 ~us:2.0 ~mu:1.0 ~gamma:1.0 ~arrivals:[ (PS.empty, 1.0) ] in
  let horizon = 500.0 and reps = 40 and sync_every = 0.05 in
  let replicate ~master run =
    let n = P2p_stats.Welford.create () and rate = P2p_stats.Welford.create () in
    for i = 0 to reps - 1 do
      let time_avg_n, transfers = run (Rng.of_seed_pair ~master ~stream:i) in
      P2p_stats.Welford.add n time_avg_n;
      P2p_stats.Welford.add rate (float_of_int transfers /. horizon)
    done;
    (n, rate)
  in
  let agree backend (un_n, un_rate) (sh_n, sh_rate) =
    let check what a b =
      let open P2p_stats.Welford in
      let tol = 3.0 *. Float.sqrt ((std_error a ** 2.0) +. (std_error b ** 2.0)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: unsharded %.4f vs 2 shards %.4f (tol %.4f)" backend what
           (mean a) (mean b) tol)
        true
        (Float.abs (mean a -. mean b) <= tol)
    in
    check "time-avg N" un_n sh_n;
    check "transfer rate" un_rate sh_rate
  in
  let aconfig = Sim_agent.default_config p in
  agree "agent"
    (replicate ~master:63 (fun rng ->
         let s, _ = Sim_agent.run ~rng aconfig ~horizon in
         (s.time_avg_n, s.transfers)))
    (replicate ~master:64 (fun rng ->
         let s, _, _ = Sim_agent.run_sharded ~sync_every ~shards:2 ~rng aconfig ~horizon in
         (s.time_avg_n, s.transfers)))

let () =
  Alcotest.run "conformance"
    [
      ( "conformance",
        [
          Alcotest.test_case "first-jump law = generator row" `Slow test_first_jump_law;
          Alcotest.test_case "four engines, one mean" `Slow test_four_engines_agree;
          Alcotest.test_case "fluid = generator drift" `Quick test_fluid_equals_generator_everywhere;
          Alcotest.test_case "coded engines agree" `Slow test_coded_engines_agree;
          Alcotest.test_case "Little's law" `Slow test_littles_law_everywhere;
          Alcotest.test_case "sharded = unsharded in law" `Slow test_sharded_agrees_in_law;
        ] );
    ]
