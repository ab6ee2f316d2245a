(* Heterogeneous peer classes: the threshold heuristic, and its classes
   simulated on Sim_agent's class table. *)

open P2p_core
module PS = P2p_pieceset.Pieceset

let closef ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6g got %.6g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let test_validation () =
  let reject name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  reject "no classes" (fun () -> Hetero.make ~k:2 ~us:0.0 ~classes:[]);
  reject "bad mu" (fun () ->
      Hetero.make ~k:2 ~us:0.0
        ~classes:[ { label = "x"; mu = 0.0; gamma = 1.0; arrivals = [ (PS.empty, 1.0) ] } ]);
  reject "no arrivals" (fun () ->
      Hetero.make ~k:2 ~us:0.0
        ~classes:[ { label = "x"; mu = 1.0; gamma = 1.0; arrivals = [] } ]);
  reject "lambda_F with gamma inf" (fun () ->
      Hetero.make ~k:2 ~us:0.0
        ~classes:
          [ { label = "x"; mu = 1.0; gamma = infinity; arrivals = [ (PS.full ~k:2, 1.0) ] } ])

let test_single_class_reduces_to_theorem1 () =
  (* The heuristic must agree with Theorem 1 exactly when there is one
     class, across regimes and gift mixes. *)
  let cases =
    [
      Scenario.flash_crowd ~k:3 ~lambda:0.9 ~us:0.8 ~mu:1.0 ~gamma:2.0;
      Scenario.flash_crowd ~k:3 ~lambda:1.3 ~us:0.3 ~mu:1.0 ~gamma:infinity;
      Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu:1.0 ~gamma:1.5;
      Scenario.example2 ~lambda12:1.0 ~lambda34:0.4 ~mu:1.0;
      Params.make ~k:3 ~us:0.4 ~mu:1.0 ~gamma:2.0
        ~arrivals:[ (PS.empty, 1.0); (PS.singleton 0, 0.5) ];
    ]
  in
  List.iter
    (fun p ->
      let h = Hetero.of_params p in
      Alcotest.(check string) "verdict agrees"
        (Stability.verdict_to_string (Stability.classify p))
        (Stability.verdict_to_string (Hetero.classify_heuristic h));
      for piece = 0 to p.Params.k - 1 do
        closef "threshold agrees" (Stability.threshold p ~piece) (Hetero.threshold h ~piece)
      done)
    cases

let two_classes ~lam_fast ~lam_slow =
  Hetero.make ~k:3 ~us:0.4
    ~classes:
      [
        { label = "fast"; mu = 3.0; gamma = 6.0; arrivals = [ (PS.empty, lam_fast) ] };
        { label = "slow"; mu = 0.3; gamma = 0.6; arrivals = [ (PS.empty, lam_slow) ] };
      ]

let test_mbar_mixes_classes () =
  (* both classes have rho = 1/2, so any mix gives m_bar = 1/2 *)
  closef "equal rho" 0.5 (Hetero.mean_seed_offspring (two_classes ~lam_fast:1.0 ~lam_slow:0.1) ~piece:0);
  (* asymmetric rho: the mix matters *)
  let asym frac =
    Hetero.make ~k:2 ~us:0.1
      ~classes:
        [
          { label = "a"; mu = 1.0; gamma = 4.0; arrivals = [ (PS.empty, frac) ] };
          { label = "b"; mu = 1.0; gamma = 1.25; arrivals = [ (PS.empty, 1.0 -. frac) ] };
        ]
  in
  closef "all a" 0.25 (Hetero.mean_seed_offspring (asym 1.0) ~piece:0);
  closef "all b" 0.8 (Hetero.mean_seed_offspring (asym 0.0) ~piece:0);
  closef "half" 0.525 (Hetero.mean_seed_offspring (asym 0.5) ~piece:0)

let test_threshold_infinite_when_supercritical () =
  let h =
    Hetero.make ~k:2 ~us:0.05
      ~classes:
        [ { label = "sticky"; mu = 1.0; gamma = 0.5; arrivals = [ (PS.empty, 5.0) ] } ]
  in
  closef "m_bar = 2" 2.0 (Hetero.mean_seed_offspring h ~piece:0);
  Alcotest.(check bool) "infinite threshold" true (Hetero.threshold h ~piece:0 = infinity);
  Alcotest.(check string) "stable at any load" "positive-recurrent"
    (Stability.verdict_to_string (Hetero.classify_heuristic h))

(* ---- simulation: the class table on Sim_agent ---- *)

let simulate ?max_events ~seed h ~horizon =
  fst (Sim_agent.run_seeded ?max_events ~seed (Hetero.agent_config h) ~horizon)

let verdict (s : Sim_agent.stats) =
  Classify.verdict_to_string (Classify.of_run ~truncated:s.truncated s.samples).verdict

let test_simulation_conservation () =
  let h = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let s = simulate ~seed:1 h ~horizon:1000.0 in
  Alcotest.(check int) "conservation" (s.arrivals - s.departures) s.final_n;
  Alcotest.(check int) "class count" 2 (Array.length s.class_mean_n)

(* An explicit one-class table is the paper's model: every statistic and
   the final state match the default config bit for bit, on the plain
   and the sharded path, so a lone class draws no extra random number. *)
let test_one_class_is_default_agent () =
  let p = Scenario.flash_crowd ~k:3 ~lambda:0.8 ~us:0.8 ~mu:1.0 ~gamma:2.0 in
  let initial = [ (PS.empty, 6) ] in
  let explicit = { (Hetero.agent_config (Hetero.of_params p)) with initial } in
  let default = { (Sim_agent.default_config p) with initial } in
  let same name (a : Sim_agent.stats * State.t) (b : Sim_agent.stats * State.t) =
    Alcotest.(check bool) (name ^ ": stats") true (fst a = fst b);
    Alcotest.(check bool) (name ^ ": state") true (State.to_alist (snd a) = State.to_alist (snd b))
  in
  same "run"
    (Sim_agent.run_seeded ~seed:7 explicit ~horizon:400.0)
    (Sim_agent.run_seeded ~seed:7 default ~horizon:400.0);
  List.iter
    (fun (shards, jobs) ->
      let go config =
        let s, st, r = Sim_agent.run_sharded_seeded ~jobs ~shards ~seed:9 config ~horizon:400.0 in
        ((s, st), r.Sim_agent.shard_events)
      in
      let (a, ea), (b, eb) = (go explicit, go default) in
      let name = Printf.sprintf "shards %d, jobs %d" shards jobs in
      same name a b;
      Alcotest.(check (array int)) (name ^ ": per-shard events") eb ea)
    [ (1, 1); (2, 1); (2, 2) ]

let test_two_class_region_by_simulation () =
  let stable = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  Alcotest.(check string) "heuristic stable" "positive-recurrent"
    (Stability.verdict_to_string (Hetero.classify_heuristic stable));
  let s = simulate ~seed:2 stable ~horizon:2000.0 in
  Alcotest.(check string) "sim stable" "appears-stable" (verdict s);
  let transient = two_classes ~lam_fast:1.0 ~lam_slow:1.0 in
  Alcotest.(check string) "heuristic transient" "transient"
    (Stability.verdict_to_string (Hetero.classify_heuristic transient));
  let s = simulate ~seed:3 transient ~horizon:2000.0 in
  Alcotest.(check string) "sim transient" "appears-unstable" (verdict s)

let test_fast_class_finishes_faster () =
  (* Downloads come from everyone's uploads, but slow peers dwell as
     seeds for 1/0.6 against the fast class's 1/6, so their sojourn must
     be longer. *)
  let h = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let s = simulate ~seed:4 h ~horizon:3000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "slow sojourn %.2f > fast %.2f" s.class_mean_sojourn.(1)
       s.class_mean_sojourn.(0))
    true
    (s.class_mean_sojourn.(1) > s.class_mean_sojourn.(0))

let test_sticky_slow_class_stabilises () =
  (* A small stream of long-dwelling peers can stabilise a load that the
     fast class alone could not: the heterogeneous version of the
     one-more-piece corollary. *)
  let mix sticky =
    Hetero.make ~k:2 ~us:0.1
      ~classes:
        [
          { label = "impatient"; mu = 1.0; gamma = infinity; arrivals = [ (PS.empty, 1.0) ] };
          { label = "sticky"; mu = 1.0; gamma = 0.4; arrivals = [ (PS.empty, sticky) ] };
        ]
  in
  (* without sticky peers: threshold = us/(1-0) = 0.1 << 1.0 transient *)
  Alcotest.(check string) "no sticky: transient" "transient"
    (Stability.verdict_to_string (Hetero.classify_heuristic (mix 0.001)));
  (* with enough sticky mass, m_bar = (1.0*0 + s*2.5)/(1+s) >= 1 at s >= 2/3 *)
  Alcotest.(check string) "sticky mass rescues" "positive-recurrent"
    (Stability.verdict_to_string (Hetero.classify_heuristic (mix 0.8)));
  let s = simulate ~seed:5 (mix 0.8) ~horizon:2000.0 in
  Alcotest.(check string) "sim agrees" "appears-stable" (verdict s)

(* An exhausted event budget is reported, not papered over: the run is
   flagged truncated and its verdict is inconclusive. *)
let test_truncation_reported () =
  let s = simulate ~max_events:50 ~seed:6 (two_classes ~lam_fast:1.0 ~lam_slow:1.0) ~horizon:500.0 in
  Alcotest.(check bool) "truncated" true s.truncated;
  Alcotest.(check int) "events = budget" 50 s.events;
  Alcotest.(check string) "inconclusive" "inconclusive" (verdict s)

(* The peer band is Σ_c μ_c·n_c: in a given population the first peer
   contact's uploader is of class c with probability μ_c·n_c / Σ.  Three
   class-0 peers start with pieces 0, 1 and 2; class-1 peers arrive with
   piece 3, and only trials whose first contact finds exactly one of them
   are kept.  In that population every peer holds a piece nobody else
   has, so a contact moves the uploader's piece, which names its class,
   unless it is a self-contact; that has chance 1/4 for every uploader,
   so dropping it leaves the law unchanged. *)
let test_uploader_class_law () =
  let classes =
    [|
      { Sim_agent.mu = 1.0; gamma = 1.0; arrivals = [||] };
      { Sim_agent.mu = 2.5; gamma = 1.0; arrivals = [| (PS.singleton 3, 3.0) |] };
    |]
  in
  let params = Params.make ~k:4 ~us:0.0 ~mu:1.0 ~gamma:1.0 ~arrivals:[ (PS.singleton 3, 3.0) ] in
  let initial = List.init 3 (fun i -> (PS.singleton i, 1)) in
  let config = { (Sim_agent.default_config params) with classes; initial } in
  let p0 = 3.0 /. (3.0 +. 2.5) in
  let rng = P2p_prng.Rng.of_seed 2024 in
  let trials = ref 0 and class0 = ref 0 in
  for _ = 1 to 20_000 do
    (* Class-1 arrivals before the first contact; that contact is kept
       when it is useful and found exactly one of them. *)
    let arrived = ref 0 and phase = ref `Before in
    let on_event ~time:_ = function
      | P2p_obs.Probe.Arrival _ when !phase = `Before -> incr arrived
      | P2p_obs.Probe.Contact { useful; _ } when !phase = `Before ->
          phase := if useful && !arrived = 1 then `Kept else `Done
      | P2p_obs.Probe.Transfer { piece; _ } when !phase = `Kept ->
          incr trials;
          if piece < 3 then incr class0;
          phase := `Done
      | _ -> ()
    in
    ignore (Sim_agent.run ~probe:(P2p_obs.Probe.make ~on_event ()) ~max_events:20 ~rng config
              ~horizon:1e6)
  done;
  let n = float_of_int !trials in
  let freq = float_of_int !class0 /. n in
  let band = 4.0 *. sqrt (p0 *. (1.0 -. p0) /. n) in
  Alcotest.(check bool) (Printf.sprintf "enough kept trials (%d)" !trials) true (!trials > 3_000);
  Alcotest.(check bool)
    (Printf.sprintf "class-0 uploader share %.4f vs %.4f +- %.4f" freq p0 band)
    true
    (Float.abs (freq -. p0) <= band)

let () =
  Alcotest.run "hetero"
    [
      ( "hetero",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "reduces to Theorem 1" `Quick test_single_class_reduces_to_theorem1;
          Alcotest.test_case "m_bar mixes" `Quick test_mbar_mixes_classes;
          Alcotest.test_case "supercritical" `Quick test_threshold_infinite_when_supercritical;
          Alcotest.test_case "conservation" `Quick test_simulation_conservation;
          Alcotest.test_case "matches agent" `Quick test_one_class_is_default_agent;
          Alcotest.test_case "two-class region" `Quick test_two_class_region_by_simulation;
          Alcotest.test_case "sojourn ordering" `Quick test_fast_class_finishes_faster;
          Alcotest.test_case "sticky class rescues" `Quick test_sticky_slow_class_stabilises;
          Alcotest.test_case "truncation reported" `Quick test_truncation_reported;
          Alcotest.test_case "uploader class law" `Quick test_uploader_class_law;
        ] );
    ]
