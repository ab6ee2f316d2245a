(* The sharded-engine contract (DESIGN §17), checked on Sim_agent, the
   one sharded model:
   - 1 shard ≡ the unsharded path, bit-identical (the goldens' anchor);
   - an N-shard run is deterministic for a fixed shard count: two
     invocations agree bitwise, and the jobs count (domains per window)
     never changes the result;
   - the partition is total: every peer is owned by exactly one shard,
     through arrivals, churn and departures;
   - the per-shard observability merges (hist groups, sample grids,
     Welford sojourns) are associative, so the join order is free. *)

module PS = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Hist = P2p_obs.Hist
module Welford = P2p_stats.Welford
open P2p_core

let params ?(lambda = 2.0) ?(us = 1.0) ?(gamma = 2.0) () =
  Params.make ~k:3 ~us ~mu:1.0 ~gamma
    ~arrivals:[ (PS.empty, lambda); (PS.singleton 0, 0.5) ]

let agent_config ?(faults = Faults.none) ?(initial = []) () =
  { (Sim_agent.default_config (params ())) with Sim_agent.initial; faults }

let churny_faults = Faults.make ~outage:(4.0, 1.0) ~abort_rate:0.05 ~loss_prob:0.02 ()

let check_samples name a b =
  Alcotest.(check int) (name ^ ": grid length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (t, n) ->
      let t', n' = b.(i) in
      Alcotest.(check bool) (Printf.sprintf "%s: grid time %d" name i) true (Float.equal t t');
      Alcotest.(check int) (Printf.sprintf "%s: grid value %d" name i) n n')
    a

let check_agent_stats name (a : Sim_agent.stats) (b : Sim_agent.stats) =
  Alcotest.(check bool) (name ^ ": final_time") true (Float.equal a.final_time b.final_time);
  Alcotest.(check int) (name ^ ": events") a.events b.events;
  Alcotest.(check int) (name ^ ": arrivals") a.arrivals b.arrivals;
  Alcotest.(check int) (name ^ ": transfers") a.transfers b.transfers;
  Alcotest.(check int) (name ^ ": completions") a.completions b.completions;
  Alcotest.(check int) (name ^ ": departures") a.departures b.departures;
  Alcotest.(check bool) (name ^ ": time_avg_n") true (Float.equal a.time_avg_n b.time_avg_n);
  Alcotest.(check int) (name ^ ": max_n") a.max_n b.max_n;
  Alcotest.(check int) (name ^ ": final_n") a.final_n b.final_n;
  Alcotest.(check int) (name ^ ": aborted") a.aborted_peers b.aborted_peers;
  Alcotest.(check int) (name ^ ": lost") a.lost_transfers b.lost_transfers;
  Alcotest.(check bool) (name ^ ": outage") true (Float.equal a.outage_time b.outage_time);
  Alcotest.(check bool) (name ^ ": one-club") true
    (Float.equal a.one_club_time_fraction b.one_club_time_fraction);
  Alcotest.(check int) (name ^ ": sojourns") a.sojourn_count b.sojourn_count;
  Alcotest.(check bool) (name ^ ": mean sojourn") true
    (Float.equal a.mean_sojourn b.mean_sojourn
    || (Float.is_nan a.mean_sojourn && Float.is_nan b.mean_sojourn));
  check_samples name a.samples b.samples

(* ---- 1 shard ≡ unsharded ---- *)

let test_one_shard_agent_golden () =
  let config = agent_config ~faults:churny_faults ~initial:[ (PS.singleton 1, 4) ] () in
  let base, base_state = Sim_agent.run_seeded ~seed:7 config ~horizon:60.0 in
  let sh, sh_state, _ = Sim_agent.run_sharded_seeded ~shards:1 ~seed:7 config ~horizon:60.0 in
  check_agent_stats "agent shards=1" base sh;
  Alcotest.(check bool) "agent shards=1: state" true (State.equal base_state sh_state)

(* ---- N-shard determinism ---- *)

let run_agent_sharded ?jobs () =
  let config = agent_config ~faults:churny_faults ~initial:[ (PS.empty, 10) ] () in
  Sim_agent.run_sharded_seeded ?jobs ~shards:4 ~seed:5 config ~horizon:80.0

let test_nshard_agent_deterministic () =
  let a, sa, ra = run_agent_sharded () in
  let b, sb, rb = run_agent_sharded () in
  check_agent_stats "agent shards=4 rerun" a b;
  Alcotest.(check bool) "state" true (State.equal sa sb);
  Alcotest.(check int) "messages" ra.Sim_agent.cross_messages rb.Sim_agent.cross_messages;
  Alcotest.(check (array int)) "per-shard events" ra.Sim_agent.shard_events
    rb.Sim_agent.shard_events;
  (* The merged max_n covers every shard's own per-event peak, not only
     the summed grid.  Take a stable swarm started empty on a grid of
     just the endpoints: per-shard probes on a fine sim-time grid
     (observers only) see peaks the merge must still bound.  This run
     ends below every shard's peak, so the grid alone would miss them. *)
  let peaks = Array.make 3 0 in
  let probes i =
    P2p_obs.Probe.make ~interval:0.05
      ~on_sample:(fun s -> peaks.(i) <- Int.max peaks.(i) s.P2p_obs.Probe.n)
      ()
  in
  let stable = { (agent_config ~faults:churny_faults ()) with params = params ~lambda:0.5 () } in
  let c, _, _ =
    Sim_agent.run_sharded_seeded ~probes ~sample_every:200.0 ~shards:3 ~seed:1 stable
      ~horizon:200.0
  in
  let peak = Array.fold_left Int.max 0 peaks in
  Alcotest.(check bool)
    (Printf.sprintf "final N %d < per-shard peak %d" c.Sim_agent.final_n peak)
    true (c.Sim_agent.final_n < peak);
  Alcotest.(check bool)
    (Printf.sprintf "max_n %d >= per-shard peaks %s" c.Sim_agent.max_n
       (String.concat "," (Array.to_list (Array.map string_of_int peaks))))
    true (c.Sim_agent.max_n >= peak)

let test_nshard_agent_jobs_invariant () =
  let a, sa, ra = run_agent_sharded ~jobs:1 () in
  let b, sb, rb = run_agent_sharded ~jobs:4 () in
  check_agent_stats "agent shards=4 jobs" a b;
  Alcotest.(check bool) "state" true (State.equal sa sb);
  Alcotest.(check (array int)) "per-shard events" ra.Sim_agent.shard_events
    rb.Sim_agent.shard_events;
  Alcotest.(check (array int)) "per-shard final n" ra.Sim_agent.shard_final_n
    rb.Sim_agent.shard_final_n

(* ---- partition invariants ---- *)

let test_partition_counts () =
  let shards = 3 in
  let initial = [ (PS.empty, 10); (PS.singleton 0, 7); (PS.of_list [ 0; 1 ], 1) ] in
  let parts = Shard.partition_counts ~shards initial in
  Alcotest.(check int) "array length" shards (Array.length parts);
  (* Disjoint union: summing the per-shard counts recovers the input. *)
  let tbl = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun (c, v) ->
         Alcotest.(check bool) "positive share" true (v > 0);
         Hashtbl.replace tbl c (v + Option.value ~default:0 (Hashtbl.find_opt tbl c))))
    parts;
  List.iter
    (fun (c, v) -> Alcotest.(check int) (PS.to_string c) v (Hashtbl.find tbl c))
    initial;
  (* Balance: shares of one type differ by at most one peer. *)
  let shares =
    Array.map (fun part -> List.fold_left (fun a (_, v) -> a + v) 0 part) parts
  in
  let mn = Array.fold_left Int.min max_int shares
  and mx = Array.fold_left Int.max 0 shares in
  Alcotest.(check bool) "balanced within one per type" true (mx - mn <= List.length initial)

let test_agent_partition_population () =
  let config = agent_config ~faults:churny_faults ~initial:[ (PS.empty, 8) ] () in
  let stats, merged, report =
    Sim_agent.run_sharded_seeded ~shards:3 ~seed:31 config ~horizon:90.0
  in
  let part_sum = Array.fold_left ( + ) 0 report.Sim_agent.shard_final_n in
  Alcotest.(check int) "Σ shard populations = merged n" (State.n merged) part_sum;
  Alcotest.(check int) "stats final_n agrees" stats.Sim_agent.final_n part_sum;
  Alcotest.(check int) "population balance"
    (8 + stats.Sim_agent.arrivals - stats.Sim_agent.departures)
    part_sum;
  (* The partition actually ran: more than one shard processed events. *)
  let active =
    Array.fold_left (fun a e -> a + if e > 0 then 1 else 0) 0 report.Sim_agent.shard_events
  in
  Alcotest.(check bool) "several shards active" true (active >= 2)

(* ---- merge associativity ---- *)

let test_hist_group_merge_associative () =
  let mk seed names =
    let g = Hist.group () in
    let rng = Rng.of_seed seed in
    List.iter
      (fun name ->
        let h = Hist.get g name in
        for _ = 1 to 100 do
          Hist.record h (Rng.float rng *. 10.0)
        done)
      names;
    g
  in
  let a () = mk 1 [ "x"; "y" ] and b () = mk 2 [ "y"; "z" ] and c () = mk 3 [ "x"; "z" ] in
  (* (a ⊔ b) ⊔ c vs a ⊔ (b ⊔ c), both folded into a fresh group. *)
  let left = Hist.group () in
  let ab = Hist.group () in
  Hist.merge_group_into ~into:ab (a ());
  Hist.merge_group_into ~into:ab (b ());
  Hist.merge_group_into ~into:left ab;
  Hist.merge_group_into ~into:left (c ());
  let right = Hist.group () in
  let bc = Hist.group () in
  Hist.merge_group_into ~into:bc (b ());
  Hist.merge_group_into ~into:bc (c ());
  Hist.merge_group_into ~into:right (a ());
  Hist.merge_group_into ~into:right bc;
  let names g = List.map fst (Hist.hists g) in
  Alcotest.(check (list string)) "same names" (names left) (names right);
  List.iter2
    (fun (n, hl) (_, hr) ->
      Alcotest.(check int) (n ^ ": count") (Hist.count hl) (Hist.count hr);
      Alcotest.(check bool) (n ^ ": sum") true (Float.equal (Hist.sum hl) (Hist.sum hr));
      Alcotest.(check (array int)) (n ^ ": buckets") (Hist.buckets hl) (Hist.buckets hr))
    (Hist.hists left) (Hist.hists right)

let test_welford_merge_associative () =
  let mk seed =
    let w = Welford.create () in
    let rng = Rng.of_seed seed in
    for _ = 1 to 50 do
      Welford.add w (Rng.float rng)
    done;
    w
  in
  let a = mk 10 and b = mk 20 and c = mk 30 in
  let l = Welford.merge (Welford.merge a b) c in
  let r = Welford.merge a (Welford.merge b c) in
  Alcotest.(check int) "count" (Welford.count l) (Welford.count r);
  Alcotest.(check (float 1e-12)) "mean" (Welford.mean l) (Welford.mean r);
  Alcotest.(check (float 1e-9)) "variance" (Welford.variance l) (Welford.variance r)

(* ---- engine-level guards ---- *)

let test_run_sharded_rejects_zero_shards () =
  Alcotest.check_raises "agent shards=0"
    (Invalid_argument "Sim_agent.run_sharded: shards must be >= 1") (fun () ->
      ignore (Sim_agent.run_sharded_seeded ~shards:0 ~seed:1 (agent_config ()) ~horizon:1.0))

let test_sharded_probe_bit_identity () =
  (* A sharded run with per-shard recorders/hists attached takes the
     same draws as a bare one — probes only observe. *)
  let config = agent_config ~faults:churny_faults () in
  let bare, bare_state, _ = Sim_agent.run_sharded_seeded ~shards:2 ~seed:9 config ~horizon:60.0 in
  let groups = Array.init 2 (fun _ -> Hist.group ()) in
  let probes i = P2p_obs.Probe.make ~hists:groups.(i) () in
  let probed, probed_state, _ =
    Sim_agent.run_sharded_seeded ~probes ~shards:2 ~seed:9 config ~horizon:60.0
  in
  check_agent_stats "probed sharded run" bare probed;
  Alcotest.(check bool) "state" true (State.equal bare_state probed_state);
  (* And the per-shard hists saw the shards' contacts. *)
  let merged = Hist.group () in
  Array.iter (fun g -> Hist.merge_group_into ~into:merged g) groups;
  let contact = Hist.get merged "sim_agent/contact" in
  Alcotest.(check bool) "merged contact hist non-empty" true (Hist.count contact > 0)

let () =
  Alcotest.run "shard"
    [
      ( "one-shard-identity",
        [
          Alcotest.test_case "agent golden" `Quick test_one_shard_agent_golden;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "agent rerun byte-equal" `Quick test_nshard_agent_deterministic;
          Alcotest.test_case "agent jobs-invariant" `Quick test_nshard_agent_jobs_invariant;
          Alcotest.test_case "probe bit-identity" `Quick test_sharded_probe_bit_identity;
        ] );
      ( "partition",
        [
          Alcotest.test_case "initial split is a disjoint union" `Quick test_partition_counts;
          Alcotest.test_case "agent ownership total" `Quick test_agent_partition_population;
        ] );
      ( "merge-associativity",
        [
          Alcotest.test_case "hist groups" `Quick test_hist_group_merge_associative;
          Alcotest.test_case "welford sojourns" `Quick test_welford_merge_associative;
        ] );
      ( "guards",
        [ Alcotest.test_case "shards=0 rejected" `Quick test_run_sharded_rejects_zero_shards ] );
    ]
