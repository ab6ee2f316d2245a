module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist

type config = {
  params : Params.t;
  policy : Policy.t;
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
}

let default_config params =
  { params; policy = Policy.random_useful; initial = []; faults = Faults.none }

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  visits_to_empty : int;
  truncated : bool;
  stopped : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
}

let stats_of (common : Engine.stats) ~visits_to_empty =
  {
    final_time = common.final_time;
    events = common.events;
    arrivals = common.arrivals;
    transfers = common.transfers;
    completions = common.completions;
    departures = common.departures;
    time_avg_n = common.time_avg_n;
    max_n = common.max_n;
    final_n = common.final_n;
    visits_to_empty;
    truncated = common.truncated;
    stopped = common.stopped;
    outage_time = common.outage_time;
    aborted_peers = common.aborted_peers;
    lost_transfers = common.lost_transfers;
    samples = common.samples;
  }

(* The markov swarm's one model: shard [shard] of [shards], holding the
   peers of [initial].  [run] is shard 0 of 1; [run_sharded] builds
   shard i of S.  The placement enters only as values:
   - arrivals are Poisson-thinned, λ/S per shard;
   - contact initiation is local (μ·n_i sums to μ·n over the shards);
   - the fixed seed lives on shard 0, gated on the visible global
     population (own peers live, the others as of the last sync);
   - the downloader of every contact is one uniform draw over that
     population ([Shard.route]): a local draw is the downloader's rank, a
     remote one becomes a message the receiving shard resolves with its
     own generator at the barrier ([sh_deliver]).
   A lone shard sees nobody else, so its routing draw is exactly the
   unsharded downloader draw.  [observer], [until] and the per-event
   [visits_to_empty] count are the lone shard's; with several shards,
   shard 0 counts empties at the sync barriers instead.  [probe] only
   ever receives events (never randomness or state), so a [Probe.none]
   run takes the exact same draws in the exact same order. *)
let shard_model config ~probe ~observer ~until ~initial ~shard ~shards ~rng ~send h =
  let p = config.params in
  let tracing = probe.Probe.tracing in
  let full = Params.full_set p in
  let state = State.of_counts initial in
  (* Walker alias table: O(1) arrival-type draws instead of a linear CDF
     scan, and no per-arrival allocation. *)
  let arrival_alias = Dist.Alias.make (Array.map snd p.arrivals) in
  let counters = Engine.counters h in
  let frun = Engine.faults h in
  let abort_rate = config.faults.abort_rate in
  let view = Shard.view ~me:shard ~shards in
  let visits_to_empty = ref 0 in
  (* sampled phase cost of contact resolution (policy sampling + piece
     bookkeeping) — the markov hot path's dominant term *)
  let contact_tm = Hist.timer (Hist.get probe.Probe.hists "sim_markov/contact") in
  Engine.observe h ~time:(Engine.start_time h) ~n:(State.n state);
  (* The seed count is maintained incrementally (arrival of a full set,
     completion into the dwell stage, seed departure) so the per-event
     rate recomputation is pure arithmetic — no hash lookup on the hot
     path. *)
  let seeds = ref (State.count state full) in
  let us = p.us and mu = p.mu and gamma = p.gamma in
  let immediate = Params.immediate_departure p in
  (* Rate bands, stashed by [total_rate] for [apply]'s dispatch. *)
  let rate_arrival = ref (Params.lambda_total p /. float_of_int shards) in
  let rate_seed_contact = ref 0.0 in
  let rate_peer_contact = ref 0.0 in
  let rate_abort = ref 0.0 in
  let total_rate () =
    let n = State.n state in
    let s = !seeds in
    rate_seed_contact :=
      (if shard = 0 && Shard.visible view ~local_n:n > 0 && Faults.seed_up frun then us
       else 0.0);
    rate_peer_contact := mu *. float_of_int n;
    rate_abort := abort_rate *. float_of_int (n - s);
    let rate_departure = if immediate then 0.0 else gamma *. float_of_int s in
    !rate_arrival +. !rate_seed_contact +. !rate_peer_contact +. !rate_abort +. rate_departure
  in
  (* One contact resolution: [uploader] tries to push a piece to a local
     peer of type [downloader].  Returns true iff the state changed. *)
  let resolve ~uploader ~downloader ~time =
    let c_t0 = Hist.tick contact_tm in
    let choice = Policy.sample config.policy ~rng ~k:p.k ~state ~uploader ~downloader in
    if tracing then
      Probe.contact probe ~time
        ~seed:(match uploader with Policy.Fixed_seed -> true | Policy.Peer _ -> false)
        ~useful:(Option.is_some choice);
    let changed =
      match choice with
      | None -> false
      | Some _ when Faults.lost frun ->
          (* The upload happened but the piece never arrived. *)
          counters.lost <- counters.lost + 1;
          if tracing then Probe.transfer_lost probe ~time;
          false
      | Some piece ->
          counters.transfers <- counters.transfers + 1;
          let target = Pieceset.add piece downloader in
          let completed = Pieceset.equal target full in
          if tracing then Probe.transfer probe ~time ~piece ~completed;
          if completed then begin
            counters.completions <- counters.completions + 1;
            if immediate then begin
              State.remove_peer state downloader;
              counters.departures <- counters.departures + 1;
              if tracing then Probe.departure probe ~time Completed
            end
            else begin
              State.move_peer state ~from_:downloader ~to_:target;
              incr seeds
            end
          end
          else State.move_peer state ~from_:downloader ~to_:target;
          true
    in
    Hist.tock contact_tm c_t0;
    changed
  in
  let contact uploader ~time =
    let n = State.n state in
    let r = Shard.route view rng ~local_n:n in
    if r < n then resolve ~uploader ~downloader:(State.peer_at_rank state r) ~time
    else begin
      send ~time ~dst:(Shard.owner view (r - n)) { Shard.uploader };
      false
    end
  in
  let changed_at ~time =
    let n' = State.n state in
    Engine.observe h ~time ~n:n';
    if shards = 1 && n' = 0 then incr visits_to_empty;
    (match observer with Some f -> f ~time ~state | None -> ());
    match until with Some pred when pred ~time ~n:n' -> Engine.request_stop h | _ -> ()
  in
  let apply ~time ~u =
    let changed =
      if u < !rate_arrival then begin
        let idx = Dist.Alias.sample rng arrival_alias in
        let pieces = fst p.arrivals.(idx) in
        State.add_peer state pieces;
        if Pieceset.equal pieces full then incr seeds;
        counters.arrivals <- counters.arrivals + 1;
        if tracing then Probe.arrival probe ~time ~pieces;
        true
      end
      else if u < !rate_arrival +. !rate_seed_contact then contact Policy.Fixed_seed ~time
      else if u < !rate_arrival +. !rate_seed_contact +. !rate_peer_contact then
        contact (Policy.Peer (State.sample_uniform_peer state ~draw:(Rng.int_below rng))) ~time
      else if u < !rate_arrival +. !rate_seed_contact +. !rate_peer_contact +. !rate_abort
      then begin
        (* Churn: a uniformly chosen in-progress peer abandons its
           download.  rate_abort > 0 guarantees a non-seed peer exists. *)
        let rec pick () =
          let c = State.sample_uniform_peer state ~draw:(Rng.int_below rng) in
          if Pieceset.equal c full then pick () else c
        in
        State.remove_peer state (pick ());
        counters.aborted <- counters.aborted + 1;
        counters.departures <- counters.departures + 1;
        if tracing then Probe.departure probe ~time Aborted;
        true
      end
      else begin
        State.remove_peer state full;
        decr seeds;
        counters.departures <- counters.departures + 1;
        if tracing then Probe.departure probe ~time Seed_departed;
        true
      end
    in
    if changed then changed_at ~time
  in
  let sh_deliver ~time ~src:_ (msg : Shard.msg) =
    (* The target shard emptied since the sender looked: the contact
       finds nobody and dissolves. *)
    if State.n state > 0 then begin
      let downloader = State.sample_uniform_peer state ~draw:(Rng.int_below rng) in
      if resolve ~uploader:msg.Shard.uploader ~downloader ~time then changed_at ~time
    end
  in
  let sh_sync ~time:_ ~populations =
    Shard.sync view populations;
    if shard = 0 && Array.for_all (fun n -> n = 0) populations then incr visits_to_empty
  in
  let model =
    {
      Engine.total_rate;
      apply;
      next_scheduled = (fun () -> infinity);
      scheduled = (fun ~time:_ -> ());
      population = (fun () -> State.n state);
      extra_sample = (fun ~time:_ -> ());
      probe_sample =
        (fun ~time ->
          Probe.sample ~time ~k:p.k ~n:(State.n state) ~count_of:(State.count state)
            ~piece_counts:(State.piece_count_vector state ~k:p.k));
      finish = (fun ~time:_ -> ());
    }
  in
  ({ Engine.sh_model = model; sh_deliver; sh_sync }, (state, visits_to_empty))

let run ?(probe = Probe.none) ?observer ?sample_every ?max_events ?resume ?until ~rng config
    ~horizon =
  let common, (state, visits_to_empty) =
    Engine.drive ~probe ?sample_every ?max_events ?resume ~name:"sim_markov" ~rng
      ~faults:config.faults ~horizon (fun h ->
        let sm, extra =
          shard_model config ~probe ~observer ~until ~initial:config.initial ~shard:0 ~shards:1
            ~rng ~send:Shard.no_send h
        in
        (sm.Engine.sh_model, extra))
  in
  (stats_of common ~visits_to_empty:!visits_to_empty, state)

let run_seeded ?probe ?observer ?sample_every ?max_events ?resume ?until ~seed config ~horizon =
  let rng = Rng.of_seed seed in
  run ?probe ?observer ?sample_every ?max_events ?resume ?until ~rng config ~horizon

(* ---- the sharded run path ---- *)

type shard_report = {
  shards : int;
  windows : int;
  cross_messages : int;
  shard_events : int array;
  shard_final_n : int array;
  shard_states : State.t array;
}

let run_sharded ?(probes = fun _ -> Probe.none) ?sample_every ?max_events ?sync_every ?jobs
    ?should_stop ~shards ~rng config ~horizon =
  if shards < 1 then invalid_arg "Sim_markov.run_sharded: shards must be >= 1";
  if shards = 1 then begin
    (* One shard is *defined* as the unsharded engine: same draws, same
       grid, bit-identical to [run] — the goldens' anchor. *)
    let stats, state = run ~probe:(probes 0) ?sample_every ?max_events ~rng config ~horizon in
    ( stats,
      state,
      {
        shards = 1;
        windows = 0;
        cross_messages = 0;
        shard_events = [| stats.events |];
        shard_final_n = [| stats.final_n |];
        shard_states = [| State.copy state |];
      } )
  end
  else begin
    let parts = Shard.partition_counts ~shards config.initial in
    let sharded, extras =
      Engine.drive_sharded ~probes ?sample_every ?max_events ?sync_every ?jobs ?should_stop
        ~name:"sim_markov" ~rng ~faults:config.faults ~horizon ~nshards:shards
        (fun ~shard ~rng ~send h ->
          shard_model config ~probe:(probes shard) ~observer:None ~until:None
            ~initial:parts.(shard) ~shard ~shards ~rng ~send h)
    in
    let states = Array.map fst extras in
    (* Sampled at sync barriers, not per event: the sharded loop has no
       global per-event view.  Documented in DESIGN §17. *)
    let visits_to_empty = !(snd extras.(0)) in
    ( stats_of sharded.Engine.sh_stats ~visits_to_empty,
      State.of_counts (List.concat_map State.to_alist (Array.to_list states)),
      {
        shards;
        windows = sharded.Engine.sh_windows;
        cross_messages = sharded.Engine.sh_messages;
        shard_events = sharded.Engine.sh_events;
        shard_final_n = sharded.Engine.sh_final_n;
        shard_states = states;
      } )
  end

let run_sharded_seeded ?probes ?sample_every ?max_events ?sync_every ?jobs ?should_stop ~shards
    ~seed config ~horizon =
  run_sharded ?probes ?sample_every ?max_events ?sync_every ?jobs ?should_stop ~shards
    ~rng:(Rng.of_seed seed) config ~horizon
