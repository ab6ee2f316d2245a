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

(* Cumulative boundaries of the contact and departure rate bands above
   the arrival band, stashed by [total_rate] for [apply].  An all-float
   record is stored flat, so the per-event updates do not allocate. *)
type bands = {
  mutable seed_local : float;
  mutable seed_remote : float;
  mutable peer_local : float;
  mutable peer_remote : float;
  mutable abort : float;
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
   shard i of S.

   Rejection-free: the exponential race runs only over jumps that change
   the state.  A contact whose uploader holds nothing the downloader
   lacks is a self-loop of the CTMC, so leaving it out changes neither
   the jump chain nor the holding times.  With N_vis the visible global
   population (own peers live, the others as of the last sync) and
   [Pair_mass] keeping the useful local pair mass M, the contact bands
   are
   - local peer contact, μ·M/N_vis: one draw picks a useful pair;
   - local seed contact, U_s·(n − x_full)/N_vis: a uniform non-full
     downloader;
   - remote peer contact, μ·n·(N_vis − n)/N_vis, and remote seed
     contact, U_s·(N_vis − n)/N_vis: the uploader travels as a message,
     which the receiving shard resolves with its own generator at the
     barrier ([sh_deliver]) and which can still be silent there.
   A lone shard sees nobody else (N_vis = n), so both remote bands are
   zero.  The fixed seed lives on shard 0; arrivals are Poisson-thinned,
   λ/S per shard.  [observer], [until] and the per-event
   [visits_to_empty] count are the lone shard's; with several shards,
   shard 0 counts empties at the sync barriers instead.  [probe] only
   ever receives events (never randomness or state), so a [Probe.none]
   run takes the exact same draws in the exact same order. *)
let shard_model config ~probe ~observer ~until ~initial ~shard ~shards ~rng ~send h =
  let p = config.params in
  let tracing = probe.Probe.tracing in
  let full = Params.full_set p in
  let pairs = Pair_mass.create (State.of_counts initial) in
  let state = Pair_mass.state pairs in
  (* Walker alias table: O(1) arrival-type draws instead of a linear CDF
     scan, and no per-arrival allocation. *)
  let arrival_alias = Dist.Alias.make (Array.map snd p.arrivals) in
  let counters = Engine.counters h in
  let frun = Engine.faults h in
  let abort_rate = config.faults.abort_rate in
  let view = Shard.view ~me:shard ~shards in
  let visits_to_empty = ref 0 in
  (* sampled phase cost of a contact: pair draw, policy sampling and the
     state and pair-mass updates — the markov hot path's dominant term *)
  let contact_tm = Hist.timer (Hist.get probe.Probe.hists "sim_markov/contact") in
  Engine.observe h ~time:(Engine.start_time h) ~n:(State.n state);
  (* The seed count is maintained incrementally (arrival of a full set,
     completion into the dwell stage, seed departure) so the per-event
     rate recomputation is pure arithmetic — no hash lookup on the hot
     path. *)
  let seeds = ref (State.count state full) in
  let us = p.us and mu = p.mu and gamma = p.gamma in
  let immediate = Params.immediate_departure p in
  let rate_arrival = Params.lambda_total p /. float_of_int shards in
  let b =
    { seed_local = 0.0; seed_remote = 0.0; peer_local = 0.0; peer_remote = 0.0; abort = 0.0 }
  in
  let total_rate () =
    let n = State.n state in
    let s = !seeds in
    let vis = Shard.visible view ~local_n:n in
    let inv = if vis = 0 then 0.0 else 1.0 /. float_of_int vis in
    (* the share of the visible peers that live on other shards *)
    let remote = float_of_int (vis - n) *. inv in
    let seed = if shard = 0 && vis > 0 && Faults.seed_up frun then us else 0.0 in
    b.seed_local <- rate_arrival +. (seed *. float_of_int (n - s) *. inv);
    b.seed_remote <- b.seed_local +. (seed *. remote);
    b.peer_local <- b.seed_remote +. (mu *. float_of_int (Pair_mass.mass pairs) *. inv);
    b.peer_remote <- b.peer_local +. (mu *. float_of_int n *. remote);
    b.abort <- b.peer_remote +. (abort_rate *. float_of_int (n - s));
    b.abort +. if immediate then 0.0 else gamma *. float_of_int s
  in
  (* One contact resolution: [uploader] tries to push a piece to the
     local peer in State slot [slot].  Returns true iff the state
     changed.  [c_t0] starts the contact's phase timer. *)
  let resolve ~c_t0 ~uploader ~slot ~time =
    let downloader = State.slot_type state slot in
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
          if completed then counters.completions <- counters.completions + 1;
          if completed && immediate then begin
            Pair_mass.remove_at pairs slot;
            counters.departures <- counters.departures + 1;
            if tracing then Probe.departure probe ~time Completed
          end
          else begin
            Pair_mass.move_up_at pairs slot ~to_:target;
            if completed then incr seeds
          end;
          true
    in
    Hist.tock contact_tm c_t0;
    changed
  in
  (* The slot of a uniform local peer that is not a seed. *)
  let non_seed_slot () =
    let rank = Rng.int_below rng (State.n state - !seeds) in
    let types = State.slot_types state and xs = State.slot_counts state in
    let rec go s acc =
      if (Array.unsafe_get types s :> int) = (full :> int) then go (s + 1) acc
      else
        let acc = acc + Array.unsafe_get xs s in
        if acc > rank then s else go (s + 1) acc
    in
    go 0 0
  in
  let send_remote uploader ~time =
    let n = State.n state in
    let r = Rng.int_below rng (Shard.visible view ~local_n:n - n) in
    send ~time ~dst:(Shard.owner view r) { Shard.uploader };
    false
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
      if u < rate_arrival then begin
        let idx = Dist.Alias.sample rng arrival_alias in
        let pieces = fst p.arrivals.(idx) in
        Pair_mass.add_peer pairs pieces;
        if Pieceset.equal pieces full then incr seeds;
        counters.arrivals <- counters.arrivals + 1;
        if tracing then Probe.arrival probe ~time ~pieces;
        true
      end
      else if u < b.seed_local then begin
        let c_t0 = Hist.tick contact_tm in
        resolve ~c_t0 ~uploader:Policy.Fixed_seed ~slot:(non_seed_slot ()) ~time
      end
      else if u < b.seed_remote then send_remote Policy.Fixed_seed ~time
      else if u < b.peer_local then begin
        let c_t0 = Hist.tick contact_tm in
        let up, down = Pair_mass.pick pairs (Rng.int_below rng (Pair_mass.mass pairs)) in
        resolve ~c_t0 ~uploader:(Policy.Peer (State.slot_type state up)) ~slot:down ~time
      end
      else if u < b.peer_remote then
        send_remote
          (Policy.Peer (State.peer_at_rank state (Rng.int_below rng (State.n state))))
          ~time
      else if u < b.abort then begin
        (* Churn: a uniformly chosen in-progress peer abandons its
           download.  A positive band guarantees a non-seed peer. *)
        Pair_mass.remove_at pairs (non_seed_slot ());
        counters.aborted <- counters.aborted + 1;
        counters.departures <- counters.departures + 1;
        if tracing then Probe.departure probe ~time Aborted;
        true
      end
      else begin
        Pair_mass.remove_at pairs (State.slot state full);
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
       finds nobody and dissolves.  Otherwise the downloader is uniform
       over the local peers, and the contact may be silent. *)
    if State.n state > 0 then begin
      let c_t0 = Hist.tick contact_tm in
      let slot = State.slot_at_rank state (Rng.int_below rng (State.n state)) in
      if resolve ~c_t0 ~uploader:msg.Shard.uploader ~slot ~time then changed_at ~time
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
