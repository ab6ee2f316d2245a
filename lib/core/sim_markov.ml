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
type bands = { mutable seed : float; mutable peer : float; mutable abort : float }

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

(* The markov swarm's model.

   Rejection-free: the exponential race runs only over jumps that change
   the state.  A contact whose uploader holds nothing the downloader
   lacks is a self-loop of the CTMC, so leaving it out changes neither
   the jump chain nor the holding times.  With [Pair_mass] keeping the
   useful pair mass M, the contact bands are
   - peer contact, μ·M/n: one draw picks a useful pair;
   - fixed-seed contact, U_s·(n − x_full)/n: a uniform non-full
     downloader.
   [probe] only ever receives events (never randomness or state), so a
   [Probe.none] run takes the exact same draws in the exact same order.
   (Sharded markov runs were deleted; DESIGN §17 says why.) *)
let model config ~probe ~observer ~until ~rng h =
  let p = config.params in
  let tracing = probe.Probe.tracing in
  let full = Params.full_set p in
  let pairs = Pair_mass.create (State.of_counts config.initial) in
  let state = Pair_mass.state pairs in
  (* Walker alias table: O(1) arrival-type draws instead of a linear CDF
     scan, and no per-arrival allocation. *)
  let arrival_alias = Dist.Alias.make (Array.map snd p.arrivals) in
  let counters = Engine.counters h in
  let frun = Engine.faults h in
  let abort_rate = config.faults.abort_rate in
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
  let rate_arrival = Params.lambda_total p in
  let b = { seed = 0.0; peer = 0.0; abort = 0.0 } in
  let total_rate () =
    let n = State.n state in
    let s = !seeds in
    let inv = if n = 0 then 0.0 else 1.0 /. float_of_int n in
    let seed = if n > 0 && Faults.seed_up frun then us else 0.0 in
    b.seed <- rate_arrival +. (seed *. float_of_int (n - s) *. inv);
    b.peer <- b.seed +. (mu *. float_of_int (Pair_mass.mass pairs) *. inv);
    b.abort <- b.peer +. (abort_rate *. float_of_int (n - s));
    b.abort +. if immediate then 0.0 else gamma *. float_of_int s
  in
  (* One contact resolution: [uploader] pushes a useful piece to the
     peer in State slot [slot].  Returns true iff the state changed (a
     lost upload changes nothing).  [c_t0] starts the contact's phase
     timer. *)
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
  (* The slot of a uniform peer that is not a seed. *)
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
  let changed_at ~time =
    let n' = State.n state in
    Engine.observe h ~time ~n:n';
    if n' = 0 then incr visits_to_empty;
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
      else if u < b.seed then begin
        let c_t0 = Hist.tick contact_tm in
        resolve ~c_t0 ~uploader:Policy.Fixed_seed ~slot:(non_seed_slot ()) ~time
      end
      else if u < b.peer then begin
        let c_t0 = Hist.tick contact_tm in
        let up, down = Pair_mass.pick pairs (Rng.int_below rng (Pair_mass.mass pairs)) in
        resolve ~c_t0 ~uploader:(Policy.Peer (State.slot_type state up)) ~slot:down ~time
      end
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
  ( {
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
    },
    (state, visits_to_empty) )

let run ?(probe = Probe.none) ?observer ?sample_every ?max_events ?resume ?until ~rng config
    ~horizon =
  let common, (state, visits_to_empty) =
    Engine.drive ~probe ?sample_every ?max_events ?resume ~name:"sim_markov" ~rng
      ~faults:config.faults ~horizon
      (model config ~probe ~observer ~until ~rng)
  in
  (stats_of common ~visits_to_empty:!visits_to_empty, state)

let run_seeded ?probe ?observer ?sample_every ?max_events ?resume ?until ~seed config ~horizon =
  let rng = Rng.of_seed seed in
  run ?probe ?observer ?sample_every ?max_events ?resume ?until ~rng config ~horizon
