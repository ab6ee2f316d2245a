module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist

type dwell = Exp_dwell | Deterministic_dwell | Erlang_dwell of int

type config = {
  params : Params.t;
  policy : Policy.t;
  dwell : dwell;
  eta : float;
  rare_piece : int;
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
}

let default_config params =
  { params; policy = Policy.random_useful; dwell = Exp_dwell; eta = 1.0; rare_piece = 0;
    initial = []; faults = Faults.none }

type groups = {
  young : int;
  infected : int;
  gifted : int;
  one_club : int;
  former_one_club : int;
}

let groups_total g = g.young + g.infected + g.gifted + g.one_club + g.former_one_club

type peer = {
  id : int;
  mutable pieces : Pieceset.t;
  arrival_time : float;
  gifted : bool;
  mutable infected : bool;
  mutable was_one_club : bool;
  mutable boosted : bool;  (* last contact attempt found nothing useful *)
  mutable slot : int;  (* index in the population array; -1 once departed *)
  mutable departed : bool;
}

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
  truncated : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
  group_samples : (float * groups) array;
  mean_sojourn : float;
  sojourn_count : int;
  one_club_time_fraction : float;
}

(* Dynamic array of live peers with O(1) swap-removal. *)
module Population = struct
  type t = { mutable peers : peer array; mutable len : int; mutable boosted_count : int }

  let create () = { peers = [||]; len = 0; boosted_count = 0 }
  let size t = t.len

  let add t peer =
    if t.len = Array.length t.peers then begin
      let bigger = Array.make (Int.max 16 (2 * t.len)) peer in
      Array.blit t.peers 0 bigger 0 t.len;
      t.peers <- bigger
    end;
    peer.slot <- t.len;
    t.peers.(t.len) <- peer;
    t.len <- t.len + 1;
    if peer.boosted then t.boosted_count <- t.boosted_count + 1

  let remove t peer =
    let i = peer.slot in
    if i < 0 || i >= t.len || t.peers.(i) != peer then invalid_arg "Population.remove";
    if peer.boosted then t.boosted_count <- t.boosted_count - 1;
    t.len <- t.len - 1;
    if i <> t.len then begin
      t.peers.(i) <- t.peers.(t.len);
      t.peers.(i).slot <- i
    end;
    peer.slot <- -1;
    peer.departed <- true

  let set_boosted t peer value =
    if peer.boosted <> value then begin
      peer.boosted <- value;
      t.boosted_count <- (t.boosted_count + if value then 1 else -1)
    end

  let uniform t rng =
    if t.len = 0 then invalid_arg "Population.uniform: empty";
    t.peers.(Rng.int_below rng t.len)

  let nth t i = if i < 0 || i >= t.len then invalid_arg "Population.nth" else t.peers.(i)

  (* Sample a peer with weight 1 for normal and [eta] for boosted peers. *)
  let weighted t rng ~eta =
    if eta = 1.0 then uniform t rng
    else begin
      let normal = float_of_int (t.len - t.boosted_count) in
      let boosted = eta *. float_of_int t.boosted_count in
      let pick_boosted = Rng.float rng *. (normal +. boosted) >= normal in
      (* Rejection sample within the chosen class. *)
      let rec find () =
        let peer = t.peers.(Rng.int_below rng t.len) in
        if peer.boosted = pick_boosted then peer else find ()
      in
      if t.len = t.boosted_count || t.boosted_count = 0 then uniform t rng else find ()
    end

  let contact_rate t ~mu ~eta =
    mu *. (float_of_int (t.len - t.boosted_count) +. (eta *. float_of_int t.boosted_count))

  let iter t f =
    for i = 0 to t.len - 1 do
      f t.peers.(i)
    done
end

let classify_groups config pop =
  let full = Params.full_set config.params in
  let one_club_type = Pieceset.remove config.rare_piece full in
  let g = ref { young = 0; infected = 0; gifted = 0; one_club = 0; former_one_club = 0 } in
  Population.iter pop (fun peer ->
      let c = !g in
      if peer.gifted then g := { c with gifted = c.gifted + 1 }
      else if peer.infected then g := { c with infected = c.infected + 1 }
      else if Pieceset.equal peer.pieces one_club_type then g := { c with one_club = c.one_club + 1 }
      else if peer.was_one_club then g := { c with former_one_club = c.former_one_club + 1 }
      else g := { c with young = c.young + 1 });
  !g

let sample_dwell config rng =
  let gamma = config.params.gamma in
  match config.dwell with
  | Exp_dwell -> Dist.exponential rng ~rate:gamma
  | Deterministic_dwell -> 1.0 /. gamma
  | Erlang_dwell m ->
      if m < 1 then invalid_arg "Sim_agent: Erlang stages must be >= 1";
      let stage_rate = float_of_int m *. gamma in
      let total = ref 0.0 in
      for _ = 1 to m do
        total := !total +. Dist.exponential rng ~rate:stage_rate
      done;
      !total

let check_config ~who config =
  if config.eta < 1.0 then invalid_arg (who ^ ": eta must be >= 1");
  if config.rare_piece < 0 || config.rare_piece >= config.params.k then
    invalid_arg (who ^ ": rare piece out of range")

let stats_of (common : Engine.stats) ~group_samples ~sojourn ~one_club_time_fraction =
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
    truncated = common.truncated;
    outage_time = common.outage_time;
    aborted_peers = common.aborted_peers;
    lost_transfers = common.lost_transfers;
    samples = common.samples;
    group_samples;
    mean_sojourn = P2p_stats.Welford.mean sojourn;
    sojourn_count = P2p_stats.Welford.count sojourn;
    one_club_time_fraction;
  }

(* The agent swarm's one model: shard [shard] of [shards], holding the
   peers of [initial], with its own peer table, dwell heap and
   statistics.  [run] is shard 0 of 1; [run_sharded] builds shard i of
   S.  The placement enters only as values, as in [Sim_markov]: λ/S
   arrivals, the fixed seed on shard 0 gated on the visible global
   population, one [Shard.route] draw per contact that is the local
   downloader's rank or names the remote downloader's shard, and
   globally unique peer ids ([shard], [shard + S], …).  The one-club
   accumulator time-averages the fraction on a lone shard, and the
   count with several (counts sum across shards, fractions don't; the
   merge divides by the global time-averaged population). *)
let shard_model config ~who ~probe ~initial ~shard ~shards ~rng ~send h =
  let p = config.params in
  let tracing = probe.Probe.tracing in
  let full = Params.full_set p in
  let one_club_type = Pieceset.remove config.rare_piece full in
  let immediate = Params.immediate_departure p in
  let pop = Population.create () in
  let state = State.create () in
  let departures_heap : peer P2p_des.Heap.t = P2p_des.Heap.create () in
  let next_id = ref shard in
  let sojourn = P2p_stats.Welford.create () in
  let club_avg = P2p_stats.Timeavg.create () in
  let seed_boosted = ref false in
  let lambda_share = Params.lambda_total p /. float_of_int shards in
  (* Walker alias table, as in Sim_markov: O(1) arrival-type draws. *)
  let arrival_alias = Dist.Alias.make (Array.map snd p.arrivals) in
  let counters = Engine.counters h in
  let frun = Engine.faults h in
  let abort_rate = config.faults.abort_rate in
  let view = Shard.view ~me:shard ~shards in

  let new_peer c ~time =
    let peer =
      {
        id = !next_id;
        pieces = c;
        arrival_time = time;
        gifted = Pieceset.mem config.rare_piece c;
        infected = false;
        was_one_club = Pieceset.equal c one_club_type;
        boosted = false;
        slot = -1;
        departed = false;
      }
    in
    next_id := !next_id + shards;
    Population.add pop peer;
    State.add_peer state c;
    peer
  in
  let depart peer ~time =
    Population.remove pop peer;
    State.remove_peer state peer.pieces;
    counters.departures <- counters.departures + 1;
    P2p_stats.Welford.add sojourn (time -. peer.arrival_time)
  in
  let schedule_departure peer ~time =
    let dwell = sample_dwell config rng in
    ignore (P2p_des.Heap.insert departures_heap ~key:(time +. dwell) peer)
  in
  (* Give a piece to [peer]; updates flags and departures. *)
  let deliver peer piece ~time =
    counters.transfers <- counters.transfers + 1;
    let was_one_club_now = Pieceset.equal peer.pieces one_club_type in
    let target = Pieceset.add piece peer.pieces in
    if tracing then Probe.transfer probe ~time ~piece ~completed:(Pieceset.equal target full);
    if piece = config.rare_piece && (not peer.gifted) && not was_one_club_now then
      peer.infected <- true;
    if Pieceset.equal target one_club_type then peer.was_one_club <- true;
    if Pieceset.equal target full && immediate then begin
      counters.completions <- counters.completions + 1;
      State.remove_peer state peer.pieces;
      peer.pieces <- target;
      Population.remove pop peer;
      counters.departures <- counters.departures + 1;
      P2p_stats.Welford.add sojourn (time -. peer.arrival_time);
      if tracing then Probe.departure probe ~time Completed
    end
    else begin
      State.move_peer state ~from_:peer.pieces ~to_:target;
      peer.pieces <- target;
      (* Receiving a piece changes what the peer can offer, so the
         unsuccessful-contact speedup (Section VIII-C) no longer applies:
         reset the clock to its normal rate. *)
      Population.set_boosted pop peer false;
      if Pieceset.equal target full then begin
        counters.completions <- counters.completions + 1;
        schedule_departure peer ~time
      end
    end
  in
  (* Resolve one contact from [uploader] against the local [downloader].
     [up] is the uploading peer when it lives on this shard: it takes the
     self-contact check and the unsuccessful-contact boost (Section
     VIII-C).  A cross-shard upload's outcome never reaches its
     uploader's shard, so that boost flag is left unchanged (DESIGN §17);
     likewise only shard 0, the seed's home, updates the seed's. *)
  let contact_tm = Hist.timer (Hist.get probe.Probe.hists "sim_agent/contact") in
  let resolve ~uploader ~up ~downloader ~time =
    let c_t0 = Hist.tick contact_tm in
    let choice =
      match up with
      | Some u when u == downloader -> None (* self-contact is never useful *)
      | _ ->
          Policy.sample config.policy ~rng ~k:p.k ~state ~uploader
            ~downloader:downloader.pieces
    in
    let success = Option.is_some choice in
    let is_seed = match uploader with Policy.Fixed_seed -> true | Policy.Peer _ -> false in
    if tracing then Probe.contact probe ~time ~seed:is_seed ~useful:success;
    (match up with
    | None -> if is_seed && shard = 0 then seed_boosted := not success
    | Some u -> if not u.departed then Population.set_boosted pop u (not success));
    (match choice with
    | Some _ when Faults.lost frun ->
        (* Uploader found a useful piece but the transfer dropped: the
           contact counts as successful for the retry speedup (something
           useful was on offer), yet nothing is delivered. *)
        counters.lost <- counters.lost + 1;
        if tracing then Probe.transfer_lost probe ~time
    | Some piece -> deliver downloader piece ~time
    | None -> ());
    Hist.tock contact_tm c_t0
  in
  let contact ~uploader ~up ~time =
    let n = Population.size pop in
    let r = Shard.route view rng ~local_n:n in
    if r < n then resolve ~uploader ~up ~downloader:(Population.nth pop r) ~time
    else send ~time ~dst:(Shard.owner view (r - n)) { Shard.uploader }
  in

  (* Initial population. *)
  List.iter
    (fun (c, count) ->
      for _ = 1 to count do
        let peer = new_peer c ~time:0.0 in
        if Pieceset.equal c full then
          if immediate then invalid_arg (who ^ ": initial peer seeds need finite gamma")
          else schedule_departure peer ~time:0.0
      done)
    initial;

  let observe time =
    let n = Population.size pop in
    Engine.observe h ~time ~n;
    let club_count = State.count state one_club_type + if immediate then 0 else State.count state full in
    let club =
      if shards > 1 then float_of_int club_count
      else if n = 0 then 0.0
      else float_of_int club_count /. float_of_int n
    in
    P2p_stats.Timeavg.observe club_avg ~time ~value:club
  in
  observe 0.0;

  let group_samples = P2p_stats.Vec.create () in

  (* Rate bands, stashed by [total_rate] for [apply]'s dispatch. *)
  let rate_arrival = ref 0.0 in
  let rate_seed = ref 0.0 in
  let rate_peers = ref 0.0 in
  let total_rate () =
    let n = Population.size pop in
    rate_arrival := lambda_share;
    rate_seed :=
      (if shard <> 0 || Shard.visible view ~local_n:n = 0 || not (Faults.seed_up frun) then 0.0
       else if !seed_boosted then config.eta *. p.us
       else p.us);
    rate_peers := Population.contact_rate pop ~mu:p.mu ~eta:config.eta;
    let rate_abort = abort_rate *. float_of_int (n - State.count state full) in
    !rate_arrival +. !rate_seed +. !rate_peers +. rate_abort
  in
  let apply ~time ~u =
    if u < !rate_arrival then begin
      let idx = Dist.Alias.sample rng arrival_alias in
      let c = fst p.arrivals.(idx) in
      let peer = new_peer c ~time in
      counters.arrivals <- counters.arrivals + 1;
      if tracing then Probe.arrival probe ~time ~pieces:c;
      if Pieceset.equal c full then schedule_departure peer ~time
    end
    else if u < !rate_arrival +. !rate_seed then contact ~uploader:Policy.Fixed_seed ~up:None ~time
    else if u < !rate_arrival +. !rate_seed +. !rate_peers then begin
      let up = Population.weighted pop rng ~eta:config.eta in
      contact ~uploader:(Policy.Peer up.pieces) ~up:(Some up) ~time
    end
    else begin
      (* Churn: a uniformly chosen in-progress peer abandons its
         download.  rate_abort > 0 guarantees a non-seed peer exists. *)
      let rec pick () =
        let peer = Population.uniform pop rng in
        if Pieceset.equal peer.pieces full then pick () else peer
      in
      depart (pick ()) ~time;
      counters.aborted <- counters.aborted + 1;
      if tracing then Probe.departure probe ~time Aborted
    end;
    observe time
  in
  let sh_deliver ~time ~src:_ (msg : Shard.msg) =
    (* The target shard emptied since the sender looked: the contact
       finds nobody and dissolves. *)
    if Population.size pop > 0 then
      resolve ~uploader:msg.Shard.uploader ~up:None ~downloader:(Population.uniform pop rng)
        ~time;
    observe time
  in
  let sh_sync ~time:_ ~populations = Shard.sync view populations in
  let model =
    {
      Engine.total_rate;
      apply;
      next_scheduled =
        (fun () ->
          match P2p_des.Heap.min_key departures_heap with Some d -> d | None -> infinity);
      scheduled =
        (fun ~time ->
          match P2p_des.Heap.pop_min departures_heap with
          | Some (_, peer) ->
              if not peer.departed then begin
                depart peer ~time;
                if tracing then Probe.departure probe ~time Seed_departed
              end;
              observe time
          | None -> assert false);
      population = (fun () -> Population.size pop);
      extra_sample =
        (fun ~time -> P2p_stats.Vec.push group_samples (time, classify_groups config pop));
      probe_sample =
        (fun ~time ->
          Probe.sample ~time ~k:p.k ~n:(State.n state) ~count_of:(State.count state)
            ~piece_counts:(State.piece_count_vector state ~k:p.k));
      finish = (fun ~time -> P2p_stats.Timeavg.close club_avg ~time);
    }
  in
  ({ Engine.sh_model = model; sh_deliver; sh_sync }, (state, group_samples, sojourn, club_avg))

let run ?(probe = Probe.none) ?sample_every ?max_events ~rng config ~horizon =
  check_config ~who:"Sim_agent.run" config;
  let common, (state, group_samples, sojourn, club_avg) =
    Engine.drive ~probe ?sample_every ?max_events ~name:"sim_agent" ~rng ~faults:config.faults
      ~horizon (fun h ->
        let sm, extra =
          shard_model config ~who:"Sim_agent.run" ~probe ~initial:config.initial ~shard:0
            ~shards:1 ~rng ~send:Shard.no_send h
        in
        (sm.Engine.sh_model, extra))
  in
  ( stats_of common
      ~group_samples:(P2p_stats.Vec.to_array group_samples)
      ~sojourn
      ~one_club_time_fraction:(P2p_stats.Timeavg.average club_avg),
    state )

let run_seeded ?probe ?sample_every ?max_events ~seed config ~horizon =
  run ?probe ?sample_every ?max_events ~rng:(Rng.of_seed seed) config ~horizon

(* ---- the sharded run path ---- *)

type shard_report = {
  shards : int;
  windows : int;
  cross_messages : int;
  shard_events : int array;
  shard_final_n : int array;
}

let add_groups a b =
  {
    young = a.young + b.young;
    infected = a.infected + b.infected;
    gifted = a.gifted + b.gifted;
    one_club = a.one_club + b.one_club;
    former_one_club = a.former_one_club + b.former_one_club;
  }

let run_sharded ?(probes = fun _ -> Probe.none) ?sample_every ?max_events ?sync_every ?jobs
    ~shards ~rng config ~horizon =
  if shards < 1 then invalid_arg "Sim_agent.run_sharded: shards must be >= 1";
  if shards = 1 then begin
    let stats, state = run ~probe:(probes 0) ?sample_every ?max_events ~rng config ~horizon in
    ( stats,
      state,
      {
        shards = 1;
        windows = 0;
        cross_messages = 0;
        shard_events = [| stats.events |];
        shard_final_n = [| stats.final_n |];
      } )
  end
  else begin
    let who = "Sim_agent.run_sharded" in
    check_config ~who config;
    let parts = Shard.partition_counts ~shards config.initial in
    let sharded, extras =
      Engine.drive_sharded ~probes ?sample_every ?max_events ?sync_every ?jobs
        ~name:"sim_agent" ~rng ~faults:config.faults ~horizon ~nshards:shards
        (fun ~shard ~rng ~send h ->
          shard_model config ~who ~probe:(probes shard) ~initial:parts.(shard) ~shard ~shards
            ~rng ~send h)
    in
    let common = sharded.Engine.sh_stats in
    let states = Array.map (fun (s, _, _, _) -> s) extras in
    let merged_state =
      State.of_counts (List.concat_map State.to_alist (Array.to_list states))
    in
    (* Group samples share the grid: sum fields per grid point. *)
    let per_groups = Array.map (fun (_, g, _, _) -> P2p_stats.Vec.to_array g) extras in
    let group_samples =
      Array.init
        (Array.length per_groups.(0))
        (fun g ->
          let tg, g0 = per_groups.(0).(g) in
          let acc = ref g0 in
          for i = 1 to shards - 1 do
            acc := add_groups !acc (snd per_groups.(i).(g))
          done;
          (tg, !acc))
    in
    let sojourn =
      Array.fold_left
        (fun acc (_, _, w, _) -> P2p_stats.Welford.merge acc w)
        (P2p_stats.Welford.create ()) extras
    in
    (* Ratio of time-averages: Σ club-count averages over the global
       time-averaged population (the unsharded path averages the
       instantaneous fraction instead; DESIGN §17 notes the drift). *)
    let club_sum =
      Array.fold_left (fun acc (_, _, _, c) -> acc +. P2p_stats.Timeavg.average c) 0.0 extras
    in
    let one_club_time_fraction =
      if common.Engine.time_avg_n > 0.0 then club_sum /. common.Engine.time_avg_n else 0.0
    in
    ( stats_of common ~group_samples ~sojourn ~one_club_time_fraction,
      merged_state,
      {
        shards;
        windows = sharded.Engine.sh_windows;
        cross_messages = sharded.Engine.sh_messages;
        shard_events = sharded.Engine.sh_events;
        shard_final_n = sharded.Engine.sh_final_n;
      } )
  end

let run_sharded_seeded ?probes ?sample_every ?max_events ?sync_every ?jobs ~shards ~seed config
    ~horizon =
  run_sharded ?probes ?sample_every ?max_events ?sync_every ?jobs ~shards
    ~rng:(Rng.of_seed seed) config ~horizon
