module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist

type dwell = Exp_dwell | Deterministic_dwell | Erlang_dwell of int

type peer_class = {
  mu : float;
  gamma : float;
  arrivals : (Pieceset.t * float) array;
}

type config = {
  params : Params.t;
  policy : Policy.t;
  dwell : dwell;
  eta : float;
  rare_piece : int;
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
  classes : peer_class array;
}

let default_config params =
  { params; policy = Policy.random_useful; dwell = Exp_dwell; eta = 1.0; rare_piece = 0;
    initial = []; faults = Faults.none; classes = [||] }

(* The class table a run uses: the paper's one class unless the config
   names its own. *)
let classes_of config =
  if Array.length config.classes > 0 then config.classes
  else
    let p = config.params in
    [| { mu = p.mu; gamma = p.gamma; arrivals = p.arrivals } |]

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
  klass : int;  (* index into the class table *)
  mutable pieces : Pieceset.t;
  arrival_time : float;
  gifted : bool;
  mutable infected : bool;
  mutable was_one_club : bool;
  mutable boosted : bool;  (* last contact attempt found nothing useful *)
  mutable slot : int;  (* index in its class's bag; -1 once departed *)
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
  class_mean_n : float array;
  class_mean_sojourn : float array;
}

(* Live peers, one swap-removal bag per class, indexed bag-major
   (class 0's peers first): a uniform peer is one [int_below] draw
   whatever the number of classes. *)
module Population = struct
  type bag = { mutable peers : peer array; mutable len : int; mutable nboosted : int }
  type t = { bags : bag array; mutable len : int }

  let create ~classes = { bags = Array.init classes (fun _ -> { peers = [||]; len = 0; nboosted = 0 }); len = 0 }
  let size t = t.len
  let class_size t c = t.bags.(c).len

  let add t peer =
    let b = t.bags.(peer.klass) in
    if b.len = Array.length b.peers then begin
      let bigger = Array.make (Int.max 16 (2 * b.len)) peer in
      Array.blit b.peers 0 bigger 0 b.len;
      b.peers <- bigger
    end;
    peer.slot <- b.len;
    b.peers.(b.len) <- peer;
    b.len <- b.len + 1;
    t.len <- t.len + 1;
    if peer.boosted then b.nboosted <- b.nboosted + 1

  let remove t peer =
    let b = t.bags.(peer.klass) in
    let i = peer.slot in
    if i < 0 || i >= b.len || b.peers.(i) != peer then invalid_arg "Population.remove";
    if peer.boosted then b.nboosted <- b.nboosted - 1;
    b.len <- b.len - 1;
    t.len <- t.len - 1;
    if i <> b.len then begin
      b.peers.(i) <- b.peers.(b.len);
      b.peers.(i).slot <- i
    end;
    peer.slot <- -1

  let set_boosted t peer value =
    if peer.boosted <> value then begin
      peer.boosted <- value;
      let b = t.bags.(peer.klass) in
      b.nboosted <- (b.nboosted + if value then 1 else -1)
    end

  let bag t c = t.bags.(c)

  let nth t i =
    if i < 0 || i >= t.len then invalid_arg "Population.nth";
    let b0 = t.bags.(0) in
    if i < b0.len then b0.peers.(i)
    else begin
      let c = ref 1 and i = ref (i - b0.len) in
      while !i >= t.bags.(!c).len do
        i := !i - t.bags.(!c).len;
        incr c
      done;
      t.bags.(!c).peers.(!i)
    end

  let uniform t rng =
    if t.len = 0 then invalid_arg "Population.uniform: empty";
    nth t (Rng.int_below rng t.len)

  (* A bag's contact weight: 1 per normal and [eta] per boosted peer. *)
  let weight (b : bag) ~eta = float_of_int (b.len - b.nboosted) +. (eta *. float_of_int b.nboosted)

  (* Σ_c μ_c·(normal_c + η·boosted_c). *)
  let contact_rate t ~mus ~eta =
    if Array.length t.bags = 1 then begin
      let b = t.bags.(0) in
      mus.(0) *. (float_of_int (b.len - b.nboosted) +. (eta *. float_of_int b.nboosted))
    end
    else begin
      let r = ref 0.0 in
      for c = 0 to Array.length t.bags - 1 do
        r := !r +. (mus.(c) *. weight t.bags.(c) ~eta)
      done;
      !r
    end

  (* The class of a peer contact's uploader, in proportion to
     μ_c·weight_c: read off [u], uniform on [0, contact_rate), so it
     costs no draw.  Rounding can leave [u] past the last band; the last
     class with peers takes it. *)
  let pick_class t ~mus ~eta ~u =
    let rec pick c acc last =
      if c = Array.length t.bags then last
      else
        let b = t.bags.(c) in
        let acc = acc +. (mus.(c) *. weight b ~eta) in
        if b.len > 0 && u < acc then b else pick (c + 1) acc (if b.len > 0 then b else last)
    in
    pick 0 0.0 t.bags.(0)

  (* A peer of bag [b], with weight 1 if normal and [eta] if boosted. *)
  let weighted b rng ~eta =
    if eta = 1.0 then b.peers.(Rng.int_below rng b.len)
    else begin
      let normal = float_of_int (b.len - b.nboosted) in
      let boosted = eta *. float_of_int b.nboosted in
      let pick_boosted = Rng.float rng *. (normal +. boosted) >= normal in
      (* Rejection sample within the chosen kind. *)
      let rec find () =
        let peer = b.peers.(Rng.int_below rng b.len) in
        if peer.boosted = pick_boosted then peer else find ()
      in
      if b.len = b.nboosted || b.nboosted = 0 then b.peers.(Rng.int_below rng b.len) else find ()
    end

  let iter t f =
    Array.iter
      (fun (b : bag) ->
        for i = 0 to b.len - 1 do
          f b.peers.(i)
        done)
      t.bags
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

let sample_dwell config ~gamma rng =
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

let check_classes ~who ~k classes =
  let bad what = invalid_arg (Printf.sprintf "%s: %s" who what) in
  let full = Pieceset.full ~k in
  let lambda = ref 0.0 in
  Array.iter
    (fun c ->
      if not (c.mu > 0.0 && Float.is_finite c.mu) then bad "class mu must be finite > 0";
      if not (c.gamma > 0.0) then bad "class gamma must be positive (or infinity)";
      Array.iter
        (fun (set, r) ->
          if not (r >= 0.0 && Float.is_finite r) then bad "arrival rates must be finite >= 0";
          if not (Pieceset.subset set full) then bad "arrival type beyond K";
          if Pieceset.equal set full && r > 0.0 && not (Float.is_finite c.gamma) then
            bad "lambda_F needs a finite class gamma";
          lambda := !lambda +. r)
        c.arrivals)
    classes;
  if !lambda <= 0.0 then bad "total arrival rate must be positive"

let check_config ~who config =
  if config.eta < 1.0 then invalid_arg (who ^ ": eta must be >= 1");
  if config.rare_piece < 0 || config.rare_piece >= config.params.k then
    invalid_arg (who ^ ": rare piece out of range");
  if Array.length config.classes > 0 then check_classes ~who ~k:config.params.k config.classes

let stats_of (common : Engine.stats) ~group_samples ~sojourns ~one_club_time_fraction
    ~class_mean_n =
  let sojourn = Array.fold_left P2p_stats.Welford.merge (P2p_stats.Welford.create ()) sojourns in
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
    (* A lone class is the whole swarm: its mean population is N's. *)
    class_mean_n = (if Array.length class_mean_n = 1 then [| common.time_avg_n |] else class_mean_n);
    class_mean_sojourn = Array.map P2p_stats.Welford.mean sojourns;
  }
(* What one shard's model leaves behind for the stats merge. *)
type shard_extra = {
  state : State.t;
  group_samples : (float * groups) P2p_stats.Vec.t;
  sojourns : P2p_stats.Welford.t array;  (* per class *)
  club_avg : P2p_stats.Timeavg.t;
  class_avg : P2p_stats.Timeavg.t array;  (* closed only with several classes *)
}

(* The agent swarm's one model: shard [shard] of [shards], holding the
   peers of [initial] (all of class 0), with its own peer table, dwell heap and
   statistics.  [run] is shard 0 of 1; [run_sharded] builds shard i of
   S.  The placement enters only as values, as in [Sim_markov]: λ/S
   arrivals, the fixed seed on shard 0 gated on the visible global
   population, one [Shard.route] draw per contact that is the local
   downloader's rank or names the remote downloader's shard, and
   globally unique peer ids ([shard], [shard + S], …).  The one-club
   accumulator time-averages the fraction on a lone shard, and the
   count with several (counts sum across shards, fractions don't; the
   merge divides by the global time-averaged population).

   Every peer carries its class [c] of [classes]: it contacts at μ_c,
   dwells at γ_c (γ_c = ∞: it leaves on completion), and its class's
   arrival streams bring it in.  The arrival
   band pools every class's streams; the peer band is
   Σ_c μ_c·(normal_c + η·boosted_c).  A lone class is the paper's model:
   it skips the class pick and makes no extra draw. *)
let shard_model config ~who ~probe ~classes ~initial ~shard ~shards ~rng ~send h =
  let p = config.params in
  let tracing = probe.Probe.tracing in
  let full = Params.full_set p in
  let one_club_type = Pieceset.remove config.rare_piece full in
  let nclasses = Array.length classes in
  let mus = Array.map (fun c -> c.mu) classes in
  let immediate = Array.map (fun c -> not (Float.is_finite c.gamma)) classes in
  (* Peer seeds linger only in classes with a finite dwell. *)
  let seeds_linger = Array.exists not immediate in
  let pop = Population.create ~classes:nclasses in
  let state = State.create () in
  let departures_heap : peer P2p_des.Heap.t = P2p_des.Heap.create () in
  let next_id = ref shard in
  let sojourns = Array.init nclasses (fun _ -> P2p_stats.Welford.create ()) in
  let club_avg = P2p_stats.Timeavg.create () in
  let class_avg = Array.init nclasses (fun _ -> P2p_stats.Timeavg.create ()) in
  let seed_boosted = ref false in
  (* Every positive arrival stream as (class, type), class-major. *)
  let streams, rates =
    Array.to_list classes
    |> List.mapi (fun c (cl : peer_class) ->
           List.filter_map
             (fun (set, r) -> if r > 0.0 then Some ((c, set), r) else None)
             (Array.to_list cl.arrivals))
    |> List.concat |> Array.of_list |> Array.split
  in
  let lambda_share = Array.fold_left ( +. ) 0.0 rates /. float_of_int shards in
  (* Walker alias table, as in Sim_markov: O(1) arrival-type draws. *)
  let arrival_alias = Dist.Alias.make rates in
  let counters = Engine.counters h in
  let frun = Engine.faults h in
  let abort_rate = config.faults.abort_rate in
  let view = Shard.view ~me:shard ~shards in

  let new_peer klass c ~time =
    let peer =
      {
        id = !next_id;
        klass;
        pieces = c;
        arrival_time = time;
        gifted = Pieceset.mem config.rare_piece c;
        infected = false;
        was_one_club = Pieceset.equal c one_club_type;
        boosted = false;
        slot = -1;
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
    P2p_stats.Welford.add sojourns.(peer.klass) (time -. peer.arrival_time)
  in
  let schedule_departure peer ~time =
    let dwell = sample_dwell config ~gamma:classes.(peer.klass).gamma rng in
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
    if Pieceset.equal target full && immediate.(peer.klass) then begin
      counters.completions <- counters.completions + 1;
      State.remove_peer state peer.pieces;
      peer.pieces <- target;
      Population.remove pop peer;
      counters.departures <- counters.departures + 1;
      P2p_stats.Welford.add sojourns.(peer.klass) (time -. peer.arrival_time);
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
    | Some u -> if u.slot >= 0 then Population.set_boosted pop u (not success));
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
        let peer = new_peer 0 c ~time:0.0 in
        if Pieceset.equal c full then
          if immediate.(0) then invalid_arg (who ^ ": initial peer seeds need finite gamma")
          else schedule_departure peer ~time:0.0
      done)
    initial;

  let observe time =
    let n = Population.size pop in
    Engine.observe h ~time ~n;
    let club_count =
      State.count state one_club_type + if seeds_linger then State.count state full else 0
    in
    let club =
      if shards > 1 then float_of_int club_count
      else if n = 0 then 0.0
      else float_of_int club_count /. float_of_int n
    in
    P2p_stats.Timeavg.observe club_avg ~time ~value:club;
    if nclasses > 1 then
      for c = 0 to nclasses - 1 do
        P2p_stats.Timeavg.observe class_avg.(c) ~time
          ~value:(float_of_int (Population.class_size pop c))
      done
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
    rate_peers := Population.contact_rate pop ~mus ~eta:config.eta;
    let rate_abort = abort_rate *. float_of_int (n - State.count state full) in
    !rate_arrival +. !rate_seed +. !rate_peers +. rate_abort
  in
  let apply ~time ~u =
    if u < !rate_arrival then begin
      let klass, c = streams.(Dist.Alias.sample rng arrival_alias) in
      let peer = new_peer klass c ~time in
      counters.arrivals <- counters.arrivals + 1;
      if tracing then Probe.arrival probe ~time ~pieces:c;
      if Pieceset.equal c full then schedule_departure peer ~time
    end
    else if u < !rate_arrival +. !rate_seed then contact ~uploader:Policy.Fixed_seed ~up:None ~time
    else if u < !rate_arrival +. !rate_seed +. !rate_peers then begin
      let bag =
        if nclasses = 1 then Population.bag pop 0
        else Population.pick_class pop ~mus ~eta:config.eta ~u:(u -. !rate_arrival -. !rate_seed)
      in
      let up = Population.weighted bag rng ~eta:config.eta in
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
              if peer.slot >= 0 then begin
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
      finish =
        (fun ~time ->
          P2p_stats.Timeavg.close club_avg ~time;
          if nclasses > 1 then Array.iter (fun a -> P2p_stats.Timeavg.close a ~time) class_avg);
    }
  in
  ( { Engine.sh_model = model; sh_deliver; sh_sync },
    { state; group_samples; sojourns; club_avg; class_avg } )

let run ?(probe = Probe.none) ?sample_every ?max_events ~rng config ~horizon =
  check_config ~who:"Sim_agent.run" config;
  let classes = classes_of config in
  let common, x =
    Engine.drive ~probe ?sample_every ?max_events ~name:"sim_agent" ~rng ~faults:config.faults
      ~horizon (fun h ->
        let sm, extra =
          shard_model config ~who:"Sim_agent.run" ~probe ~classes ~initial:config.initial
            ~shard:0 ~shards:1 ~rng ~send:Shard.no_send h
        in
        (sm.Engine.sh_model, extra))
  in
  ( stats_of common
      ~group_samples:(P2p_stats.Vec.to_array x.group_samples)
      ~sojourns:x.sojourns
      ~one_club_time_fraction:(P2p_stats.Timeavg.average x.club_avg)
      ~class_mean_n:(Array.map P2p_stats.Timeavg.average x.class_avg),
    x.state )

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
    let classes = classes_of config in
    let parts = Shard.partition_counts ~shards config.initial in
    let sharded, extras =
      Engine.drive_sharded ~probes ?sample_every ?max_events ?sync_every ?jobs
        ~name:"sim_agent" ~rng ~faults:config.faults ~horizon ~nshards:shards
        (fun ~shard ~rng ~send h ->
          shard_model config ~who ~probe:(probes shard) ~classes
            ~initial:parts.(shard) ~shard ~shards ~rng ~send h)
    in
    let common = sharded.Engine.sh_stats in
    let merged_state =
      State.of_counts (List.concat_map (fun x -> State.to_alist x.state) (Array.to_list extras))
    in
    (* Group samples share the grid: sum fields per grid point. *)
    let per_groups = Array.map (fun x -> P2p_stats.Vec.to_array x.group_samples) extras in
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
    (* Per-class sums over shards: sojourn samples pool, class
       populations add. *)
    let per_class f init combine =
      Array.mapi (fun c _ -> Array.fold_left (fun acc x -> combine acc (f x).(c)) init extras) classes
    in
    let sojourns =
      per_class (fun x -> x.sojourns) (P2p_stats.Welford.create ()) P2p_stats.Welford.merge
    in
    let class_mean_n =
      per_class (fun x -> x.class_avg) 0.0 (fun acc a -> acc +. P2p_stats.Timeavg.average a)
    in
    (* Ratio of time-averages: Σ club-count averages over the global
       time-averaged population (the unsharded path averages the
       instantaneous fraction instead; DESIGN §17 notes the drift). *)
    let club_sum =
      Array.fold_left (fun acc x -> acc +. P2p_stats.Timeavg.average x.club_avg) 0.0 extras
    in
    let one_club_time_fraction =
      if common.Engine.time_avg_n > 0.0 then club_sum /. common.Engine.time_avg_n else 0.0
    in
    ( stats_of common ~group_samples ~sojourns ~one_club_time_fraction ~class_mean_n,
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
