module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Adjacency = P2p_graph.Adjacency
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist

type piece_choice = Random_useful | Rarest_global | Rarest_local

type config = {
  params : Params.t;
  degree : int option;
  choice : piece_choice;
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
}

let default_config params =
  { params; degree = None; choice = Random_useful; initial = []; faults = Faults.none }

type peer = {
  id : int;
  mutable pieces : Pieceset.t;
  mutable slot : int;
  mutable departed : bool;
}

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  departures : int;
  silent_contacts : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
  club_samples : (float * float) array;
  mean_degree_time_avg : float;
  final_component_sizes : int list;
}

(* dense population for uniform sampling, with id -> peer map *)
type population = {
  mutable peers : peer array;
  mutable len : int;
  by_id : (int, peer) Hashtbl.t;
}

let pop_create () = { peers = [||]; len = 0; by_id = Hashtbl.create 64 }

let pop_add pop peer =
  if pop.len = Array.length pop.peers then begin
    let bigger = Array.make (Int.max 16 (2 * pop.len)) peer in
    Array.blit pop.peers 0 bigger 0 pop.len;
    pop.peers <- bigger
  end;
  peer.slot <- pop.len;
  pop.peers.(pop.len) <- peer;
  pop.len <- pop.len + 1;
  Hashtbl.replace pop.by_id peer.id peer

let pop_remove pop peer =
  let i = peer.slot in
  pop.len <- pop.len - 1;
  if i <> pop.len then begin
    pop.peers.(i) <- pop.peers.(pop.len);
    pop.peers.(i).slot <- i
  end;
  peer.slot <- -1;
  peer.departed <- true;
  Hashtbl.remove pop.by_id peer.id

let pop_uniform pop rng =
  if pop.len = 0 then invalid_arg "Sim_network: empty population";
  pop.peers.(Rng.int_below rng pop.len)

(* one-club witness: max over pieces of the fraction of peers whose type
   is exactly F - {i}. *)
let club_fraction (p : Params.t) state =
  let n = State.n state in
  if n = 0 then 0.0
  else begin
    let full = Params.full_set p in
    let best = ref 0 in
    for i = 0 to p.k - 1 do
      let c = State.count state (Pieceset.remove i full) in
      if c > !best then best := c
    done;
    float_of_int !best /. float_of_int n
  end

let run ?(probe = Probe.none) ?sample_every ?max_events ~rng config ~horizon =
  let p = config.params in
  (match config.degree with
  | Some d when d < 1 -> invalid_arg "Sim_network.run: degree must be >= 1"
  | Some _ | None -> ());
  let common, (state, club_samples, deg_avg, sparse, graph, silent, pop) =
    Engine.drive ~probe ?sample_every ?max_events ~name:"sim_network" ~rng
      ~faults:config.faults ~horizon (fun h ->
        let tracing = probe.Probe.tracing in
        let full = Params.full_set p in
        let pop = pop_create () in
        let state = State.create () in
        let graph = Adjacency.create () in
        let sparse = Option.is_some config.degree in
        let next_id = ref 0 in
        let silent = ref 0 in
        let deg_avg = P2p_stats.Timeavg.create () in
        let lambda_total = Params.lambda_total p in
        let arrival_weights = Array.map snd p.arrivals in
        let counters = Engine.counters h in
        let frun = Engine.faults h in
        let abort_rate = config.faults.abort_rate in

        let new_peer c =
          let peer = { id = !next_id; pieces = c; slot = -1; departed = false } in
          incr next_id;
          pop_add pop peer;
          State.add_peer state c;
          if sparse then begin
            Adjacency.add_node graph peer.id;
            Adjacency.attach_uniform graph peer.id ~degree:(Option.get config.degree) rng
          end;
          peer
        in
        let depart peer =
          pop_remove pop peer;
          State.remove_peer state peer.pieces;
          if sparse then Adjacency.remove_node graph peer.id;
          counters.departures <- counters.departures + 1
        in

        (* Rarity-aware piece choice.  [counts] maps each piece to its copy
           count in the reference population (global swarm or the uploader's
           neighborhood); the rarest useful piece wins, ties at random. *)
        let pick_rarest useful counts =
          let best = ref max_int in
          Pieceset.iter (fun i -> if counts.(i) < !best then best := counts.(i)) useful;
          let tied =
            Pieceset.fold
              (fun i acc -> if counts.(i) = !best then Pieceset.add i acc else acc)
              useful Pieceset.empty
          in
          Pieceset.choose_uniform (Rng.int_below rng) tied
        in
        let neighborhood_counts uploader =
          let counts = Array.make p.k 0 in
          let tally pieces = Pieceset.iter (fun i -> counts.(i) <- counts.(i) + 1) pieces in
          tally uploader.pieces;
          Adjacency.iter_neighbors graph uploader.id (fun other_id ->
              match Hashtbl.find_opt pop.by_id other_id with
              | Some other -> tally other.pieces
              | None -> ());
          counts
        in
        let choose_piece ~uploader_pieces ~uploader ~downloader_pieces =
          let useful = Pieceset.diff uploader_pieces downloader_pieces in
          if Pieceset.is_empty useful then None
          else
            match config.choice with
            | Random_useful -> Some (Pieceset.choose_uniform (Rng.int_below rng) useful)
            | Rarest_global -> Some (pick_rarest useful (State.piece_count_vector state ~k:p.k))
            | Rarest_local -> begin
                match uploader with
                | None -> Some (Pieceset.choose_uniform (Rng.int_below rng) useful)
                | Some up when sparse -> Some (pick_rarest useful (neighborhood_counts up))
                | Some _ ->
                    (* Fully connected: the neighbourhood is the swarm. *)
                    Some (pick_rarest useful (State.piece_count_vector state ~k:p.k))
              end
        in
        let deliver peer piece ~time =
          counters.transfers <- counters.transfers + 1;
          let target = Pieceset.add piece peer.pieces in
          let completed = Pieceset.equal target full in
          if tracing then Probe.transfer probe ~time ~piece ~completed;
          if completed && Params.immediate_departure p then begin
            counters.completions <- counters.completions + 1;
            State.remove_peer state peer.pieces;
            peer.pieces <- target;
            pop_remove pop peer;
            if sparse then Adjacency.remove_node graph peer.id;
            counters.departures <- counters.departures + 1;
            if tracing then Probe.departure probe ~time Completed
          end
          else begin
            if completed then counters.completions <- counters.completions + 1;
            State.move_peer state ~from_:peer.pieces ~to_:target;
            peer.pieces <- target
          end
        in
        (* [uploader = None] is the fixed seed, globally connected. *)
        let contact_tm = Hist.timer (Hist.get probe.Probe.hists "sim_network/contact") in
        let contact uploader ~time =
          let c_t0 = Hist.tick contact_tm in
          let is_seed = Option.is_none uploader in
          let target_peer =
            match uploader with
            | None -> if pop.len = 0 then None else Some (pop_uniform pop rng)
            | Some up ->
                if not sparse then begin
                  let other = pop_uniform pop rng in
                  if other == up then None else Some other
                end
                else begin
                  match Adjacency.sample_neighbor graph up.id rng with
                  | None -> None
                  | Some id -> Hashtbl.find_opt pop.by_id id
                end
          in
          (match target_peer with
          | None ->
              incr silent;
              if tracing then
                Probe.contact probe ~time ~seed:is_seed ~useful:false
          | Some downloader -> begin
              let uploader_pieces =
                match uploader with None -> full | Some up -> up.pieces
              in
              let choice =
                choose_piece ~uploader_pieces ~uploader ~downloader_pieces:downloader.pieces
              in
              if tracing then
                Probe.contact probe ~time ~seed:is_seed ~useful:(Option.is_some choice);
              match choice with
              | Some _ when Faults.lost frun ->
                  (* The upload happened but the piece never arrived. *)
                  counters.lost <- counters.lost + 1;
                  if tracing then Probe.transfer_lost probe ~time
              | Some piece -> deliver downloader piece ~time
              | None -> incr silent
            end);
          Hist.tock contact_tm c_t0
        in

        (* initial population *)
        List.iter
          (fun (c, count) ->
            for _ = 1 to count do
              ignore (new_peer c)
            done)
          config.initial;

        let observe time =
          let n = pop.len in
          Engine.observe h ~time ~n;
          if sparse && n > 0 then
            P2p_stats.Timeavg.observe deg_avg ~time ~value:(Adjacency.mean_degree graph)
        in
        observe 0.0;

        let club_samples = P2p_stats.Vec.create () in

        (* Rate bands, stashed by [total_rate] for [apply]'s dispatch.  The
           abort band sits right after the seed band so a zero abort rate
           leaves every dispatch boundary float-identical to the pre-fault
           simulator. *)
        let rate_arrival = ref 0.0 in
        let rate_seed = ref 0.0 in
        let rate_abort = ref 0.0 in
        let rate_peers = ref 0.0 in
        let total_rate () =
          let n = pop.len in
          let seeds = if Params.immediate_departure p then 0 else State.count state full in
          rate_arrival := lambda_total;
          rate_seed := (if n = 0 || not (Faults.seed_up frun) then 0.0 else p.us);
          rate_abort := abort_rate *. float_of_int (n - State.count state full);
          rate_peers := p.mu *. float_of_int n;
          let rate_departure =
            if Params.immediate_departure p then 0.0 else p.gamma *. float_of_int seeds
          in
          !rate_arrival +. !rate_seed +. !rate_abort +. !rate_peers +. rate_departure
        in
        let apply ~time ~u =
          if u < !rate_arrival then begin
            let idx = Dist.categorical rng ~weights:arrival_weights in
            let pieces = fst p.arrivals.(idx) in
            ignore (new_peer pieces);
            counters.arrivals <- counters.arrivals + 1;
            if tracing then Probe.arrival probe ~time ~pieces
          end
          else if u < !rate_arrival +. !rate_seed then contact None ~time
          else if u < !rate_arrival +. !rate_seed +. !rate_abort then begin
            (* Churn: a uniformly chosen in-progress peer abandons its
               download.  rate_abort > 0 guarantees a non-seed peer exists. *)
            let rec pick () =
              let peer = pop_uniform pop rng in
              if Pieceset.equal peer.pieces full then pick () else peer
            in
            depart (pick ());
            counters.aborted <- counters.aborted + 1;
            if tracing then Probe.departure probe ~time Aborted
          end
          else if u < !rate_arrival +. !rate_seed +. !rate_abort +. !rate_peers then
            contact (Some (pop_uniform pop rng)) ~time
          else begin
            (* a uniformly chosen peer seed departs *)
            let rec find_seed () =
              let peer = pop_uniform pop rng in
              if Pieceset.equal peer.pieces full then peer else find_seed ()
            in
            depart (find_seed ());
            if tracing then Probe.departure probe ~time Seed_departed
          end;
          observe time
        in
        let model =
          {
            Engine.total_rate;
            apply;
            next_scheduled = (fun () -> infinity);
            scheduled = (fun ~time:_ -> ());
            population = (fun () -> pop.len);
            extra_sample =
              (fun ~time -> P2p_stats.Vec.push club_samples (time, club_fraction p state));
            probe_sample =
              (fun ~time ->
                Probe.sample ~time ~k:p.k ~n:(State.n state) ~count_of:(State.count state)
                  ~piece_counts:(State.piece_count_vector state ~k:p.k));
            finish =
              (fun ~time -> if sparse then P2p_stats.Timeavg.close deg_avg ~time);
          }
        in
        (model, (state, club_samples, deg_avg, sparse, graph, silent, pop)))
  in
  let stats =
    {
      final_time = common.Engine.final_time;
      events = common.Engine.events;
      arrivals = common.Engine.arrivals;
      transfers = common.Engine.transfers;
      departures = common.Engine.departures;
      silent_contacts = !silent;
      time_avg_n = common.Engine.time_avg_n;
      max_n = common.Engine.max_n;
      final_n = common.Engine.final_n;
      truncated = common.Engine.truncated;
      outage_time = common.Engine.outage_time;
      aborted_peers = common.Engine.aborted_peers;
      lost_transfers = common.Engine.lost_transfers;
      samples = common.Engine.samples;
      club_samples = P2p_stats.Vec.to_array club_samples;
      mean_degree_time_avg = (if sparse then P2p_stats.Timeavg.average deg_avg else nan);
      final_component_sizes =
        (if sparse then Adjacency.connected_component_sizes graph else [ pop.len ]);
    }
  in
  (stats, state)

let run_seeded ?probe ?sample_every ?max_events ~seed config ~horizon =
  run ?probe ?sample_every ?max_events ~rng:(Rng.of_seed seed) config ~horizon
