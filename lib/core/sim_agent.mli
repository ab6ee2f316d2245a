(** Agent-level simulation: every peer is an explicit object.

    Equivalent in law to {!Sim_markov} for the paper's model (a test
    checks the agreement), but additionally supports:

    - the Fig. 2 group decomposition — normal young / infected / gifted /
      one-club / former one-club peers with respect to a designated rare
      piece (the instrumentation behind the transience proof);
    - per-peer sojourn times;
    - non-exponential peer-seed dwell times (deterministic, Erlang) — the
      conclusion's conjecture that stability is insensitive to the dwell
      distribution (experiment E6 extension);
    - the Section VIII-C "faster recovery" variant: any uploader whose
      last contact found no useful piece ticks at rate [η·μ] (the seed at
      [η·U_s]) until its next contact;
    - heterogeneous peer classes (the paper's conclusion): each class has
      its own contact rate [μ_c], dwell rate [γ_c] and arrival streams.
      {!Hetero} holds the threshold heuristic for such swarms. *)

module Pieceset = P2p_pieceset.Pieceset

type dwell =
  | Exp_dwell  (** Exp(γ) — the paper's model *)
  | Deterministic_dwell  (** constant 1/γ *)
  | Erlang_dwell of int  (** [Erlang_dwell m]: m stages, same mean 1/γ *)

(** A peer class: its peers contact at [mu], dwell as seeds at [gamma]
    (shaped by {!config.dwell}), and arrive through [arrivals]. *)
type peer_class = {
  mu : float;  (** contact rate, finite > 0 *)
  gamma : float;  (** seed dwell rate; [infinity] = leave on completion *)
  arrivals : (Pieceset.t * float) array;  (** the class's [(C, λ_C)] streams *)
}

type config = {
  params : Params.t;
  policy : Policy.t;
  dwell : dwell;
  eta : float;  (** unsuccessful-contact speedup; 1.0 = paper model *)
  rare_piece : int;  (** the piece the group decomposition tracks *)
  initial : (Pieceset.t * int) list;  (** the peers at time 0, all of class 0 *)
  faults : Faults.t;  (** fault injection; {!Faults.none} = the paper's model *)
  classes : peer_class array;
      (** [[||]] = the paper's one class: [params.mu], [params.gamma] and
          [params.arrivals].  A non-empty table supplies every class's
          rates and streams, and [params] only [k] and [us].  A one-class
          table equal to [params]' values gives a bit-identical run. *)
}

val check_classes : who:string -> k:int -> peer_class array -> unit
(** @raise Invalid_argument, naming [who], unless every class has a
    finite [mu > 0], [gamma > 0], finite non-negative arrival rates of
    types within [{0..k-1}], no full-type arrivals when [gamma =
    infinity], and the classes' arrival rates have a positive sum. *)

val default_config : Params.t -> config
(** Random-useful, exponential dwell, [eta = 1.0], rare piece 0, no
    faults, one class. *)

type groups = {
  young : int;  (** missing the rare piece and at least one other *)
  infected : int;  (** received the rare piece after arrival, while young *)
  gifted : int;  (** arrived already holding the rare piece *)
  one_club : int;  (** type F − {rare piece} *)
  former_one_club : int;  (** were one-club, received the rare piece *)
}

val groups_total : groups -> int

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
      (** the [max_events] budget ran out before [horizon]; time-based
          statistics are biased toward the frozen final state *)
  outage_time : float;  (** total time the fixed seed spent down *)
  aborted_peers : int;  (** churn departures (also counted in [departures]) *)
  lost_transfers : int;  (** uploads dropped by transfer loss *)
  samples : (float * int) array;
  group_samples : (float * groups) array;
  mean_sojourn : float;  (** of departed peers; [nan] if none departed *)
  sojourn_count : int;
  one_club_time_fraction : float;
      (** time-average fraction of peers in the one-club (+ former members
          still present): the missing-piece-syndrome witness *)
  class_mean_n : float array;  (** time-average population per class *)
  class_mean_sojourn : float array;  (** per class; [nan] where none departed *)
}

val run :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats * State.t
(** Simulate on [0, horizon]; returns statistics and the final aggregate
    state (type counts).
    @raise Invalid_argument on an invalid class table (a rate out of
    range, arrivals of full peers in a class with [gamma = infinity], or
    no positive arrival stream).

    [probe] (default {!P2p_obs.Probe.none}) attaches telemetry exactly as
    in {!Sim_markov.run}: pure observation, never a perturbation — runs
    are bit-identical with and without a probe attached. *)

val run_seeded :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?max_events:int ->
  seed:int ->
  config ->
  horizon:float ->
  stats * State.t

(** {1 Sharded runs}

    The agent swarm partitioned across shards (see
    {!Engine.drive_sharded} and DESIGN §17).  [shards = 1] dispatches to
    {!run} and is bit-identical to it.  For [shards >= 2]: peer ids are
    globally unique ([shard + n*shards]); the unsuccessful-contact boost
    is shard-local (cross-shard upload outcomes never reach the
    uploader's shard); [one_club_time_fraction] is the ratio of
    time-averages (Σ per-shard club-count averages over the global
    time-averaged population) rather than the time-average of the
    instantaneous ratio. *)

type shard_report = {
  shards : int;
  windows : int;
  cross_messages : int;
  shard_events : int array;  (** per-shard event counts *)
  shard_final_n : int array;
}

val run_sharded :
  ?probes:(int -> P2p_obs.Probe.t) ->
  ?sample_every:float ->
  ?max_events:int ->
  ?sync_every:float ->
  ?jobs:int ->
  shards:int ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats * State.t * shard_report

val run_sharded_seeded :
  ?probes:(int -> P2p_obs.Probe.t) ->
  ?sample_every:float ->
  ?max_events:int ->
  ?sync_every:float ->
  ?jobs:int ->
  shards:int ->
  seed:int ->
  config ->
  horizon:float ->
  stats * State.t * shard_report
