(** Swarm partitioning for the sharded engine.

    A shard owns a subset of the peers: initial peers are dealt
    round-robin from their piece-set stratum ({!stratum}), arrivals are
    Poisson-thinned (each shard runs an independent λ/S arrival band),
    and a peer never migrates — departures and piece transfers happen on
    the shard of residence.  Contacts whose downloader lives on another
    shard cross the boundary as {!msg} values, resolved by the receiving
    shard at the next sync barrier (see {!Engine.drive_sharded}).

    Every function here is deterministic: the partition of a given
    initial population is a pure function of [(initial, shards)], and
    {!route} consumes exactly one draw from the caller's generator. *)

module Pieceset = P2p_pieceset.Pieceset

val stratum : Pieceset.t -> shards:int -> int
(** Home shard of a piece-set type, [hash c mod shards].
    @raise Invalid_argument if [shards <= 0]. *)

val partition_counts :
  shards:int -> (Pieceset.t * int) list -> (Pieceset.t * int) list array
(** Split an initial population across [shards]: the [j]-th peer of type
    [c] lands on shard [(stratum c + j) mod shards], so every peer is
    owned by exactly one shard and each type spreads evenly.  The
    returned array has length [shards]; entries preserve the input type
    order.
    @raise Invalid_argument on [shards <= 0] or a negative count. *)

type msg = { uploader : Policy.uploader }
(** A cross-shard contact offer: the uploader travels to the
    downloader's shard, which picks the downloader and resolves the
    contact with its own generator. *)

type view
(** One shard's routing view: the other shards' populations as of the
    last sync barrier.  A fresh view sees no other peer, so a lone
    shard's {!route} is exactly the unsharded downloader draw. *)

val view : me:int -> shards:int -> view

val sync : view -> int array -> unit
(** Take a barrier's per-shard populations (entry [me] is ignored). *)

val visible : view -> local_n:int -> int
(** The global population as shard [me] sees it: [local_n] live plus
    the others' snapshot. *)

val route : view -> P2p_prng.Rng.t -> local_n:int -> int
(** Choose a uniformly-random global downloader with exactly one draw,
    uniform on [[0, visible)].  A result [r < local_n] is a local
    downloader, and [r] itself is its rank: uniform over the local
    peers, so it doubles as the downloader draw.  Otherwise the
    downloader lives on shard [owner v (r - local_n)].  Allocation-free,
    and it never walks the snapshot.
    @raise Invalid_argument when nobody is visible. *)

val owner : view -> int -> int
(** [owner v i] is the shard holding the [i]-th peer of the others'
    snapshot, counted in shard order. *)

val no_send : time:float -> dst:int -> 'msg -> unit
(** The [send] of a lone shard, which never routes anywhere else.
    @raise Invalid_argument if called. *)
