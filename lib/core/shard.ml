module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng

(* The partition discipline: a peer belongs to the shard that created
   it and never migrates.  Initial peers are dealt round-robin starting
   from their type's stratum (so a one-type flash crowd still spreads
   evenly); arrivals are Poisson-thinned, each shard owning an
   independent λ/S arrival stream.  Ownership is about *residence* —
   any shard's peer can still contact any other shard's peer, through
   the message boundary. *)

let stratum c ~shards =
  if shards <= 0 then invalid_arg "Shard.stratum: shards must be positive";
  Pieceset.hash c mod shards

let partition_counts ~shards initial =
  if shards <= 0 then invalid_arg "Shard.partition_counts: shards must be positive";
  let per = Array.make shards [] in
  List.iter
    (fun (c, count) ->
      if count < 0 then invalid_arg "Shard.partition_counts: negative count";
      let base = stratum c ~shards in
      (* Deal [count] peers round-robin from the stratum: shard
         [(base + j) mod shards] owns the j-th.  Emit one (type, share)
         entry per shard that receives at least one peer. *)
      for s = 0 to shards - 1 do
        let share = (count / shards) + (if (s - base + shards) mod shards < count mod shards then 1 else 0) in
        if share > 0 then per.(s) <- (c, share) :: per.(s)
      done)
    initial;
  Array.map List.rev per

(* A cross-shard contact offer: the uploader travels to the downloader's
   shard, which resolves the contact locally with its own generator.
   [Fixed_seed] comes from shard 0, where the seed lives. *)
type msg = { uploader : Policy.uploader }

(* A shard's view of the others: their populations as of the last sync
   barrier, and their total.  A lone shard is never synced, so it sees
   nobody else and [route] reduces to the unsharded downloader draw. *)
type view = { me : int; remote : int array; mutable others : int }

let view ~me ~shards = { me; remote = Array.make shards 0; others = 0 }

let sync v populations =
  Array.blit populations 0 v.remote 0 (Array.length v.remote);
  v.others <- 0;
  Array.iteri (fun j nj -> if j <> v.me then v.others <- v.others + nj) v.remote

let visible v ~local_n = local_n + v.others

(* One uniform draw over the visible global population.  Below
   [local_n] the draw is uniform over the local peers, so it is the
   downloader's rank as it stands — no second draw. *)
let route v rng ~local_n = Rng.int_below rng (local_n + v.others)

let owner v r =
  let rec go j rest =
    if j = v.me then go (j + 1) rest
    else if rest < v.remote.(j) then j
    else go (j + 1) (rest - v.remote.(j))
  in
  go 0 r

let no_send ~time:_ ~dst:_ _ = invalid_arg "Shard.no_send: a lone shard has no remote peer"
