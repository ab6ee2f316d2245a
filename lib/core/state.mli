(** The Markov chain state: the count of peers of each type.

    The state vector of Section III is [x = (x_C : C ∈ C)].  We store only
    the occupied types — dense parallel arrays with O(1) swap-removal plus
    a type → slot hash table — and cache the total population [n], so
    one-club-heavy states (the interesting ones) cost O(occupied types),
    not O(2^K).  A per-piece copy-count vector is maintained incrementally
    on every add/remove/move, so {!piece_copies} is O(1) and
    {!piece_count_vector} is an O(k) copy: the reads that rarest-first
    style policies and swarm probes perform on every contact never rescan
    the occupied types. *)

module Pieceset = P2p_pieceset.Pieceset

type t

val create : unit -> t
val copy : t -> t

val of_counts : (Pieceset.t * int) list -> t
(** @raise Invalid_argument on a negative count; zero counts are dropped,
    duplicates summed. *)

val count : t -> Pieceset.t -> int
val n : t -> int
(** Total number of peers. *)

val occupied : t -> int
(** Number of distinct occupied types. *)

val add_peer : t -> Pieceset.t -> unit
val remove_peer : t -> Pieceset.t -> unit
(** @raise Invalid_argument if no such peer. *)

val move_peer : t -> from_:Pieceset.t -> to_:Pieceset.t -> unit
(** [remove_peer] + [add_peer] in one step. *)

val iter : t -> (Pieceset.t -> int -> unit) -> unit
(** Over occupied types only, in unspecified order. *)

val fold : t -> init:'a -> f:('a -> Pieceset.t -> int -> 'a) -> 'a

val to_alist : t -> (Pieceset.t * int) list
(** Sorted by type for deterministic printing. *)

val piece_copies : t -> k:int -> piece:int -> int
(** Number of peers holding the piece.  O(1): read off the incrementally
    maintained copy-count vector. *)

val piece_count_vector : t -> k:int -> int array
(** [piece_copies] for every piece at once — an O(k) fresh copy. *)

val peer_at_rank : t -> int -> Pieceset.t
(** Type of the peer of rank [r] in [[0, n)], counting peers slot by
    slot in the dense occupied-type array: a uniform [r] gives a uniform
    peer.  Allocation-free.
    @raise Invalid_argument if [r] is out of range. *)

(** {1 Slots}

    The occupied types sit in slots [[0, occupied)].  A type keeps its
    slot while occupied; a new type takes slot [occupied - 1]; a type
    whose count reaches zero is swap-removed: the last slot moves into
    its place.  These operations let an incremental bookkeeper (see
    {!Pair_mass}) keep per-type data in a parallel array, mirroring the
    swap, without a second type → slot table.  Each costs the same as
    its type-keyed counterpart, or less. *)

val slot : t -> Pieceset.t -> int
(** The type's slot, or [-1] when unoccupied. *)

val slot_type : t -> int -> Pieceset.t

val slot_types : t -> Pieceset.t array
val slot_counts : t -> int array
(** The slot arrays themselves, for tight loops over slots
    [[0, occupied)] (entries past that are garbage).  Read-only, and
    valid only until the next mutation, which may replace them. *)

val slot_at_rank : t -> int -> int
(** The slot of the peer of rank [r], as in {!peer_at_rank}.
    @raise Invalid_argument if [r] is out of range. *)

val add_peer_slot : t -> Pieceset.t -> int
(** {!add_peer}, returning the type's slot. *)

val remove_peer_at : t -> int -> unit
(** Remove one peer of the type in the given slot. *)

val move_peer_at : t -> int -> to_:Pieceset.t -> int
(** Move one peer of the type in the given slot to type [to_] (the
    source slot may be swap-removed first); returns [to_]'s slot. *)

val count_subset_peers : t -> Pieceset.t -> int
(** [Σ_{C ⊆ S} x_C]: the paper's [E_S]. *)

val count_helpful_peers : t -> Pieceset.t -> int
(** [Σ_{C ⊄ S} x_C = x_{H_S}]: peers that can help a type-[S] peer. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
