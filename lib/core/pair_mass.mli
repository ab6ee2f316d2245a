(** The useful pair mass of a counts state, kept exact under updates.

    A peer contact from a type-[A] uploader to a type-[B] downloader
    changes the state iff [A ⊄ B].  For the state [x] this module keeps

    - [out(A) = Σ_B x_B·1[A ⊄ B]], the peers a type-[A] peer can help,
      for every occupied type [A], and
    - the pair mass [M = Σ_A x_A·out(A)], the number of ordered
      (uploader, downloader) peer pairs that are useful,

    as exact integers.  Each update costs one pass over the occupied
    types; only {!create} does O(occupied²) work.  Every policy of
    {!Policy} returns a piece exactly on useful pairs (Theorem 14), so
    [M] does not depend on the policy.

    The per-type data lives in an array parallel to the {!State} slots.
    All mutations of the wrapped state must go through this module. *)

module Pieceset = P2p_pieceset.Pieceset

type t

val create : State.t -> t
(** Take ownership of a state and count its pair mass. *)

val state : t -> State.t
val mass : t -> int

val out_of : t -> Pieceset.t -> int
(** [out(A)]; [0] when [A] is unoccupied. *)

val add_peer : t -> Pieceset.t -> unit

val remove_at : t -> int -> unit
(** Remove one peer of the type in the given {!State} slot. *)

val move_up_at : t -> int -> to_:Pieceset.t -> unit
(** Move one peer of the type [B] in the given slot to [to_ ⊇ B] (a
    download or a completion).
    @raise Invalid_argument unless [B ⊆ to_]. *)

val pick : t -> int -> int * int
(** [pick t r], for [r] uniform on [[0, mass t)], is a uniform useful
    pair as [(uploader slot, downloader slot)]: the uploader type [A]
    with weight [x_A·out(A)], then the downloader over the types [B ⊉ A]
    with weight [x_B].  One draw decides both. *)
