module Pieceset = P2p_pieceset.Pieceset

(* The type -> slot table, specialised to bitmask keys: an inline
   multiplicative hash and integer equality instead of the polymorphic
   [Hashtbl.hash] and [compare] C calls. *)
module Slot_table = Hashtbl.Make (struct
  type t = Pieceset.t

  let equal (a : t) (b : t) = (a :> int) = (b :> int)
  let hash (c : t) = ((c :> int) * 0x9E3779B97F4A7C1) lsr 17
end)

(* Occupied types live in dense parallel arrays with O(1) swap-removal,
   with a hash table mapping type -> slot.  The dense layout keeps the
   per-event operations (count lookups, uniform peer sampling, piece-count
   maintenance) allocation-free and cache-friendly: sampling scans a flat
   int array instead of walking hash buckets, and the per-piece copy
   counts are maintained incrementally so rarest-first style policies read
   them in O(1) instead of recomputing O(occupied types * k) per contact. *)
type t = {
  mutable types : Pieceset.t array;  (* slots [0, len) occupied *)
  mutable vals : int array;  (* vals.(s) > 0 for s < len *)
  mutable len : int;
  slot_of : int Slot_table.t;
  mutable total : int;
  piece_counts : int array;  (* piece i -> copies held across all peers *)
}

let create () =
  {
    types = [||];
    vals = [||];
    len = 0;
    slot_of = Slot_table.create 32;
    total = 0;
    piece_counts = Array.make Pieceset.max_pieces 0;
  }

let copy t =
  {
    types = Array.copy t.types;
    vals = Array.copy t.vals;
    len = t.len;
    slot_of = Slot_table.copy t.slot_of;
    total = t.total;
    piece_counts = Array.copy t.piece_counts;
  }

(* [match ... with exception Not_found] avoids the [Some] allocation of
   [find_opt] on this per-event path. *)
let count t c = match Slot_table.find t.slot_of c with v -> t.vals.(v) | exception Not_found -> 0

let n t = t.total
let occupied t = t.len

(* Add [dv] (possibly negative) to the copy count of every piece of [c];
   tail-recursive over the bitset, no closure, no allocation. *)
let rec bump_pieces pc c dv =
  if not (Pieceset.is_empty c) then begin
    let i = Pieceset.lowest c in
    Array.unsafe_set pc i (Array.unsafe_get pc i + dv);
    bump_pieces pc (Pieceset.remove i c) dv
  end

(* Slot-level add/remove: maintain the dense arrays and the slot table
   only ([add_slot] returns the type's slot).  [total] and
   [piece_counts] are the callers' business, so that [move_peer] can
   account for just the pieces that changed hands. *)
let add_slot t c v =
  match Slot_table.find t.slot_of c with
  | slot ->
      t.vals.(slot) <- t.vals.(slot) + v;
      slot
  | exception Not_found ->
      if t.len = Array.length t.types then begin
        let cap = Int.max 16 (2 * t.len) in
        let types = Array.make cap Pieceset.empty and vals = Array.make cap 0 in
        Array.blit t.types 0 types 0 t.len;
        Array.blit t.vals 0 vals 0 t.len;
        t.types <- types;
        t.vals <- vals
      end;
      t.types.(t.len) <- c;
      t.vals.(t.len) <- v;
      Slot_table.replace t.slot_of c t.len;
      t.len <- t.len + 1;
      t.len - 1

let slot t c = match Slot_table.find t.slot_of c with s -> s | exception Not_found -> -1
let slot_type t s = t.types.(s)
let slot_types t = t.types
let slot_counts t = t.vals

(* Take one count off slot [slot]; an emptied slot is swap-removed: the
   last slot moves into it, keeping the prefix dense. *)
let remove_from_slot t slot =
  let v = t.vals.(slot) in
  if v = 1 then begin
    let last = t.len - 1 in
    Slot_table.remove t.slot_of t.types.(slot);
    if slot <> last then begin
      let moved = t.types.(last) in
      t.types.(slot) <- moved;
      t.vals.(slot) <- t.vals.(last);
      Slot_table.replace t.slot_of moved slot
    end;
    t.len <- last
  end
  else t.vals.(slot) <- v - 1

let remove_slot t c =
  match Slot_table.find t.slot_of c with
  | exception Not_found ->
      invalid_arg (Printf.sprintf "State.remove_peer: no type %s peer" (Pieceset.to_string c))
  | slot -> remove_from_slot t slot

let add_peers t c v =
  ignore (add_slot t c v);
  t.total <- t.total + v;
  bump_pieces t.piece_counts c v

let add_peer t c = add_peers t c 1

let of_counts entries =
  let t = create () in
  List.iter
    (fun (c, v) ->
      if v < 0 then invalid_arg "State.of_counts: negative count";
      if v > 0 then add_peers t c v)
    entries;
  t

let remove_peer t c =
  remove_slot t c;
  t.total <- t.total - 1;
  bump_pieces t.piece_counts c (-1)

let remove_peer_at t s =
  let c = t.types.(s) in
  remove_from_slot t s;
  t.total <- t.total - 1;
  bump_pieces t.piece_counts c (-1)

(* One peer changes type: move the slot count, then touch only the
   pieces that actually changed hands (for a download, exactly one). *)
let bump_moved t ~from_ ~to_ =
  bump_pieces t.piece_counts (Pieceset.diff to_ from_) 1;
  bump_pieces t.piece_counts (Pieceset.diff from_ to_) (-1)

let move_peer t ~from_ ~to_ =
  if Pieceset.equal from_ to_ then ()
  else begin
    remove_slot t from_;
    ignore (add_slot t to_ 1);
    bump_moved t ~from_ ~to_
  end

let add_peer_slot t c =
  let s = add_slot t c 1 in
  t.total <- t.total + 1;
  bump_pieces t.piece_counts c 1;
  s

let move_peer_at t s ~to_ =
  let from_ = t.types.(s) in
  if Pieceset.equal from_ to_ then s
  else begin
    remove_from_slot t s;
    let s' = add_slot t to_ 1 in
    bump_moved t ~from_ ~to_;
    s'
  end

let iter t f =
  for s = 0 to t.len - 1 do
    f t.types.(s) t.vals.(s)
  done

let fold t ~init ~f =
  let acc = ref init in
  for s = 0 to t.len - 1 do
    acc := f !acc t.types.(s) t.vals.(s)
  done;
  !acc

let to_alist t =
  fold t ~init:[] ~f:(fun acc c v -> (c, v) :: acc)
  |> List.sort (fun (a, _) (b, _) -> Pieceset.compare a b)

let piece_copies t ~k ~piece =
  if piece < 0 || piece >= k then invalid_arg "State.piece_copies: piece out of range";
  t.piece_counts.(piece)

let piece_count_vector t ~k = Array.sub t.piece_counts 0 k

let slot_at_rank t rank =
  if rank < 0 || rank >= t.total then invalid_arg "State.slot_at_rank: rank out of range";
  (* Guaranteed to land inside the dense prefix: sum of vals = total. *)
  let rec go slot acc =
    let acc = acc + Array.unsafe_get t.vals slot in
    if acc > rank then slot else go (slot + 1) acc
  in
  go 0 0

let peer_at_rank t rank = Array.unsafe_get t.types (slot_at_rank t rank)

let count_subset_peers t s =
  fold t ~init:0 ~f:(fun acc c v -> if Pieceset.subset c s then acc + v else acc)

let count_helpful_peers t s =
  fold t ~init:0 ~f:(fun acc c v -> if Pieceset.subset c s then acc else acc + v)

let equal a b =
  a.total = b.total && a.len = b.len
  && (let ok = ref true in
      iter a (fun c v -> if count b c <> v then ok := false);
      !ok)

let pp fmt t =
  Format.fprintf fmt "@[<h>n=%d:" t.total;
  List.iter (fun (c, v) -> Format.fprintf fmt " %a:%d" Pieceset.pp c v) (to_alist t);
  Format.fprintf fmt "@]"
