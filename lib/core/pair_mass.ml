module Pieceset = P2p_pieceset.Pieceset

(* [out.(s)] is out(A) for the type A in State slot [s]; it mirrors the
   slot layout, swap-removals included.  The passes read State's slot
   arrays directly and test subsets on the raw bitmasks: both stay local
   to the loop, where a call per slot would cost more than the loop
   body. *)
type t = { state : State.t; mutable out : int array; mutable mass : int }

(* [helps a b] iff a ⊄ b, on the bitmasks. *)
let[@inline] helps (a : int) (b : int) = a land lnot b <> 0

let ensure t s =
  if s >= Array.length t.out then begin
    let out = Array.make (Int.max 16 (2 * (s + 1))) 0 in
    Array.blit t.out 0 out 0 (Array.length t.out);
    t.out <- out
  end

let create state =
  let len = State.occupied state in
  let types = State.slot_types state and xs = State.slot_counts state in
  let t = { state; out = Array.make (Int.max 16 len) 0; mass = 0 } in
  for s = 0 to len - 1 do
    let a = (types.(s) :> int) in
    let o = ref 0 in
    for s' = 0 to len - 1 do
      if helps a (types.(s') :> int) then o := !o + xs.(s')
    done;
    t.out.(s) <- !o;
    t.mass <- t.mass + (xs.(s) * !o)
  done;
  t

let state t = t.state
let mass t = t.mass

let out_of t c =
  let s = State.slot t.state c in
  if s < 0 then 0 else t.out.(s)

(* One pass: every type A ⊄ C gains C as a helpable peer, and the new
   peer helps every peer of a type B ⊉ C. *)
let add_peer t c =
  let st = t.state and out = t.out in
  let types = State.slot_types st and xs = State.slot_counts st in
  let ci = (c : Pieceset.t :> int) in
  let helpers = ref 0 and out_c = ref 0 in
  for s = 0 to State.occupied st - 1 do
    let a = (Array.unsafe_get types s :> int) and x = Array.unsafe_get xs s in
    if helps a ci then begin
      Array.unsafe_set out s (Array.unsafe_get out s + 1);
      helpers := !helpers + x
    end;
    if helps ci a then out_c := !out_c + x
  done;
  let s = State.add_peer_slot st c in
  ensure t s;
  t.out.(s) <- !out_c;
  t.mass <- t.mass + !helpers + !out_c

(* After [State]'s swap-removal of an emptied [slot], mirror it. *)
let mirror_removal t ~slot ~emptied ~last =
  if emptied && slot <> last then t.out.(slot) <- t.out.(last)

let remove_at t slot =
  let st = t.state and out = t.out in
  let types = State.slot_types st and xs = State.slot_counts st in
  let c = (types.(slot) :> int) in
  let helpers = ref 0 in
  let last = State.occupied st - 1 in
  for s = 0 to last do
    if helps (Array.unsafe_get types s :> int) c then begin
      Array.unsafe_set out s (Array.unsafe_get out s - 1);
      helpers := !helpers + Array.unsafe_get xs s
    end
  done;
  t.mass <- t.mass - !helpers - out.(slot);
  let emptied = xs.(slot) = 1 in
  State.remove_peer_at st slot;
  mirror_removal t ~slot ~emptied ~last

(* A peer moves B → B' with B ⊆ B'.  Its uploaders of a type A with
   A ⊄ B but A ⊆ B' lose it (out(A) drops by one), and it can now help
   the peers of the types A ⊇ B with B' ⊄ A.  No type gains it as a
   helpable peer: A ⊄ B' implies A ⊄ B.  The pass runs before the state
   moves, so the moving peer is still counted under B and is taken out
   of [gain] by hand. *)
let move_up_at t slot ~to_ =
  let st = t.state and out = t.out in
  let types = State.slot_types st and xs = State.slot_counts st in
  let b = (types.(slot) :> int) and b' = (to_ : Pieceset.t :> int) in
  if helps b b' then invalid_arg "Pair_mass.move_up_at: not a superset";
  if b <> b' then begin
    let drop = ref 0 and gain = ref 0 in
    let last = State.occupied st - 1 in
    for s = 0 to last do
      let a = (Array.unsafe_get types s :> int) and x = Array.unsafe_get xs s in
      if helps a b && not (helps a b') then begin
        Array.unsafe_set out s (Array.unsafe_get out s - 1);
        drop := !drop + x
      end;
      if (not (helps b a)) && helps b' a then gain := !gain + x
    done;
    let gain = !gain - 1 in
    let out_to = out.(slot) + gain in
    t.mass <- t.mass + gain - !drop;
    let emptied = xs.(slot) = 1 in
    let s' = State.move_peer_at st slot ~to_ in
    mirror_removal t ~slot ~emptied ~last;
    ensure t s';
    t.out.(s') <- out_to
  end

let pick t r =
  let out = t.out in
  let types = State.slot_types t.state and xs = State.slot_counts t.state in
  let s = ref 0 and acc = ref 0 in
  while r >= !acc + (Array.unsafe_get xs !s * Array.unsafe_get out !s) do
    acc := !acc + (Array.unsafe_get xs !s * Array.unsafe_get out !s);
    incr s
  done;
  let up = !s in
  let a = (types.(up) :> int) in
  (* [r - acc] is uniform on [0, x_A·out(A)): reduced mod out(A) it is a
     uniform rank among the peers A helps. *)
  let rank = (r - !acc) mod out.(up) in
  let d = ref 0 and acc = ref 0 in
  let searching = ref true in
  while !searching do
    if helps a (Array.unsafe_get types !d :> int) then begin
      acc := !acc + Array.unsafe_get xs !d;
      if !acc > rank then searching := false else incr d
    end
    else incr d
  done;
  (up, !d)
