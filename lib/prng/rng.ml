(* xoshiro256** 1.0 (Blackman & Vigna, public domain reference
   implementation), seeded via SplitMix64.  We use Int64 arithmetic
   throughout; OCaml's native [int] keeps only 63 bits. *)

(* The four state words live in one 32-byte [Bytes.t] at offsets 0, 8,
   16 and 24, read and written with the unchecked 64-bit primitives.
   Those compile to plain loads and stores of raw words, so the step
   below keeps the state in registers and allocates nothing.  A record of
   [mutable int64] fields instead stores a freshly boxed [int64] on each of
   the step's six field updates without flambda.  (Bigarray accessors box
   their results too.) *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  [@inline] so the draws below run it in place
   and the result never leaves a register as a boxed [int64]. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (Int64.logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

(* SplitMix64 step: used only for seeding and stream splitting. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed seed =
  let sm = ref (Int64.of_int seed) in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  make s0 s1 s2 s3

(* Derive the [stream]-th generator of the family rooted at [master]:
   perturb the SplitMix64 chain of [master] by the golden-ratio-scrambled
   stream index, then draw the xoshiro state as in [of_seed].  Used by the
   replication runner with stream = replication index. *)
let of_seed_pair ~master ~stream =
  let sm = ref (Int64.of_int master) in
  let base = splitmix64 sm in
  let sm = ref (Int64.logxor base (Int64.mul (Int64.of_int stream) 0x9E3779B97F4A7C15L)) in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  make s0 s1 s2 s3

let copy = Bytes.copy
let bits64 t = next t

let split t =
  (* Derive a child state by running SplitMix64 on fresh output of [t].
     The child state is decorrelated from the parent's future stream. *)
  let sm = ref (next t) in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  make s0 s1 s2 s3

(* Jump polynomial for 2^128 steps, from the reference implementation. *)
let jump_tbl = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jv ->
      for b = 0 to 63 do
        if Int64.logand jv (Int64.shift_left 1L b) <> 0L then
          for w = 0 to 3 do
            set acc (8 * w) (Int64.logxor (get acc (8 * w)) (get t (8 * w)))
          done;
        ignore (next t)
      done)
    jump_tbl;
  Bytes.blit acc 0 t 0 32

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  if n = 1 then 0
  else begin
    (* Unbiased rejection sampling on the low 62 bits of each output,
       which fit an OCaml [int] exactly: [Int64.to_int] keeps bits 0..62
       and [land max_int] clears bit 62. *)
    let limit = max_int - (max_int mod n) in
    let r = ref (Int64.to_int (next t) land max_int) in
    while !r > limit do
      r := Int64.to_int (next t) land max_int
    done;
    !r mod n
  end

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int_below t (hi - lo + 1)

(* 53 top bits mapped to [0,1). *)
let[@inline] float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let[@inline] float_pos t =
  (Int64.to_float (Int64.shift_right_logical (next t) 11) +. 1.0) *. 0x1.0p-53

let bool t = Int64.compare (next t) 0L < 0

let bernoulli t ~p = if p >= 1.0 then true else if p <= 0.0 then false else float t < p

let pp fmt t = Format.fprintf fmt "xoshiro256**{%Lx;%Lx;%Lx;%Lx}" (get t 0) (get t 8) (get t 16) (get t 24)
