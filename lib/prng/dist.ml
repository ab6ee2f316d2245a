let[@inline] exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  -.log (Rng.float_pos rng) /. rate

let uniform rng ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  lo +. ((hi -. lo) *. Rng.float rng)

let geometric rng ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Dist.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    (* Inversion: floor(log U / log(1-p)).  For tiny [p] the ratio can
       exceed the integer range (log1p(-p) ~ -p, so the quotient grows
       like |log U| / p); [int_of_float] on such a float is unspecified
       and came back as a garbage negative.  Clamp to [max_int] instead:
       the quantile is astronomically far in the tail either way.
       log1p, not log (1 - p): below p ~ 1e-16 the subtraction rounds to
       1.0 and the denominator collapses to 0, sending the ratio to -inf
       underneath the clamp. *)
    let u = Rng.float_pos rng in
    let x = floor (log u /. Float.log1p (-.p)) in
    if x >= float_of_int max_int then max_int else int_of_float x

let negative_binomial rng ~failures ~p =
  if failures < 0 then invalid_arg "Dist.negative_binomial: failures < 0";
  let successes = ref 0 in
  let remaining = ref failures in
  while !remaining > 0 do
    if Rng.bernoulli rng ~p then incr successes else decr remaining
  done;
  !successes

let poisson_small rng mean =
  (* Knuth inversion: multiply uniforms until the product drops below
     exp(-mean).  O(mean) expected draws; fine for mean <= 30. *)
  let limit = exp (-.mean) in
  let rec count k prod =
    let prod = prod *. Rng.float_pos rng in
    if prod <= limit then k else count (k + 1) prod
  in
  count 0 1.0

let rec log_factorial n =
  (* Stirling with correction terms for n >= 10, exact below. *)
  if n < 2 then 0.0
  else if n < 10 then log (float_of_int n) +. log_factorial (n - 1)
  else
    let x = float_of_int (n + 1) in
    ((x -. 0.5) *. log x) -. x
    +. (0.5 *. log (2.0 *. Float.pi))
    +. (1.0 /. (12.0 *. x))
    -. (1.0 /. (360.0 *. x *. x *. x))

let poisson_large rng mean =
  (* Atkinson's rejection method via the logistic envelope. *)
  let beta = Float.pi /. sqrt (3.0 *. mean) in
  let alpha = beta *. mean in
  let k = log mean -. mean -. log beta in
  let rec draw () =
    let u = Rng.float_pos rng in
    let x = (alpha -. log ((1.0 -. u) /. u)) /. beta in
    let n = int_of_float (floor (x +. 0.5)) in
    if n < 0 then draw ()
    else
      let v = Rng.float_pos rng in
      let y = alpha -. (beta *. x) in
      let lhs = y +. log (v /. ((1.0 +. exp y) ** 2.0)) in
      let rhs = k +. (float_of_int n *. log mean) -. log_factorial n in
      if lhs <= rhs then n else draw ()
  in
  draw ()

let poisson rng ~mean =
  if mean < 0.0 then invalid_arg "Dist.poisson: negative mean";
  if mean = 0.0 then 0
  else if mean < 30.0 then poisson_small rng mean
  else poisson_large rng mean

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Dist.binomial: n < 0";
  if p <= 0.0 then 0
  else if p >= 1.0 then n
  else if n <= 64 then begin
    (* Direct Bernoulli counting for small n. *)
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.bernoulli rng ~p then incr count
    done;
    !count
  end
  else begin
    (* Waiting-time method: count geometric gaps. Expected cost O(np). *)
    let q = log (1.0 -. p) in
    let count = ref 0 and remaining = ref n in
    let continue = ref true in
    while !continue do
      let gap = int_of_float (floor (log (Rng.float_pos rng) /. q)) + 1 in
      if gap > !remaining then continue := false
      else begin
        remaining := !remaining - gap;
        incr count
      end
    done;
    !count
  end

let categorical rng ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 || not (Float.is_finite total) then
    invalid_arg "Dist.categorical: weights must be nonnegative with positive finite sum";
  let target = Rng.float rng *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

(* Walker's alias method: O(n) preprocessing, O(1) per sample.  Sampling
   draws one uniform index and (only when the chosen column is split
   between two outcomes) one uniform float — against the O(n) linear scan
   of [categorical] per draw.  Used for the arrival-type distribution of
   the simulators, which is fixed for a whole run. *)
module Alias = struct
  type t = { prob : float array; alias : int array }

  let size t = Array.length t.prob

  let make weights =
    let n = Array.length weights in
    let total = Array.fold_left ( +. ) 0.0 weights in
    if n = 0 || total <= 0.0 || not (Float.is_finite total) then
      invalid_arg "Dist.Alias.make: weights must be nonnegative with positive finite sum";
    Array.iter
      (fun w -> if w < 0.0 || not (Float.is_finite w) then
          invalid_arg "Dist.Alias.make: weights must be nonnegative with positive finite sum")
      weights;
    (* Scale to mean 1, then repeatedly pair an under-full column with an
       over-full one (Vose's stable formulation). *)
    let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
    let prob = Array.make n 1.0 in
    let alias = Array.init n (fun i -> i) in
    let small = Array.make n 0 and large = Array.make n 0 in
    let ns = ref 0 and nl = ref 0 in
    Array.iteri
      (fun i w ->
        if w < 1.0 then begin small.(!ns) <- i; incr ns end
        else begin large.(!nl) <- i; incr nl end)
      scaled;
    while !ns > 0 && !nl > 0 do
      decr ns;
      let s = small.(!ns) in
      let l = large.(!nl - 1) in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
      if scaled.(l) < 1.0 then begin
        decr nl;
        small.(!ns) <- l;
        incr ns
      end
    done;
    (* Residual columns (rounding) keep prob = 1 and alias = self. *)
    { prob; alias }

  let sample rng t =
    let n = Array.length t.prob in
    let j = if n = 1 then 0 else Rng.int_below rng n in
    let p = Array.unsafe_get t.prob j in
    (* A whole column needs no tie-break draw; in particular a one-point
       or uniform distribution consumes either zero or one draw total. *)
    if p >= 1.0 then j
    else if Rng.float rng < p then j
    else Array.unsafe_get t.alias j
end

let discrete_cdf cumul ~total ~u =
  let target = u *. total in
  let n = Array.length cumul in
  (* First index with cumul.(i) > target. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cumul.(mid) > target then hi := mid else lo := mid + 1
  done;
  !lo

let shuffle_in_place rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int_below rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement rng ~k ~n =
  if k > n then invalid_arg "Dist.sample_without_replacement: k > n";
  if k < 0 then invalid_arg "Dist.sample_without_replacement: k < 0";
  (* Partial Fisher-Yates over a lazily materialised index array when k is
     a sizeable fraction of n; reservoir of a hash set otherwise. *)
  if k * 3 >= n then begin
    let arr = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = Rng.int_in_range rng ~lo:i ~hi:(n - 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.sub arr 0 k
  end
  else begin
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let cand = Rng.int_below rng n in
      if not (Hashtbl.mem seen cand) then begin
        Hashtbl.add seen cand ();
        out.(!filled) <- cand;
        incr filled
      end
    done;
    out
  end

let rec standard_normal rng =
  let u = (2.0 *. Rng.float rng) -. 1.0 in
  let v = (2.0 *. Rng.float rng) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then standard_normal rng
  else u *. sqrt (-2.0 *. log s /. s)
