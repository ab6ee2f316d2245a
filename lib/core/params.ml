module Pieceset = P2p_pieceset.Pieceset

type t = {
  k : int;
  us : float;
  mu : float;
  gamma : float;
  arrivals : (Pieceset.t * float) array;
}

let make ~k ~us ~mu ~gamma ~arrivals =
  if k < 1 || k > Pieceset.max_pieces then
    invalid_arg
      (Printf.sprintf "Params.make: k must be in [1, %d], got %d" Pieceset.max_pieces k);
  if us < 0.0 || not (Float.is_finite us) then
    invalid_arg (Printf.sprintf "Params.make: us must be finite >= 0, got %g" us);
  if mu <= 0.0 || not (Float.is_finite mu) then
    invalid_arg (Printf.sprintf "Params.make: mu must be finite > 0, got %g" mu);
  if not (gamma > 0.0) then
    invalid_arg (Printf.sprintf "Params.make: gamma must be positive (or infinity), got %g" gamma);
  let full = Pieceset.full ~k in
  (* Deduplicate: sum rates per type, drop zero entries. *)
  let table = Hashtbl.create 16 in
  List.iter
    (fun (c, rate) ->
      if not (Pieceset.subset c full) then
        invalid_arg
          (Printf.sprintf "Params.make: arrival type %s has pieces beyond K=%d"
             (Pieceset.to_string c) k);
      if rate < 0.0 || not (Float.is_finite rate) then
        invalid_arg
          (Printf.sprintf "Params.make: arrival rates must be finite >= 0, got %g for type %s"
             rate (Pieceset.to_string c));
      let prev = Option.value (Hashtbl.find_opt table c) ~default:0.0 in
      Hashtbl.replace table c (prev +. rate))
    arrivals;
  let entries =
    Hashtbl.fold (fun c rate acc -> if rate > 0.0 then (c, rate) :: acc else acc) table []
  in
  let entries =
    List.sort (fun (a, _) (b, _) -> Pieceset.compare a b) entries |> Array.of_list
  in
  let total = Array.fold_left (fun acc (_, r) -> acc +. r) 0.0 entries in
  if total <= 0.0 then invalid_arg "Params.make: total arrival rate must be positive";
  if (not (Float.is_finite gamma)) && Array.exists (fun (c, _) -> Pieceset.equal c full) entries
  then invalid_arg "Params.make: gamma = infinity requires lambda_F = 0";
  { k; us; mu; gamma; arrivals = entries }

let immediate_departure t = not (Float.is_finite t.gamma)
let mu_over_gamma t = if immediate_departure t then 0.0 else t.mu /. t.gamma
let lambda_total t = Array.fold_left (fun acc (_, r) -> acc +. r) 0.0 t.arrivals

let lambda t c =
  let found = ref 0.0 in
  Array.iter (fun (c', r) -> if Pieceset.equal c c' then found := r) t.arrivals;
  !found

let lambda_containing t ~piece =
  Array.fold_left
    (fun acc (c, r) -> if Pieceset.mem piece c then acc +. r else acc)
    0.0 t.arrivals

let lambda_within t s =
  Array.fold_left
    (fun acc (c, r) -> if Pieceset.subset c s then acc +. r else acc)
    0.0 t.arrivals

let full_set t = Pieceset.full ~k:t.k

let piece_can_enter t ~piece = t.us > 0.0 || lambda_containing t ~piece > 0.0

let with_gamma t ~gamma =
  make ~k:t.k ~us:t.us ~mu:t.mu ~gamma ~arrivals:(Array.to_list t.arrivals)

let with_us t ~us = make ~k:t.k ~us ~mu:t.mu ~gamma:t.gamma ~arrivals:(Array.to_list t.arrivals)
let with_arrivals t ~arrivals = make ~k:t.k ~us:t.us ~mu:t.mu ~gamma:t.gamma ~arrivals

let pp fmt t =
  Format.fprintf fmt "@[<v>K=%d U_s=%g mu=%g gamma=%s@,arrivals:" t.k t.us t.mu
    (if immediate_departure t then "inf" else Printf.sprintf "%g" t.gamma);
  Array.iter (fun (c, r) -> Format.fprintf fmt "@,  lambda_%a = %g" Pieceset.pp c r) t.arrivals;
  Format.fprintf fmt "@]"
