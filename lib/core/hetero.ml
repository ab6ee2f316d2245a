module Pieceset = P2p_pieceset.Pieceset

type klass = {
  label : string;
  mu : float;
  gamma : float;
  arrivals : (Pieceset.t * float) list;
}

type t = { k : int; us : float; classes : klass array }

(* The classes as a Sim_agent class table, in order. *)
let agent_classes classes =
  Array.map
    (fun c ->
      { Sim_agent.mu = c.mu; gamma = c.gamma; arrivals = Array.of_list c.arrivals })
    classes

let make ~k ~us ~classes =
  if k < 1 || k > Pieceset.max_pieces then invalid_arg "Hetero.make: k out of range";
  if not (us >= 0.0 && Float.is_finite us) then invalid_arg "Hetero.make: us must be finite >= 0";
  if classes = [] then invalid_arg "Hetero.make: need at least one class";
  let classes = Array.of_list classes in
  Sim_agent.check_classes ~who:"Hetero.make" ~k (agent_classes classes);
  { k; us; classes }

let of_params (p : Params.t) =
  make ~k:p.k ~us:p.us
    ~classes:
      [
        {
          label = "all";
          mu = p.mu;
          gamma = p.gamma;
          arrivals = Array.to_list p.arrivals;
        };
      ]

let lambda_total t =
  Array.fold_left
    (fun acc c -> List.fold_left (fun acc (_, r) -> acc +. r) acc c.arrivals)
    0.0 t.classes

let rho_of (c : klass) = if Float.is_finite c.gamma then c.mu /. c.gamma else 0.0

(* Arrival rate of class-c peers missing [piece]. *)
let class_rate_missing (c : klass) ~piece =
  List.fold_left
    (fun acc (set, r) -> if Pieceset.mem piece set then acc else acc +. r)
    0.0 c.arrivals

let mean_seed_offspring t ~piece =
  (* class mix of the one-club = arrival mix of peers missing the piece *)
  let total = ref 0.0 and weighted = ref 0.0 in
  Array.iter
    (fun c ->
      let rate = class_rate_missing c ~piece in
      total := !total +. rate;
      weighted := !weighted +. (rate *. rho_of c))
    t.classes;
  if !total <= 0.0 then 0.0 else !weighted /. !total

let threshold t ~piece =
  let m_bar = mean_seed_offspring t ~piece in
  if m_bar >= 1.0 then infinity
  else begin
    (* gifted contributions: class-c arrivals holding the piece inject
       K - |C| + mu_c/gamma_c uploads of it over their stay *)
    let gifted =
      Array.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc (set, r) ->
              if Pieceset.mem piece set then
                acc +. (r *. (float_of_int (t.k - Pieceset.cardinal set) +. rho_of c))
              else acc)
            acc c.arrivals)
        0.0 t.classes
    in
    let gifted_arrival_rate =
      Array.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc (set, r) -> if Pieceset.mem piece set then acc +. r else acc)
            acc c.arrivals)
        0.0 t.classes
    in
    ((t.us +. gifted) /. (1.0 -. m_bar)) +. gifted_arrival_rate
  end

let classify_heuristic ?(tolerance = 1e-9) t =
  (* mirror Theorem 1's structure: supercritical seed branching for every
     piece that can enter => stable; otherwise compare to the minimum
     threshold. *)
  let lambda = lambda_total t in
  let piece_enters piece =
    t.us > 0.0
    || Array.exists
         (fun c -> List.exists (fun (set, r) -> r > 0.0 && Pieceset.mem piece set) c.arrivals)
         t.classes
  in
  let blocked = ref false in
  let worst = ref infinity in
  for piece = 0 to t.k - 1 do
    if not (piece_enters piece) then blocked := true
    else worst := Float.min !worst (threshold t ~piece)
  done;
  if !blocked then Stability.Transient
  else if lambda > !worst *. (1.0 +. tolerance) then Stability.Transient
  else if lambda < !worst *. (1.0 -. tolerance) then Stability.Positive_recurrent
  else Stability.Borderline

(* The class table supplies every rate and stream of the agent run, so
   [params] holds K, U_s, the pooled streams and placeholder rates:
   [make]'s checks leave [Params.make] nothing to reject. *)
let agent_config t =
  let params =
    Params.make ~k:t.k ~us:t.us ~mu:1.0 ~gamma:1.0
      ~arrivals:(List.concat_map (fun c -> c.arrivals) (Array.to_list t.classes))
  in
  { (Sim_agent.default_config params) with classes = agent_classes t.classes }
