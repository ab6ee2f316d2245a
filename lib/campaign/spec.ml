module Json = P2p_obs.Json
module Pieceset = P2p_pieceset.Pieceset
open P2p_core

type range = { lo : float; hi : float; steps : int }

type mode =
  | Grid of { lambda : range; us : range }
  | Refine of { lambda : float * float; us : float * float; initial : int; rounds : int }

type t = {
  name : string;
  hypothesis : string;
  k : int;
  mu : float;
  gamma : float;
  horizon : float;
  reps : int;
  master_seed : int;
  policy : string;
  backend : string;
  q : int;
  faults : Faults.t;
  mode : mode;
}

let schema = "p2p-campaign-spec"
let version = 1

let policy_fun t =
  match t.policy with
  | "random" -> Policy.random_useful
  | "rarest" -> Policy.rarest_first
  | "common" -> Policy.most_common_first
  | "sequential" -> Policy.sequential
  | p -> invalid_arg (Printf.sprintf "Campaign.Spec: unknown policy %S" p)

let gamma_json g = if Float.is_finite g then Json.Float g else Json.String "inf"

let range_json { lo; hi; steps } =
  Json.Obj [ ("lo", Json.Float lo); ("hi", Json.Float hi); ("steps", Json.Int steps) ]

let mode_json = function
  | Grid { lambda; us } ->
      Json.Obj
        [ ("type", Json.String "grid"); ("lambda", range_json lambda); ("us", range_json us) ]
  | Refine { lambda = llo, lhi; us = ulo, uhi; initial; rounds } ->
      Json.Obj
        [
          ("type", Json.String "refine");
          ("lambda", Json.Obj [ ("lo", Json.Float llo); ("hi", Json.Float lhi) ]);
          ("us", Json.Obj [ ("lo", Json.Float ulo); ("hi", Json.Float uhi) ]);
          ("initial", Json.Int initial);
          ("rounds", Json.Int rounds);
        ]

let faults_json (f : Faults.t) =
  let fields = [] in
  let fields =
    if f.loss_prob > 0.0 then ("loss_prob", Json.Float f.loss_prob) :: fields else fields
  in
  let fields =
    if f.abort_rate > 0.0 then ("abort_rate", Json.Float f.abort_rate) :: fields else fields
  in
  match f.outage with
  | Some o ->
      ("seed_outage", Json.List [ Json.Float o.mean_up; Json.Float o.mean_down ]) :: fields
  | None -> fields

let to_json t =
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("version", Json.Int version);
       ("name", Json.String t.name);
       ("hypothesis", Json.String t.hypothesis);
       ("k", Json.Int t.k);
       ("mu", Json.Float t.mu);
       ("gamma", gamma_json t.gamma);
       ("horizon", Json.Float t.horizon);
       ("reps", Json.Int t.reps);
       ("master_seed", Json.Int t.master_seed);
       ("policy", Json.String t.policy);
     ]
    (* The backend fields are emitted only off the default so every
       pre-existing markov spec keeps its canonical encoding — and
       therefore its hash, store and resume directory. *)
    @ (if t.backend = "markov" then []
       else [ ("backend", Json.String t.backend); ("q", Json.Int t.q) ])
    @ faults_json t.faults
    @ [ ("mode", mode_json t.mode) ])

let hash t = Digest.to_hex (Digest.string (Json.to_string (to_json t)))

(* ---- parsing ---- *)

let ( let* ) = Result.bind

let get name json = Json.member name json

let int_field ?default name json =
  match get name json with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S is not an integer" name)
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))

let float_field ?default name json =
  match get name json with
  | Some v -> (
      match Json.to_float_opt v with
      | Some f when Float.is_finite f -> Ok f
      | _ -> Error (Printf.sprintf "field %S is not a finite number" name))
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))

let string_field ?default name json =
  match get name json with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S is not a string" name)
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))

let gamma_field json =
  match get "gamma" json with
  | Some (Json.String ("inf" | "infinity")) -> Ok infinity
  | Some v -> (
      match Json.to_float_opt v with
      | Some f when Float.is_finite f -> Ok f
      | _ -> Error "field \"gamma\" is not a finite number or \"inf\"")
  | None -> Error "missing field \"gamma\""

let range_field name json =
  match get name json with
  | None -> Error (Printf.sprintf "missing range %S" name)
  | Some r ->
      let* lo = float_field "lo" r in
      let* hi = float_field "hi" r in
      let* steps = int_field "steps" r in
      if steps < 1 then Error (Printf.sprintf "range %S: steps < 1" name)
      else if steps > 1 && not (hi > lo) then
        Error (Printf.sprintf "range %S: hi must exceed lo" name)
      else Ok { lo; hi; steps }

let bounds_field name json =
  match get name json with
  | None -> Error (Printf.sprintf "missing range %S" name)
  | Some r ->
      let* lo = float_field "lo" r in
      let* hi = float_field "hi" r in
      if not (hi > lo) then Error (Printf.sprintf "range %S: hi must exceed lo" name)
      else Ok (lo, hi)

let mode_field json =
  match get "mode" json with
  | None -> Error "missing field \"mode\""
  | Some m -> (
      let* kind = string_field "type" m in
      match kind with
      | "grid" ->
          let* lambda = range_field "lambda" m in
          let* us = range_field "us" m in
          Ok (Grid { lambda; us })
      | "refine" ->
          let* lambda = bounds_field "lambda" m in
          let* us = bounds_field "us" m in
          let* initial = int_field "initial" m in
          let* rounds = int_field "rounds" m in
          if initial < 2 then Error "refine: initial < 2"
          else if rounds < 0 || rounds > 16 then Error "refine: rounds outside [0, 16]"
          else Ok (Refine { lambda; us; initial; rounds })
      | k -> Error (Printf.sprintf "unknown mode type %S (expected grid or refine)" k))

let faults_field json =
  let* outage =
    match get "seed_outage" json with
    | None -> Ok None
    | Some (Json.List [ up; down ]) -> (
        match (Json.to_float_opt up, Json.to_float_opt down) with
        | Some u, Some d -> Ok (Some (u, d))
        | _ -> Error "field \"seed_outage\" is not [mean_up, mean_down]")
    | Some _ -> Error "field \"seed_outage\" is not [mean_up, mean_down]"
  in
  let* abort_rate = float_field ~default:0.0 "abort_rate" json in
  let* loss_prob = float_field ~default:0.0 "loss_prob" json in
  match Faults.make ?outage ~abort_rate ~loss_prob () with
  | f -> Ok f
  | exception Invalid_argument m -> Error m

let of_json json =
  let* s = string_field "schema" json in
  if s <> schema then Error (Printf.sprintf "not a %s document (schema %S)" schema s)
  else
    let* v = int_field "version" json in
    if v <> version then Error (Printf.sprintf "unsupported spec version %d" v)
    else
      let* name = string_field "name" json in
      let* hypothesis = string_field ~default:"" "hypothesis" json in
      let* k = int_field "k" json in
      let* mu = float_field "mu" json in
      let* gamma = gamma_field json in
      let* horizon = float_field "horizon" json in
      let* reps = int_field ~default:1 "reps" json in
      let* master_seed = int_field ~default:1 "master_seed" json in
      let* policy = string_field ~default:"random" "policy" json in
      let* backend = string_field ~default:"markov" "backend" json in
      let* q = int_field ~default:16 "q" json in
      let* shards = int_field ~default:1 "shards" json in
      let* faults = faults_field json in
      let* mode = mode_field json in
      if name = "" then Error "empty campaign name"
      else if reps < 1 then Error "reps < 1"
      else if horizon <= 0.0 then Error "horizon <= 0"
      else if
        not (List.mem policy [ "random"; "rarest"; "common"; "sequential" ])
      then Error (Printf.sprintf "unknown policy %S" policy)
      else if not (List.mem backend [ "markov"; "coded" ]) then
        Error (Printf.sprintf "unknown backend %S (expected markov or coded)" backend)
      else if shards <> 1 then
        (* Sharded markov cells were removed.  Refusing the field keeps
           an old sharded campaign from resuming as unsharded cells. *)
        Error
          (Printf.sprintf "field \"shards\" = %d is no longer supported (cells run unsharded)"
             shards)
      else begin
        (* Probe the parameter constructor at a representative cell so a
           bad spec fails at load time, not at cell 4000. *)
        let t =
          {
            name; hypothesis; k; mu; gamma; horizon; reps; master_seed; policy; backend; q;
            faults; mode;
          }
        in
        match
          if backend = "coded" then ignore (P2p_gf.Field.gf q)
          else
            ignore (Params.make ~k ~us:1.0 ~mu ~gamma ~arrivals:[ (Pieceset.empty, 1.0) ])
        with
        | () -> Ok t
        | exception Invalid_argument m -> Error m
      end

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | content -> (
      match Json.of_string (String.trim content) with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok json -> of_json json)

(* ---- cells ---- *)

type cell = { index : int; round : int; ix : int; iy : int; lambda : float; us : float }

(* The finest lattice: grid points live at stride [2^rounds] so every
   refinement midpoint is an integer coordinate. *)
let lattice_extent t =
  match t.mode with
  | Grid { lambda; us } -> (Int.max 1 (lambda.steps - 1), Int.max 1 (us.steps - 1))
  | Refine { initial; rounds; _ } ->
      let e = (initial - 1) lsl rounds in
      (e, e)

let axis_value ~lo ~hi ~extent i =
  if extent = 0 then lo else lo +. ((hi -. lo) *. float_of_int i /. float_of_int extent)

let cell_value t ~ix ~iy =
  let nx, ny = lattice_extent t in
  match t.mode with
  | Grid { lambda; us } ->
      ( axis_value ~lo:lambda.lo ~hi:lambda.hi ~extent:(if lambda.steps = 1 then 0 else nx) ix,
        axis_value ~lo:us.lo ~hi:us.hi ~extent:(if us.steps = 1 then 0 else ny) iy )
  | Refine { lambda = llo, lhi; us = ulo, uhi; _ } ->
      (axis_value ~lo:llo ~hi:lhi ~extent:nx ix, axis_value ~lo:ulo ~hi:uhi ~extent:ny iy)

let make_cell t ~index ~round ~ix ~iy =
  let lambda, us = cell_value t ~ix ~iy in
  { index; round; ix; iy; lambda; us }

let round0_cells t =
  match t.mode with
  | Grid { lambda; us } ->
      let cells = ref [] in
      let index = ref 0 in
      for i = 0 to lambda.steps - 1 do
        for j = 0 to us.steps - 1 do
          cells :=
            make_cell t ~index:!index ~round:0 ~ix:(if lambda.steps = 1 then 0 else i)
              ~iy:(if us.steps = 1 then 0 else j)
            :: !cells;
          incr index
        done
      done;
      List.rev !cells
  | Refine { initial; rounds; _ } ->
      let stride = 1 lsl rounds in
      let cells = ref [] in
      let index = ref 0 in
      for i = 0 to initial - 1 do
        for j = 0 to initial - 1 do
          cells := make_cell t ~index:!index ~round:0 ~ix:(i * stride) ~iy:(j * stride) :: !cells;
          incr index
        done
      done;
      List.rev !cells

let total_rounds t = match t.mode with Grid _ -> 0 | Refine { rounds; _ } -> rounds

let grid_total t =
  match t.mode with Grid { lambda; us } -> Some (lambda.steps * us.steps) | Refine _ -> None

(* Bisect every lattice edge of the previous round whose endpoints hold
   opposite definite verdicts.  Candidates are emitted sorted by (ix, iy)
   and deduplicated, so the sequence of cells — and hence the store — is
   a pure function of the recorded verdicts. *)
let next_round_cells t ~round ~verdicts ~next_index =
  match t.mode with
  | Grid _ -> []
  | Refine { rounds; _ } ->
      if round < 1 || round > rounds then []
      else begin
        let tbl = Hashtbl.create (List.length verdicts) in
        List.iter (fun (coord, v) -> Hashtbl.replace tbl coord v) verdicts;
        let stride = 1 lsl (rounds - round + 1) in
        let half = stride / 2 in
        let nx, ny = lattice_extent t in
        let disagree a b =
          match (Hashtbl.find_opt tbl a, Hashtbl.find_opt tbl b) with
          | Some "stable", Some "unstable" | Some "unstable", Some "stable" -> true
          | _ -> false
        in
        let candidates = ref [] in
        (* Walk the previous-round lattice (all points with coordinates
           divisible by [half] were candidates in earlier rounds; edges
           live between points at the previous stride). *)
        let ix = ref 0 in
        while !ix <= nx do
          let iy = ref 0 in
          while !iy <= ny do
            let x = !ix and y = !iy in
            if x + stride <= nx && disagree (x, y) (x + stride, y) then
              candidates := (x + half, y) :: !candidates;
            if y + stride <= ny && disagree (x, y) (x, y + stride) then
              candidates := (x, y + half) :: !candidates;
            iy := !iy + half
          done;
          ix := !ix + half
        done;
        let sorted = List.sort_uniq compare !candidates in
        let fresh = List.filter (fun c -> not (Hashtbl.mem tbl c)) sorted in
        List.mapi
          (fun i (ix, iy) -> make_cell t ~index:(next_index + i) ~round ~ix ~iy)
          fresh
      end

let cell_params t ~lambda ~us =
  Params.make ~k:t.k ~us ~mu:t.mu ~gamma:t.gamma ~arrivals:[ (Pieceset.empty, lambda) ]
