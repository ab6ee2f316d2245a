(* The fluid (mean-field) limit. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let stable = Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu:1.0 ~gamma:1.5
let transient = Scenario.flash_crowd ~k:3 ~lambda:1.0 ~us:0.1 ~mu:1.0 ~gamma:infinity

let test_of_state () =
  let s = State.of_counts [ (PS.empty, 2); (PS.singleton 1, 3) ] in
  let x = Fluid.of_state ~k:3 s in
  Alcotest.(check int) "dense size" 8 (Array.length x);
  Alcotest.(check (float 1e-12)) "empty slot" 2.0 x.(0);
  Alcotest.(check (float 1e-12)) "{2} slot" 3.0 x.(PS.to_index (PS.singleton 1));
  Alcotest.(check (float 1e-12)) "total" 5.0 (Fluid.total x)

let test_derivative_mass_balance () =
  (* d(total)/dt = lambda_total - gamma x_F (finite gamma, no one at full
     collection departs otherwise). *)
  let x = Fluid.of_state ~k:3 (State.of_counts [ (PS.empty, 5); (PS.full ~k:3, 2) ]) in
  let dx = Fluid.derivative stable x in
  let total_rate = Array.fold_left ( +. ) 0.0 dx in
  Alcotest.(check (float 1e-9)) "mass balance" (3.0 -. (1.5 *. 2.0)) total_rate

let test_derivative_mass_balance_gamma_inf () =
  (* gamma = inf: mass leaves through completions; with nobody one piece
     away, total derivative = lambda exactly. *)
  let x = Fluid.of_state ~k:3 (State.of_counts [ (PS.empty, 5) ]) in
  let dx = Fluid.derivative transient x in
  let total_rate = Array.fold_left ( +. ) 0.0 dx in
  Alcotest.(check (float 1e-9)) "only arrivals" 1.0 total_rate

let test_derivative_matches_generator_drift () =
  (* The fluid RHS is the exact mean drift of the jump process: compare
     against Lyapunov.drift of the per-type count functions. *)
  let s =
    State.of_counts [ (PS.empty, 4); (PS.singleton 0, 3); (PS.of_list [ 0; 1 ], 2) ]
  in
  let x = Fluid.of_state ~k:3 s in
  let dx = Fluid.derivative stable x in
  List.iter
    (fun c ->
      let f st = float_of_int (State.count st (PS.of_index c)) in
      let expected = Lyapunov.drift stable ~f s in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "type %d drift" c)
        expected dx.(c))
    (List.init 8 (fun i -> i))

let test_integrate_records () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  let traj = Fluid.integrate stable ~init ~dt:0.1 ~horizon:10.0 ~record_every:10 in
  Alcotest.(check bool) "records include end" true
    (Array.length traj.times >= 10);
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 traj.times.(0);
  Alcotest.(check bool) "population grows from empty" true
    (traj.totals.(Array.length traj.totals - 1) > 0.0)

let test_equilibrium_stable () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  match Fluid.equilibrium stable ~init with
  | None -> Alcotest.fail "expected equilibrium"
  | Some eq ->
      let dx = Fluid.derivative stable eq in
      let norm = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 dx in
      Alcotest.(check bool) "derivative tiny" true (norm < 1e-4);
      Alcotest.(check bool) "finite population" true
        (Fluid.total eq > 1.0 && Fluid.total eq < 100.0)

let test_transient_no_equilibrium () =
  (* Start from a heavy one-club; the transient fluid grows forever. *)
  let club = PS.of_list [ 1; 2 ] in
  let init = Fluid.of_state ~k:3 (State.of_counts [ (club, 100) ]) in
  match Fluid.equilibrium ~horizon:300.0 transient ~init with
  | None -> ()
  | Some eq ->
      Alcotest.failf "unexpected equilibrium with n = %.1f" (Fluid.total eq)

let test_transient_linear_growth () =
  let club = PS.of_list [ 1; 2 ] in
  let init = Fluid.of_state ~k:3 (State.of_counts [ (club, 100) ]) in
  let traj = Fluid.integrate transient ~init ~dt:0.02 ~horizon:200.0 ~record_every:100 in
  let n = Array.length traj.times in
  let pts = Array.init (n / 2) (fun i -> (traj.times.(i + (n / 2)), traj.totals.(i + (n / 2)))) in
  let fit = P2p_stats.Regression.fit pts in
  (* Delta = lambda - threshold = 1 - 0.1 = 0.9 *)
  Alcotest.(check bool)
    (Printf.sprintf "fluid slope %.3f near Delta 0.9" fit.slope)
    true
    (Float.abs (fit.slope -. 0.9) < 0.1)

let test_nonnegativity_preserved () =
  let init = Fluid.of_state ~k:3 (State.of_counts [ (PS.empty, 50) ]) in
  let traj = Fluid.integrate stable ~init ~dt:0.05 ~horizon:50.0 ~record_every:20 in
  Array.iter
    (Array.iter (fun v -> Alcotest.(check bool) "nonnegative" true (v >= 0.0)))
    traj.states

(* The adaptive stepper must land on the same equilibria the fixed-step
   RK4 integrator found.  Values pinned from the pre-RK45 implementation
   (dt = 0.01, tol = 1e-6); agreement within 1e-3 absolute per
   component is well inside both integrators' error. *)
let test_equilibrium_matches_rk4_pinned () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  match Fluid.equilibrium stable ~init with
  | None -> Alcotest.fail "expected equilibrium"
  | Some eq ->
      let pinned =
        [|
          0.0; 1.12388078582; 1.12388078582; 1.60816963592;
          1.12388078582; 1.60816963592; 1.60816963592; 1.99999972634;
        |]
      in
      Alcotest.(check (float 1e-3)) "total" 10.1961509916 (Fluid.total eq);
      Array.iteri
        (fun i v -> Alcotest.(check (float 1e-3)) (Printf.sprintf "x[%d]" i) v eq.(i))
        pinned

let test_two_chunk_equilibrium_pinned () =
  (* K = 2, lambda = us = mu = 1, gamma = inf: the Norros–Reittu–Eirola
     closed form gives x_0 = 1, x_1 = x_2 = 1/sqrt 2, total 1 + sqrt 2.
     Pinned against the old RK4 run of the same scenario. *)
  let p = Scenario.flash_crowd ~k:2 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:infinity in
  let init = Fluid.of_state ~k:2 (State.create ()) in
  match Fluid.equilibrium p ~init with
  | None -> Alcotest.fail "expected equilibrium"
  | Some eq ->
      Alcotest.(check (float 1e-3)) "total 1 + sqrt 2" 2.41421277951 (Fluid.total eq);
      Alcotest.(check (float 1e-3)) "x_empty" 1.0 eq.(0);
      Alcotest.(check (float 1e-3)) "x_{1}" (1.0 /. Float.sqrt 2.0) eq.(1);
      Alcotest.(check (float 1e-3)) "x_{2}" (1.0 /. Float.sqrt 2.0) eq.(2)

let test_grid_times_exact () =
  (* Recorded times are exact multiples of dt * record_every (computed as
     float-of-int multiples, not accumulated sums), ending at the horizon. *)
  let init = Fluid.of_state ~k:3 (State.create ()) in
  let traj = Fluid.integrate stable ~init ~dt:0.1 ~horizon:10.0 ~record_every:10 in
  let n = Array.length traj.times in
  Alcotest.(check int) "11 grid points + horizon dedup" 11 n;
  Array.iteri
    (fun i t -> Alcotest.(check (float 0.0)) (Printf.sprintf "grid %d" i) (float_of_int i *. 1.0) t)
    traj.times

(* The per-(type, piece) flow sum the RHS computed before its one-pass
   kernel: every missing piece of every occupied type rescans all 2^K
   types.  Test-only oracle: [drift_into] must match it bit for bit. *)
let reference_drift (p : Params.t) ~us_scale ~abort_rate ~loss_factor x dx =
  let d = Fluid.dim p and full = (1 lsl p.k) - 1 and imm = Params.immediate_departure p in
  let aug = Array.length dx >= d + Fluid.aug_slots in
  let add_aug slot v = if aug then dx.(d + slot) <- dx.(d + slot) +. v in
  Array.fill dx 0 (Array.length dx) 0.0;
  let pop = ref 0.0 in
  for i = 0 to d - 1 do pop := !pop +. x.(i) done;
  let n = Float.max !pop 1e-9 in
  Array.iter (fun (c, rate) -> dx.(PS.to_index c) <- dx.(PS.to_index c) +. rate) p.arrivals;
  if aug then dx.(d + Fluid.aug_arrivals) <- Params.lambda_total p;
  for c = 0 to d - 1 do
    if c <> full && x.(c) > 0.0 then
      PS.iter
        (fun piece ->
          let peer = ref 0.0 in
          for s = 0 to d - 1 do
            if x.(s) > 0.0 && PS.mem piece (PS.of_index s) then
              let extra = PS.cardinal (PS.diff (PS.of_index s) (PS.of_index c)) in
              peer := !peer +. (x.(s) /. float_of_int extra)
          done;
          let seed = us_scale *. p.us /. float_of_int (PS.missing_count ~k:p.k (PS.of_index c)) in
          let raw = x.(c) /. n *. (seed +. (p.mu *. !peer)) in
          if raw > 0.0 then begin
            let eff = raw *. loss_factor and target = c lor (1 lsl piece) in
            dx.(c) <- dx.(c) -. eff;
            if not (target = full && imm) then dx.(target) <- dx.(target) +. eff;
            add_aug Fluid.aug_transfers eff;
            add_aug Fluid.aug_lost (raw -. eff);
            if target = full then add_aug Fluid.aug_completions eff;
            if target = full && imm then add_aug Fluid.aug_departures eff
          end)
        (PS.complement ~k:p.k (PS.of_index c))
  done;
  if abort_rate > 0.0 then
    for c = 0 to d - 1 do
      if c <> full && x.(c) > 0.0 then begin
        let r = abort_rate *. x.(c) in
        dx.(c) <- dx.(c) -. r;
        add_aug Fluid.aug_departures r;
        add_aug Fluid.aug_aborted r
      end
    done;
  if not imm then begin
    let r = p.gamma *. x.(full) in
    dx.(full) <- dx.(full) -. r;
    add_aug Fluid.aug_departures r
  end;
  if aug then dx.(d + Fluid.aug_pop_integral) <- !pop

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* 1200 seeded random cases: K = 2..8; sparse (masses from 1e-12 up, so
   below the population floor too), dense, all-empty and only-seeds
   states; seed outage, churn, upload loss and γ = ∞; bare and
   augmented outputs; state vectors with and without a garbage tail.
   Each staged drift evaluates a dense state and then the case's own,
   so stale scratch from the first call cannot leak into the second. *)
let test_drift_bit_identical_to_reference () =
  let rng = P2p_prng.Rng.of_seed 2024 in
  let unif () = P2p_prng.Rng.float rng in
  let draw_state ~kind d =
    Array.init d (fun s ->
        match kind with
        | 0 -> if unif () < 0.15 then 10.0 ** ((18.0 *. unif ()) -. 12.0) else 0.0
        | 1 -> 1e6 *. unif ()
        | 2 -> 0.0
        | _ -> if s = d - 1 then 1.0 +. (1e3 *. unif ()) else 0.0)
  in
  let entries = ref 0 in
  for case = 0 to 1199 do
    let k = 2 + (case mod 7) in
    let d = 1 lsl k in
    let gamma = if P2p_prng.Rng.int_below rng 4 = 0 then infinity else 0.2 +. (3.0 *. unif ()) in
    let arrival () =
      let c = P2p_prng.Rng.int_below rng (if Float.is_finite gamma then d else d - 1) in
      (PS.of_index c, 0.1 +. (100.0 *. unif ()))
    in
    let p =
      Params.make ~k ~us:(if case mod 5 = 0 then 0.0 else 3.0 *. unif ())
        ~mu:(0.1 +. (2.0 *. unif ())) ~gamma
        ~arrivals:(List.init (1 + P2p_prng.Rng.int_below rng 3) (fun _ -> arrival ()))
    in
    let us_scale = float_of_int (P2p_prng.Rng.int_below rng 2) in
    let abort_rate = if P2p_prng.Rng.int_below rng 2 = 0 then 0.0 else 0.5 *. unif () in
    let loss_factor = if P2p_prng.Rng.int_below rng 2 = 0 then 1.0 else unif () in
    let out_len = if case mod 2 = 0 then d else d + Fluid.aug_slots in
    let drift = Fluid.drift_into p ~us_scale ~abort_rate ~loss_factor in
    List.iter
      (fun kind ->
        let x = draw_state ~kind d in
        let x = if case mod 3 = 0 then Array.append x (Array.make Fluid.aug_slots 7.0) else x in
        let got = Array.make out_len Float.nan and want = Array.make out_len Float.nan in
        drift x got;
        reference_drift p ~us_scale ~abort_rate ~loss_factor x want;
        Array.iteri
          (fun i w ->
            incr entries;
            if not (bits_equal w got.(i)) then
              Alcotest.failf "case %d (k=%d, kind %d) entry %d: %h vs reference %h" case k kind
                i got.(i) w)
          want)
      [ 1; (case / 7) mod 4 ]
  done;
  Alcotest.(check bool) (Printf.sprintf "%d entries compared" !entries) true (!entries > 100_000)

(* The same equality one level up: an Ode session on the staged drift
   and one on the reference walk the same accepted/rejected steps to a
   bit-identical state (the K = 8 million-peer flash crowd to t = 5). *)
let test_trajectory_bit_identical_to_reference () =
  let p = Scenario.flash_crowd ~k:8 ~lambda:100.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let len = Fluid.dim p + Fluid.aug_slots in
  let y0 = Array.make len 0.0 in
  y0.(0) <- 1e6;
  let run drift =
    let s = Ode.session ~f:(fun _t y dy -> drift y dy) ~t0:0.0 ~y0 () in
    (match Ode.advance s ~to_:5.0 with
    | Ode.Reached -> ()
    | _ -> Alcotest.fail "session did not reach t = 5");
    s
  in
  let fast = run (Fluid.drift_into p ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0) in
  let slow = run (reference_drift p ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0) in
  Alcotest.(check int) "steps" (Ode.steps slow) (Ode.steps fast);
  Alcotest.(check int) "rejected" (Ode.rejected slow) (Ode.rejected fast);
  Alcotest.(check int) "evals" (Ode.evals slow) (Ode.evals fast);
  Array.iteri
    (fun i v ->
      if not (bits_equal v (Ode.state fast).(i)) then
        Alcotest.failf "state entry %d: %h vs reference %h" i (Ode.state fast).(i) v)
    (Ode.state slow)

let test_bad_arguments () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  let rejects name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  rejects "wrong size" (fun () -> Fluid.derivative stable (Array.make 3 0.0));
  rejects "dt = 0" (fun () -> Fluid.integrate stable ~init ~dt:0.0 ~horizon:1.0 ~record_every:1);
  rejects "dt < 0" (fun () ->
      Fluid.integrate stable ~init ~dt:(-0.1) ~horizon:1.0 ~record_every:1);
  rejects "dt nan" (fun () ->
      Fluid.integrate stable ~init ~dt:Float.nan ~horizon:1.0 ~record_every:1);
  rejects "horizon nan" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:Float.nan ~record_every:1);
  rejects "horizon < 0" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:(-1.0) ~record_every:1);
  rejects "horizon infinite" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:infinity ~record_every:1);
  rejects "record_every = 0" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:1.0 ~record_every:0)

let () =
  Alcotest.run "fluid"
    [
      ( "fluid",
        [
          Alcotest.test_case "of_state" `Quick test_of_state;
          Alcotest.test_case "mass balance" `Quick test_derivative_mass_balance;
          Alcotest.test_case "mass balance gamma=inf" `Quick test_derivative_mass_balance_gamma_inf;
          Alcotest.test_case "matches generator drift" `Quick test_derivative_matches_generator_drift;
          Alcotest.test_case "integrate records" `Quick test_integrate_records;
          Alcotest.test_case "equilibrium stable" `Quick test_equilibrium_stable;
          Alcotest.test_case "no equilibrium transient" `Quick test_transient_no_equilibrium;
          Alcotest.test_case "linear growth" `Quick test_transient_linear_growth;
          Alcotest.test_case "nonnegativity" `Quick test_nonnegativity_preserved;
          Alcotest.test_case "equilibrium matches RK4 pinned" `Quick
            test_equilibrium_matches_rk4_pinned;
          Alcotest.test_case "two-chunk equilibrium pinned" `Quick
            test_two_chunk_equilibrium_pinned;
          Alcotest.test_case "grid times exact" `Quick test_grid_times_exact;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
          Alcotest.test_case "drift bit-identical to reference" `Quick
            test_drift_bit_identical_to_reference;
          Alcotest.test_case "trajectory bit-identical to reference" `Quick
            test_trajectory_bit_identical_to_reference;
        ] );
    ]
