(* Property tests for the adaptive Dormand–Prince 5(4) stepper (Ode).
   These pin the numerical contract the fluid backend builds on: 5th-order
   convergence, dense-output consistency, exact preservation of linear
   invariants, and deterministic until-bisection. *)

open P2p_core

let feq ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_feq ?eps msg a b =
  if not (feq ?eps a b) then Alcotest.failf "%s: %.17g vs %.17g" msg a b

(* y' = -y, y(0) = 1: y(t) = e^{-t}. *)
let decay _t y dy = dy.(0) <- -.y.(0)

(* Order of convergence: halving h must shrink the endpoint error by
   ~2^5 for a 5th-order method.  Measured over one step from t=0. *)
let test_order_convergence () =
  let ctrl = Ode.default_control in
  let exact h = exp (-.h) in
  let err h =
    let s = Ode.try_step ~f:decay ~control:ctrl ~t:0.0 ~y:[| 1.0 |] ~h in
    Float.abs ((Ode.step_y1 s).(0) -. exact h)
  in
  let e1 = err 0.4 and e2 = err 0.2 in
  let ratio = e1 /. e2 in
  (* 2^5 = 32; demand at least 2^4.5 ~ 22.6 to leave float headroom. *)
  if ratio < 22.6 then
    Alcotest.failf "convergence ratio %.3f below 5th-order expectation (e1=%g e2=%g)" ratio e1 e2

(* Dense output boundary conditions: the interpolant is exact at both
   step endpoints. *)
let test_dense_endpoints () =
  let ctrl = Ode.default_control in
  let s = Ode.try_step ~f:decay ~control:ctrl ~t:0.5 ~y:[| 2.0 |] ~h:0.3 in
  let y1 = Ode.step_y1 s in
  check_feq ~eps:1e-12 "dense at t0" (Ode.step_eval s 0.5).(0) 2.0;
  check_feq ~eps:1e-12 "dense at t1" (Ode.step_eval s 0.8).(0) y1.(0)

(* Dense output mid-step tracks the analytic solution to interpolant
   order. *)
let test_dense_midpoint () =
  let ctrl = Ode.default_control in
  (* The interpolant is 4th order: at h = 0.2 its mid-step error is
     ~1e-7; at h = 0.05 it must fall by ~2^5 per halving. *)
  let mid_err h =
    let s = Ode.try_step ~f:decay ~control:ctrl ~t:0.0 ~y:[| 1.0 |] ~h in
    Float.abs ((Ode.step_eval s (0.5 *. h)).(0) -. exp (-0.5 *. h))
  in
  if mid_err 0.2 > 1e-6 then Alcotest.failf "dense midpoint error %g too large" (mid_err 0.2);
  let ratio = mid_err 0.2 /. mid_err 0.05 in
  if ratio < 100.0 then
    Alcotest.failf "dense midpoint error not shrinking at order (ratio %.1f)" ratio

let test_step_eval_outside_raises () =
  let ctrl = Ode.default_control in
  let s = Ode.try_step ~f:decay ~control:ctrl ~t:0.0 ~y:[| 1.0 |] ~h:0.2 in
  Alcotest.check_raises "before step" (Invalid_argument "dummy")
    (fun () ->
      try ignore (Ode.step_eval s (-0.1)) with Invalid_argument _ ->
        raise (Invalid_argument "dummy"));
  Alcotest.check_raises "after step" (Invalid_argument "dummy")
    (fun () ->
      try ignore (Ode.step_eval s 0.3) with Invalid_argument _ ->
        raise (Invalid_argument "dummy"))

(* Adaptive accuracy on a nonlinear problem: logistic y' = y(1-y),
   y(0)=0.1, y(t) = 1/(1 + 9 e^{-t}). *)
let test_adaptive_accuracy () =
  let f _t y dy = dy.(0) <- y.(0) *. (1.0 -. y.(0)) in
  let ctrl = Ode.control ~rtol:1e-9 ~atol:1e-12 () in
  let s = Ode.session ~control:ctrl ~f ~t0:0.0 ~y0:[| 0.1 |] () in
  (match Ode.advance s ~to_:5.0 with
  | Ode.Reached -> ()
  | _ -> Alcotest.fail "expected Reached");
  let exact = 1.0 /. (1.0 +. (9.0 *. exp (-5.0))) in
  check_feq ~eps:1e-8 "logistic at t=5" (Ode.state s).(0) exact;
  if Ode.steps s <= 0 then Alcotest.fail "no steps accepted";
  if Ode.evals s <= 0 then Alcotest.fail "no evals counted"

(* RK methods preserve linear invariants exactly.  A closed 3-compartment
   flow (rows of the rate matrix sum to 0) keeps the total constant to
   float round-off across thousands of steps. *)
let test_linear_invariant () =
  let f _t y dy =
    dy.(0) <- (-2.0 *. y.(0)) +. (0.5 *. y.(1));
    dy.(1) <- (2.0 *. y.(0)) -. (1.5 *. y.(1)) +. (0.3 *. y.(2));
    dy.(2) <- y.(1) -. (0.3 *. y.(2))
  in
  let y0 = [| 5.0; 1.0; 0.25 |] in
  let total0 = y0.(0) +. y0.(1) +. y0.(2) in
  let ctrl = Ode.control ~rtol:1e-6 ~atol:1e-9 ~max_step:0.05 () in
  let s = Ode.session ~control:ctrl ~f ~t0:0.0 ~y0 () in
  let worst = ref 0.0 in
  let on_step s =
    let y = Ode.state s in
    let t = y.(0) +. y.(1) +. y.(2) in
    worst := Float.max !worst (Float.abs (t -. total0))
  in
  (match Ode.advance ~on_step s ~to_:50.0 with
  | Ode.Reached -> ()
  | _ -> Alcotest.fail "expected Reached");
  if !worst > 1e-10 then
    Alcotest.failf "linear invariant drifted by %g over %d steps" !worst (Ode.steps s)

(* Until-bisection: y' = -y from y(0)=2 crosses y = 1 at t = ln 2, and
   the located stop time must hit it to dense-output accuracy — and be
   bit-identical across runs. *)
let test_until_bisection () =
  let run () =
    (* The crossing is located on the dense interpolant, so its accuracy
       tracks the integration tolerance — run tight. *)
    let ctrl = Ode.control ~rtol:1e-12 ~atol:1e-14 () in
    let s = Ode.session ~control:ctrl ~f:decay ~t0:0.0 ~y0:[| 2.0 |] () in
    match Ode.advance ~until:(fun ~t:_ ~y -> y.(0) <= 1.0) s ~to_:10.0 with
    | Ode.Stopped t -> (t, (Ode.state s).(0))
    | _ -> Alcotest.fail "expected Stopped"
  in
  let t1, y1 = run () in
  let t2, y2 = run () in
  if t1 <> t2 || y1 <> y2 then Alcotest.fail "until stop not deterministic";
  check_feq ~eps:1e-10 "stop time = ln 2" t1 (log 2.0);
  check_feq ~eps:1e-10 "state at stop" y1 1.0;
  (* Time must not overshoot the requested horizon's crossing. *)
  if t1 > 10.0 then Alcotest.fail "stop past horizon"

let test_step_limit () =
  let ctrl = Ode.control ~max_steps:3 ~max_step:0.01 () in
  let s = Ode.session ~control:ctrl ~f:decay ~t0:0.0 ~y0:[| 1.0 |] () in
  match Ode.advance s ~to_:10.0 with
  | Ode.Step_limit ->
      if Ode.steps s <> 3 then Alcotest.failf "expected 3 steps, got %d" (Ode.steps s);
      if Ode.time s >= 10.0 then Alcotest.fail "claimed to reach horizon under step limit"
  | _ -> Alcotest.fail "expected Step_limit"

(* set_rhs swaps the drift mid-run (the fault-toggle path). *)
let test_set_rhs () =
  let s = Ode.session ~f:(fun _t _y dy -> dy.(0) <- 1.0) ~t0:0.0 ~y0:[| 0.0 |] () in
  (match Ode.advance s ~to_:1.0 with Ode.Reached -> () | _ -> Alcotest.fail "leg 1");
  Ode.set_rhs s (fun _t _y dy -> dy.(0) <- -1.0);
  (match Ode.advance s ~to_:2.0 with Ode.Reached -> () | _ -> Alcotest.fail "leg 2");
  check_feq ~eps:1e-9 "ramp up then down returns to 0" (Ode.state s).(0) 0.0

let test_bad_arguments () =
  let expect_invalid msg f =
    Alcotest.check_raises msg (Invalid_argument "dummy") (fun () ->
        try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument "dummy"))
  in
  expect_invalid "rtol <= 0" (fun () -> Ode.control ~rtol:0.0 ());
  expect_invalid "atol nan" (fun () -> Ode.control ~atol:Float.nan ());
  expect_invalid "max_steps 0" (fun () -> Ode.control ~max_steps:0 ());
  expect_invalid "try_step h=0" (fun () ->
      Ode.try_step ~f:decay ~control:Ode.default_control ~t:0.0 ~y:[| 1.0 |] ~h:0.0);
  expect_invalid "try_step h nan" (fun () ->
      Ode.try_step ~f:decay ~control:Ode.default_control ~t:0.0 ~y:[| 1.0 |] ~h:Float.nan);
  expect_invalid "session empty y0" (fun () -> Ode.session ~f:decay ~t0:0.0 ~y0:[||] ());
  expect_invalid "session nan y0" (fun () ->
      Ode.session ~f:decay ~t0:0.0 ~y0:[| Float.nan |] ());
  let s = Ode.session ~f:decay ~t0:0.0 ~y0:[| 1.0 |] () in
  expect_invalid "advance to nan" (fun () -> Ode.advance s ~to_:Float.nan);
  expect_invalid "advance backward" (fun () -> Ode.advance s ~to_:(-1.0))

let () =
  Alcotest.run "ode"
    [
      ( "stepper",
        [
          Alcotest.test_case "order convergence" `Quick test_order_convergence;
          Alcotest.test_case "dense endpoints" `Quick test_dense_endpoints;
          Alcotest.test_case "dense midpoint" `Quick test_dense_midpoint;
          Alcotest.test_case "dense outside raises" `Quick test_step_eval_outside_raises;
        ] );
      ( "session",
        [
          Alcotest.test_case "adaptive accuracy" `Quick test_adaptive_accuracy;
          Alcotest.test_case "linear invariant" `Quick test_linear_invariant;
          Alcotest.test_case "until bisection" `Quick test_until_bisection;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "set_rhs" `Quick test_set_rhs;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
        ] );
    ]
