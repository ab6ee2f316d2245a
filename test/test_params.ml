(* Model parameter validation and accessors. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let mk ?(k = 3) ?(us = 1.0) ?(mu = 1.0) ?(gamma = 2.0) arrivals =
  Params.make ~k ~us ~mu ~gamma ~arrivals

let rejects name f =
  Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)

let test_validation () =
  rejects "k = 0" (fun () -> mk ~k:0 [ (PS.empty, 1.0) ]);
  rejects "negative us" (fun () -> mk ~us:(-1.0) [ (PS.empty, 1.0) ]);
  rejects "mu = 0" (fun () -> mk ~mu:0.0 [ (PS.empty, 1.0) ]);
  rejects "gamma = 0" (fun () -> mk ~gamma:0.0 [ (PS.empty, 1.0) ]);
  rejects "gamma = nan" (fun () -> mk ~gamma:Float.nan [ (PS.empty, 1.0) ]);
  rejects "no arrivals" (fun () -> mk []);
  rejects "all-zero rates" (fun () -> mk [ (PS.empty, 0.0) ]);
  rejects "negative rate" (fun () -> mk [ (PS.empty, -0.5) ]);
  rejects "type beyond K" (fun () -> mk ~k:2 [ (PS.singleton 5, 1.0) ]);
  rejects "lambda_F with gamma=inf" (fun () ->
      mk ~gamma:infinity [ (PS.full ~k:3, 1.0); (PS.empty, 1.0) ])

let test_lambda_f_allowed_when_gamma_finite () =
  let p = mk [ (PS.full ~k:3, 0.5); (PS.empty, 1.0) ] in
  Alcotest.(check (float 1e-12)) "lambda_F kept" 0.5 (Params.lambda p (PS.full ~k:3))

let test_dedup_and_drop_zero () =
  let p = mk [ (PS.empty, 0.4); (PS.empty, 0.6); (PS.singleton 0, 0.0) ] in
  Alcotest.(check int) "one entry" 1 (Array.length p.arrivals);
  Alcotest.(check (float 1e-12)) "summed" 1.0 (Params.lambda p PS.empty)

let test_lambda_helpers () =
  let p =
    mk [ (PS.empty, 1.0); (PS.singleton 0, 0.3); (PS.of_list [ 0; 1 ], 0.2); (PS.singleton 2, 0.5) ]
  in
  Alcotest.(check (float 1e-12)) "total" 2.0 (Params.lambda_total p);
  Alcotest.(check (float 1e-12)) "containing piece 0" 0.5 (Params.lambda_containing p ~piece:0);
  Alcotest.(check (float 1e-12)) "containing piece 1" 0.2 (Params.lambda_containing p ~piece:1);
  Alcotest.(check (float 1e-12)) "within {1,2}" 1.5 (Params.lambda_within p (PS.of_list [ 0; 1 ]));
  Alcotest.(check (float 1e-12)) "within empty" 1.0 (Params.lambda_within p PS.empty)

let test_mu_over_gamma () =
  Alcotest.(check (float 1e-12)) "finite" 0.5 (Params.mu_over_gamma (mk [ (PS.empty, 1.0) ]));
  Alcotest.(check (float 1e-12)) "infinite" 0.0
    (Params.mu_over_gamma (mk ~gamma:infinity [ (PS.empty, 1.0) ]))

let test_piece_can_enter () =
  let p = mk ~us:0.0 [ (PS.singleton 0, 1.0) ] in
  Alcotest.(check bool) "piece 0 enters" true (Params.piece_can_enter p ~piece:0);
  Alcotest.(check bool) "piece 1 cannot" false (Params.piece_can_enter p ~piece:1);
  let with_seed = mk ~us:0.1 [ (PS.singleton 0, 1.0) ] in
  Alcotest.(check bool) "seed supplies all" true (Params.piece_can_enter with_seed ~piece:1)

let test_with_updates () =
  let p = mk [ (PS.empty, 1.0) ] in
  let p2 = Params.with_gamma p ~gamma:5.0 in
  Alcotest.(check (float 1e-12)) "gamma updated" 5.0 p2.gamma;
  Alcotest.(check (float 1e-12)) "us preserved" 1.0 p2.us;
  let p3 = Params.with_us p ~us:0.0 in
  Alcotest.(check (float 1e-12)) "us updated" 0.0 p3.us;
  let p4 = Params.with_arrivals p ~arrivals:[ (PS.singleton 1, 2.0) ] in
  Alcotest.(check (float 1e-12)) "arrivals replaced" 2.0 (Params.lambda p4 (PS.singleton 1))

let test_immediate_departure () =
  Alcotest.(check bool) "finite" false (Params.immediate_departure (mk [ (PS.empty, 1.0) ]));
  Alcotest.(check bool) "infinite" true
    (Params.immediate_departure (mk ~gamma:infinity [ (PS.empty, 1.0) ]))

let () =
  Alcotest.run "params"
    [
      ( "params",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "lambda_F finite gamma" `Quick test_lambda_f_allowed_when_gamma_finite;
          Alcotest.test_case "dedup" `Quick test_dedup_and_drop_zero;
          Alcotest.test_case "lambda helpers" `Quick test_lambda_helpers;
          Alcotest.test_case "mu/gamma" `Quick test_mu_over_gamma;
          Alcotest.test_case "piece can enter" `Quick test_piece_can_enter;
          Alcotest.test_case "with_* updates" `Quick test_with_updates;
          Alcotest.test_case "immediate departure" `Quick test_immediate_departure;
        ] );
    ]
