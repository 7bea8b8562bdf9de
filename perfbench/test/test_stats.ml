(* The benchmark's own arithmetic: tail selection, shares and ratios. *)

open Alcotest

let tail_percentile () =
  let q n = Stats.tail_percentile ~n in
  check (option (float 0.0)) "19 samples: no percentile has 10 beyond" None (q 19);
  check (option (float 0.0)) "20 samples: the median" (Some 0.5) (q 20);
  check (option (float 0.0)) "49 samples: p75" (Some 0.75) (q 49);
  check (option (float 0.0)) "100 samples: p90" (Some 0.9) (q 100);
  check (option (float 0.0)) "1356 samples: p99" (Some 0.99) (q 1356);
  check (option (float 0.0)) "10011 samples: p99.9" (Some 0.999) (q 10_011)

(* The count [beyond] promises is what Report.percentile actually leaves
   above the value it returns. *)
let tail_matches_report () =
  List.iter
    (fun n ->
      let samples = List.init n (fun i -> float_of_int (n - i)) in
      match Stats.tail_percentile ~n with
      | None -> fail "expected a tail"
      | Some q ->
          let v = Stellar_obs.Report.percentile samples q in
          let above = List.length (List.filter (fun x -> x > v) samples) in
          check int (Printf.sprintf "n=%d" n) (Stats.beyond ~n q) above;
          check bool (Printf.sprintf "n=%d: at least 10" n) true (above >= 10))
    [ 20; 21; 49; 100; 101; 1356; 6084; 10_011 ]

let failed_share () =
  check (float 1e-12) "crash-recovery shape" (105.0 /. 1516.0)
    (Stats.failed_share ~submitted:1516 ~applied:1411);
  check (float 0.0) "all applied" 0.0 (Stats.failed_share ~submitted:6084 ~applied:6084);
  check (float 0.0) "nothing submitted" 0.0 (Stats.failed_share ~submitted:0 ~applied:0)

let useful_ratio () =
  check (float 1e-12) "unique / (unique + dups)" (30004.0 /. 217263.0)
    (Stats.useful_ratio ~unique:30004 ~dups:187259);
  check (float 0.0) "no floods" 0.0 (Stats.useful_ratio ~unique:0 ~dups:0)

let shares () =
  let s = Stats.shares ~wall:10.0 [ ("sha256", 2.0); ("apply", 3.0) ] in
  check (list (pair string (float 1e-12))) "parts, then the rest"
    [ ("sha256", 0.2); ("apply", 0.3); ("other", 0.5) ]
    s;
  check (float 1e-12) "sums to one" 1.0 (List.fold_left (fun a (_, v) -> a +. v) 0.0 s);
  check (float 1e-12) "overshooting estimates leave a negative rest" (-0.2)
    (List.assoc "other" (Stats.shares ~wall:10.0 [ ("a", 6.0); ("b", 6.0) ]))

let median () =
  check (float 0.0) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check (float 0.0) "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median []))

let () =
  run "perfbench"
    [
      ( "stats",
        [
          test_case "tail percentile has >= 10 samples beyond" `Quick tail_percentile;
          test_case "tail percentile agrees with Report.percentile" `Quick tail_matches_report;
          test_case "tx failed share" `Quick failed_share;
          test_case "flood useful ratio" `Quick useful_ratio;
          test_case "shares and the other remainder" `Quick shares;
          test_case "median" `Quick median;
        ] );
    ]
