(* The benchmark's own arithmetic, kept free of I/O so the tests can pin it. *)

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Candidate tail percentiles, highest first. *)
let tail_ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* Samples above the index [Stellar_obs.Report.percentile] reads for [q]. *)
let beyond ~n q = n - 1 - int_of_float (q *. float_of_int (n - 1))

let tail_percentile ~n = List.find_opt (fun q -> beyond ~n q >= 10) tail_ladder

(* Payments submitted but never applied, as a share of those submitted. *)
let failed_share ~submitted ~applied =
  if submitted = 0 then 0.0 else float_of_int (submitted - applied) /. float_of_int submitted

let useful_ratio ~unique ~dups =
  if unique + dups = 0 then 0.0 else float_of_int unique /. float_of_int (unique + dups)

(* Each part's estimated seconds as a share of [wall], then "other": whatever
   the estimates leave of the whole (negative when they overshoot it). *)
let shares ~wall parts =
  let named = List.map (fun (name, seconds) -> (name, seconds /. wall)) parts in
  named @ [ ("other", 1.0 -. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 named) ]
