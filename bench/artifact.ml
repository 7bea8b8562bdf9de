(* The checks every BENCH_*.json must pass, run on the value before it is
   written: a bad value fails the experiment instead of reaching the file. *)

module Json = Stellar_obs.Json

let fail file fmt = Printf.ksprintf (fun msg -> failwith (file ^ ": " ^ msg)) fmt
let field k = function Json.Obj members -> List.assoc_opt k members | _ -> None

(* A missing number reads as nan, which fails every bound. *)
let number k v =
  match field k v with
  | Some (Json.Fixed (_, x)) -> x
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

let rate_points file doc =
  match List.assoc_opt "rates" doc with
  | Some (Json.List (_ :: _ as points)) -> points
  | _ -> fail file "empty rate sweep"

(* Report.check_attribution's per-slot identity, summed over a rate point:
   network + timer + cpu = total within 1 µs (1e-3 ms). *)
let check_e2e file doc =
  rate_points file doc
  |> List.iter (fun point ->
         let cp = Option.value ~default:Json.Null (field "critical_path" point) in
         let parts = number "network_ms" cp +. number "timer_ms" cp +. number "cpu_ms" cp in
         if not (Float.abs (parts -. number "total_ms" cp) <= 1e-3) then
           fail file "rate %g: attribution != total" (number "rate" point))

(* Every point converged, and it has recoveries, each of which resynced. *)
let check_faults file doc =
  rate_points file doc
  |> List.iter (fun point ->
         let rate = number "rate" point in
         if field "converged" point <> Some (Json.Bool true) then
           fail file "rate %g: not converged" rate;
         match field "recoveries" point with
         | Some (Json.List (_ :: _ as recs)) ->
             List.iter
               (fun r ->
                 if List.mem (field "recover_s" r) [ None; Some Json.Null ] then
                   fail file "node %g never resynced" (number "node" r))
               recs
         | _ -> fail file "rate %g: no recoveries" rate)

(* file -> required top-level keys, further checks *)
let specs =
  [
    ( "BENCH_phases.json",
      ( [ "experiment"; "seed"; "nodes"; "validators"; "ledgers_closed"; "phases"; "per_slot";
          "flood"; "counters" ],
        fun _ _ -> () ) );
    ( "BENCH_resources.json",
      ( [ "experiment"; "nodes"; "ledgers_closed"; "bytes_in_total_node0"; "bytes_out_total_node0" ],
        fun _ _ -> () ) );
    ("BENCH_e2e.json", ([ "experiment"; "seed"; "nodes"; "accounts"; "rates" ], check_e2e));
    ( "BENCH_faults.json",
      ([ "experiment"; "seed"; "nodes"; "accounts"; "duration_s"; "rates" ], check_faults) );
  ]

let check file doc =
  match List.assoc_opt file specs with
  | None -> fail file "no checks defined for this artifact"
  | Some (required, checks) ->
      (match List.filter (fun k -> not (List.mem_assoc k doc)) required with
      | [] -> ()
      | missing -> fail file "missing keys %s" (String.concat ", " missing));
      checks file doc

let write file doc =
  check file doc;
  Out_channel.with_open_bin file (fun oc -> output_string oc (Json.document doc));
  Format.printf "wrote %s@." file
