(* Shared plumbing for the experiment harness. *)

let full = ref false
(* --full switches to paper-scale parameters (much slower). *)

let smoke = ref false
(* --smoke shrinks topologies/durations so CI can run the harness in
   seconds while still exercising every code path and writing every
   checked BENCH_*.json artifact. *)

let section title paper =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "paper reference: %s@." paper;
  Format.printf "==================================================================@."

let row fmt = Format.printf fmt

let ms s = s *. 1000.0

let run_scenario ?(spec_n = 4) ?spec ?(accounts = 1_000) ?(rate = 20.0) ?(duration = 60.0)
    ?(latency = Stellar_sim.Latency.datacenter) ?(seed = 1) () =
  let spec =
    match spec with Some s -> s | None -> Stellar_node.Topology.all_to_all ~n:spec_n
  in
  Stellar_node.Scenario.run
    {
      (Stellar_node.Scenario.default ~spec) with
      Stellar_node.Scenario.n_accounts = accounts;
      tx_rate = rate;
      duration;
      latency;
      seed;
    }

let telemetry exp r =
  match r.Stellar_node.Scenario.telemetry with
  | Some c -> c
  | None -> failwith (exp ^ ": scenario ran without telemetry")

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
