(* fig-e2e: end-to-end payment latency under the fig-10 load sweep (§7.3).

   The paper's headline user-visible number: a payment is confirmed within
   ~5 seconds of submission.  Each rate point runs with [observe = true];
   submit→externalize and submit→apply latencies come from the per-tx
   lifecycle events in the trace, and the per-slot critical path comes from
   the causal DAG (Flood_send msg ids ↔ Flood_recv send ids), attributing
   every externalization to network transit vs. timer wait vs. modeled CPU.

   Everything in BENCH_e2e.json derives from simulated-time stamps only, so
   the file is byte-identical across runs with the same seed. *)

module Obs = Stellar_obs

let seed = 11

let run () =
  Common.section "fig-e2e: end-to-end payment latency vs load"
    "§7.3: payments confirmed ~5s after submission; critical-path attribution";
  let accounts =
    if !Common.full then 100_000 else if !Common.smoke then 500 else 10_000
  in
  let rates =
    if !Common.full then [ 100.0; 150.0; 200.0; 250.0; 300.0; 350.0 ]
    else if !Common.smoke then [ 10.0; 20.0 ]
    else [ 50.0; 100.0; 200.0; 350.0 ]
  in
  let duration = if !Common.smoke then 40.0 else 60.0 in
  Common.row "%8s | %6s | %12s | %12s | %12s | %22s@." "tx/s" "txs" "ext p50(ms)"
    "ext p99(ms)" "apply p50" "critical path net/timer";
  Common.row
    "---------+--------+--------------+--------------+--------------+-----------------------@.";
  let results =
    List.map
      (fun rate ->
        let r =
          Stellar_node.Scenario.run
            {
              (Stellar_node.Scenario.default
                 ~spec:(Stellar_node.Topology.all_to_all ~n:4))
              with
              Stellar_node.Scenario.n_accounts = accounts;
              tx_rate = rate;
              duration;
              seed;
              observe = true;
            }
        in
        let trace = Obs.Collector.trace (Common.telemetry "fig-e2e" r) in
        let e2e = Obs.Report.e2e_latency trace in
        let cps = Obs.Report.critical_paths trace in
        Obs.Report.check_attribution cps;
        let open Obs.Report in
        let sum f = List.fold_left (fun a cp -> a +. f cp) 0.0 cps in
        let cp_net = sum (fun cp -> cp.network_s) and cp_timer = sum (fun cp -> cp.timer_s) in
        Common.row "%8.0f | %6d | %12.1f | %12.1f | %12.1f | %9.0fms /%8.0fms@." rate
          e2e.n_applied
          (Common.ms e2e.submit_to_externalize.p50)
          (Common.ms e2e.submit_to_externalize.p99)
          (Common.ms e2e.submit_to_apply.p50)
          (Common.ms cp_net) (Common.ms cp_timer);
        let ms s = Obs.Json.Fixed (6, Common.ms s) in
        Obs.Json.(
          Obj
            [
              ("rate", Fixed (1, rate)); ("e2e", e2e_json e2e);
              ( "critical_path",
                Obj
                  [ ("slots", Int (List.length cps)); ("network_ms", ms cp_net);
                    ("timer_ms", ms cp_timer); ("cpu_ms", ms (sum (fun cp -> cp.cpu_s)));
                    ("total_ms", ms (sum (fun cp -> cp.cp_total_s))) ] );
              ("per_slot", critical_paths_json cps);
            ]))
      rates
  in
  Common.row "shape check: p50 < 5000ms at every rate; attribution sums exact@.";
  Artifact.write "BENCH_e2e.json"
    Obs.Json.
      [
        ("experiment", String "fig-e2e"); ("seed", Int seed); ("nodes", Int 4);
        ("accounts", Int accounts); ("duration_s", Fixed (1, duration)); ("rates", List results);
      ]
