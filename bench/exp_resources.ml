(* tab-resources: the cost of running a validator (§7.4).

   Paper (SDF production validator on a 2-core c5.large): ~7% of one CPU,
   ~300 MiB memory, 2.78 Mbit/s in, 2.56 Mbit/s out with 28 peer
   connections and a quorum of 34, about $40/month of hardware. *)

let run () =
  Common.section "tab-resources: per-validator resource usage"
    "§7.4: ~7% CPU, 300 MiB, 2.78/2.56 Mbit/s with 28 peers";
  let duration =
    if !Common.full then 1800.0 else if !Common.smoke then 60.0 else 300.0
  in
  let spec, _ = Stellar_node.Topology.tiered ~leaves:5 () in
  Gc.compact ();
  let cpu0 = Sys.time () in
  let heap0 = (Gc.stat ()).Gc.live_words in
  let r =
    Common.run_scenario ~spec ~accounts:1_000 ~rate:15.7 ~duration
      ~latency:Stellar_sim.Latency.wide_area ()
  in
  let cpu = Sys.time () -. cpu0 in
  let heap = (Gc.stat ()).Gc.live_words - heap0 in
  let open Stellar_node in
  let n_nodes = spec.Topology.n_nodes and peers = List.length (spec.Topology.peers_of 0) in
  let mbit bytes_per_s = bytes_per_s *. 8.0 /. 1_000_000.0 in
  let mbit_in = mbit r.Scenario.bytes_in_per_second in
  let mbit_out = mbit r.Scenario.bytes_out_per_second in
  let cpu_pct = cpu /. duration /. float_of_int n_nodes *. 100.0 in
  let apply_ms = Common.ms r.Scenario.apply.mean in
  Common.row "peers (node 0)     : %d   (paper: 28)@." peers;
  Common.row "network in         : %.2f Mbit/s   (paper: 2.78)@." mbit_in;
  Common.row "network out        : %.2f Mbit/s   (paper: 2.56)@." mbit_out;
  Common.row "CPU                : %.1f%% of one core per validator (paper: ~7%%)@." cpu_pct;
  Common.row "heap growth        : %.1f MiB across %d in-process validators@."
    (float_of_int heap *. 8.0 /. 1024.0 /. 1024.0)
    n_nodes;
  Common.row "ledger update CPU  : mean %.2fms per ledger@." apply_ms;
  Common.row "shape check        : commodity-hardware scale; network cost dominates@.";
  (* Persist the measured byte accounting so the perf trajectory is
     tracked across changes.  Sizes are real XDR encoding lengths.  The CPU
     and apply rows are host time, so they stay on stdout and out of the
     artifact, which is deterministic for a fixed seed. *)
  let ledgers = float_of_int (max 1 r.Scenario.ledgers_closed) in
  let per_ledger bytes = Stellar_obs.Json.Fixed (1, float_of_int bytes /. ledgers) in
  Artifact.write "BENCH_resources.json"
    Stellar_obs.Json.
      [
        ("experiment", String "tab-resources"); ("duration_s", Fixed (1, duration));
        ("nodes", Int n_nodes); ("peers_node0", Int peers);
        ("ledgers_closed", Int r.Scenario.ledgers_closed);
        ("txs_applied", Int r.Scenario.txs_applied);
        ("bytes_in_total_node0", Int r.Scenario.bytes_in_total);
        ("bytes_out_total_node0", Int r.Scenario.bytes_out_total);
        ("bytes_in_per_ledger", per_ledger r.Scenario.bytes_in_total);
        ("bytes_out_per_ledger", per_ledger r.Scenario.bytes_out_total);
        ("mbit_in_per_s", Fixed (4, mbit_in)); ("mbit_out_per_s", Fixed (4, mbit_out));
      ]
