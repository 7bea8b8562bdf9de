(* fig-liveness: crash/recovery and partition-heal under load (§5.4, §6).

   A fig-10-style load sweep where the network is actively abused: a
   minority of validators crash mid-run and rejoin (bootstrapping from the
   history archive's latest checkpoint, then replaying and closing the gap
   live via straggler help), a transient loss window drops messages, one
   node turns into a Byzantine re-flooder, and a partition splits off a
   minority that later heals.  For every rate we assert that the surviving
   network never stops closing ledgers and that every node converges to the
   same header chain by the end, and we report time-to-recover quantiles
   (restart → first in-sync externalize, heal → last laggard in sync).

   Everything in BENCH_faults.json derives from simulated-time stamps, so
   the file is byte-identical across runs with the same seed — the harness
   runs the whole sweep twice and fails loudly if the bytes differ. *)

module Obs = Stellar_obs

let seed = 17
let n_nodes = 7
let interval = 5.0
let duration = 75.0
let crashed_nodes = [ 5; 6 ]

(* two nodes crash and rejoin; 5% loss while they are down; a re-flooder
   turns chatty; then {4,5,6} split off and heal 15s later *)
let faults : Stellar_node.Fault.schedule =
  [
    Stellar_node.Fault.Crash { node = 5; at = 12.0 };
    Stellar_node.Fault.Crash { node = 6; at = 14.0 };
    Stellar_node.Fault.Loss { rate = 0.05; from_ = 18.0; until_ = 24.0 };
    Stellar_node.Fault.Restart { node = 5; at = 30.0 };
    Stellar_node.Fault.Restart { node = 6; at = 32.0 };
    Stellar_node.Fault.Reflood { node = 1; at = 40.0; copies = 4 };
    Stellar_node.Fault.Partition
      {
        at = 45.0;
        groups = [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 1); (5, 1); (6, 1) ];
      };
    Stellar_node.Fault.Heal { at = 60.0 };
  ]

let run_rate ~accounts rate =
  let r =
    Stellar_node.Scenario.run
      {
        (Stellar_node.Scenario.default ~spec:(Stellar_node.Topology.all_to_all ~n:n_nodes))
        with
        Stellar_node.Scenario.n_accounts = accounts;
        tx_rate = rate;
        duration;
        seed;
        ledger_interval = interval;
        observe = true;
        faults;
      }
  in
  let trace = Obs.Collector.trace (Common.telemetry "fig-liveness" r) in
  (* the artifact check fails the run; this says where the chains split *)
  if not r.Stellar_node.Scenario.converged then begin
    let c0 =
      match r.Stellar_node.Scenario.chains with (_, c) :: _ -> Array.of_list c | [] -> [||]
    in
    List.iter
      (fun (i, c) ->
        let arr = Array.of_list c in
        let div = ref (-1) in
        Array.iteri
          (fun k h -> if !div < 0 && (k >= Array.length c0 || c0.(k) <> h) then div := k)
          arr;
        Printf.eprintf "node %d: chain length %d head %s first-divergence %d\n%!" i
          (List.length c)
          (match List.rev c with h :: _ -> String.sub h 0 12 | [] -> "-")
          !div)
      r.Stellar_node.Scenario.chains
  end;
  (* every crashed node must have completed an archive catchup on restart *)
  let caught_up = Hashtbl.create 4 in
  Obs.Trace.iter trace (fun s ->
      match s.Obs.Trace.event with
      | Obs.Event.Catchup_done _ -> Hashtbl.replace caught_up s.Obs.Trace.node ()
      | _ -> ());
  List.iter
    (fun node ->
      if not (Hashtbl.mem caught_up node) then
        Printf.ksprintf failwith "fig-liveness: node %d restarted without a Catchup_done event" node)
    crashed_nodes;
  let recoveries = Obs.Report.recoveries ~interval trace in
  let heals = Obs.Report.heals ~interval trace in
  if heals = [] then failwith "fig-liveness: partition heal left no trace";
  if List.exists (fun h -> h.Obs.Report.heal_recover_s = None) heals then
    failwith "fig-liveness: a partitioned node never resynced after heal";
  (* pooled time-to-recover samples: per-crash restart→in-sync plus per-node
     heal→in-sync delays *)
  let samples =
    List.filter_map (fun rc -> rc.Obs.Report.recover_s) recoveries
    @ List.concat_map (fun h -> List.filter_map snd h.Obs.Report.lagged) heals
  in
  let q = Obs.Report.quantiles samples in
  (r, recoveries, heals, q)

let rate_json (rate, (r, recoveries, heals, q)) =
  Obs.Json.(
    Obj
      [
        ("rate", Fixed (1, rate)); ("converged", Bool r.Stellar_node.Scenario.converged);
        ("ledgers_closed", Int r.Stellar_node.Scenario.ledgers_closed);
        ("final_seq", Int r.Stellar_node.Scenario.final_ledger_seq);
        ("recoveries", Obs.Report.recoveries_json recoveries);
        ("heals", Obs.Report.heals_json heals);
        ("recover_quantiles", Obs.Report.quantiles_json q);
      ])

let sweep ~accounts ~rates =
  let results = List.map (fun rate -> (rate, run_rate ~accounts rate)) rates in
  ( results,
    Obs.Json.
      [
        ("experiment", String "fig-liveness"); ("seed", Int seed); ("nodes", Int n_nodes);
        ("accounts", Int accounts); ("duration_s", Fixed (1, duration));
        ("rates", List (List.map rate_json results));
      ] )

let run () =
  Common.section "fig-liveness: crash/restart + partition heal under load"
    "§5.4 catchup, §6 straggler help: faulty validators rejoin and converge";
  let accounts = if !Common.full then 10_000 else if !Common.smoke then 300 else 2_000 in
  let rates =
    if !Common.full then [ 50.0; 100.0 ] else if !Common.smoke then [ 5.0 ] else [ 20.0; 50.0 ]
  in
  let results, doc = sweep ~accounts ~rates in
  Common.row "%8s | %7s | %9s | %10s | %14s | %14s@." "tx/s" "ledgers" "converged"
    "recoveries" "recover p50" "recover max";
  Common.row "---------+---------+-----------+------------+----------------+---------------@.";
  List.iter
    (fun (rate, (r, recoveries, _heals, q)) ->
      Common.row "%8.0f | %7d | %9b | %10d | %12.1fms | %11.1fms@." rate
        r.Stellar_node.Scenario.ledgers_closed r.Stellar_node.Scenario.converged
        (List.length recoveries)
        (Common.ms q.Obs.Report.p50) (Common.ms q.Obs.Report.max))
    results;
  (* determinism is part of the experiment's contract: the whole sweep run
     again from the same seed must produce the same bytes *)
  let _, doc2 = sweep ~accounts ~rates in
  if not (String.equal (Obs.Json.document doc) (Obs.Json.document doc2)) then
    failwith "fig-liveness: BENCH_faults.json not deterministic across same-seed runs";
  Artifact.write "BENCH_faults.json" doc;
  Common.row "shape check: all rates converged; catchup traced; two runs byte-identical@."
