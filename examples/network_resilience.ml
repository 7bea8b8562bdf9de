(* Operating through failures (§3.1.1, §6).

   Three acts on a production-shaped tiered network:

   1. one validator in each of three tier-1 organizations crashes — the
      51% intra-org thresholds absorb it and ledgers keep closing;
   2. an entire tier-1 organization goes dark — by design the 100% critical
      tier halts (a liveness failure, which §3.1.1 argues is vastly
      preferable to a safety failure);
   3. the remaining operators each unilaterally drop the dead org from
      their slices — no coordinated "view change" — and the network resumes,
      while the §6.2 tooling reports the reduced safety margin.

   Run with: dune exec examples/network_resilience.exe *)

open Stellar_node

let () =
  let spec, orgs = Topology.tiered () in
  Format.printf "booting: %s@." (Topology.describe spec);

  (* --- §6.2 pre-flight checks on the collective configuration --- *)
  let as_crit_orgs os =
    List.map
      (fun o ->
        {
          Quorum_analysis.Criticality.name = o.Quorum_analysis.Synthesis.name;
          validators = o.Quorum_analysis.Synthesis.validators;
        })
      os
  in
  let config = Topology.network_config spec in
  (match fst (Quorum_analysis.Intersection.check config) with
  | Quorum_analysis.Intersection.Intersecting ->
      Format.printf "pre-flight: quorum intersection holds@."
  | _ -> failwith "refusing to launch a splittable network");
  let crit = Quorum_analysis.Criticality.critical_orgs config (as_crit_orgs orgs) in
  Format.printf "pre-flight: %d org(s) flagged critical@." (List.length crit);

  (* --- boot --- *)
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:99 in
  let network =
    Stellar_sim.Network.create ~engine ~rng ~n:spec.Topology.n_nodes
      ~latency:Stellar_sim.Latency.wide_area ()
  in
  let genesis, _ = Genesis.make ~n_accounts:10 () in
  let buckets = Stellar_bucket.Bucket_list.of_state genesis in
  let validators =
    Array.init spec.Topology.n_nodes (fun i ->
        Validator.create ~network ~index:i
          ~peers:(spec.Topology.peers_of i)
          ~config:
            (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
               ~qset:(spec.Topology.qset_of i))
          ~genesis ~buckets ())
  in
  Array.iter Validator.start validators;
  let seq i = Stellar_herder.Herder.ledger_seq (Validator.herder validators.(i)) in
  let ids = Topology.node_ids spec in
  let crash_ids victim_ids =
    Array.iteri
      (fun i id -> if List.mem id victim_ids then Stellar_sim.Network.set_down network i true)
      ids
  in

  Stellar_sim.Engine.run ~until:20.0 engine;
  Format.printf "@.t=20s : ledger #%d -- healthy network@." (seq 0);

  (* --- act 1: one validator per org in three orgs --- *)
  let one_of o =
    (* crash the org's last validator (not its overlay gateway) *)
    let vs = o.Quorum_analysis.Synthesis.validators in
    [ List.nth vs (List.length vs - 1) ]
  in
  List.iteri (fun i o -> if i >= 2 && i <= 4 then crash_ids (one_of o)) orgs;
  Format.printf "t=20s : one validator crashes in each of orgs 2, 3, 4@.";
  Stellar_sim.Engine.run ~until:45.0 engine;
  let after_act1 = seq 0 in
  Format.printf "t=45s : ledger #%d -- 51%% org thresholds absorbed the losses@." after_act1;
  assert (after_act1 >= 7);

  (* --- act 2: all of org-1 goes dark --- *)
  let org1 = List.nth orgs 1 in
  crash_ids org1.Quorum_analysis.Synthesis.validators;
  Format.printf "t=45s : ALL of %s crashes (critical tier requires 100%%)@."
    org1.Quorum_analysis.Synthesis.name;
  Stellar_sim.Engine.run ~until:75.0 engine;
  let stalled = seq 0 in
  Format.printf "t=75s : ledger #%d -- network halted, but SAFE (no divergence possible)@."
    stalled;
  assert (stalled <= after_act1 + 2);

  (* --- act 3: unilateral reconfiguration around the outage --- *)
  let surviving_orgs = List.filteri (fun i _ -> i <> 1) orgs in
  let new_qset = Quorum_analysis.Synthesis.quorum_set surviving_orgs in
  Array.iter
    (fun v ->
      if not (Stellar_sim.Network.is_down network (Validator.index v)) then
        Stellar_herder.Herder.set_quorum_set (Validator.herder v) new_qset)
    validators;
  Format.printf "t=75s : operators drop %s from their slices (each acting alone)@."
    org1.Quorum_analysis.Synthesis.name;
  Stellar_sim.Engine.run ~until:110.0 engine;
  let resumed = seq 0 in
  Format.printf "t=110s: ledger #%d -- liveness restored@." resumed;
  assert (resumed > stalled);

  (* live validators still agree on the chain *)
  let live_heads =
    Array.to_list validators
    |> List.filter (fun v ->
           spec.Topology.is_validator (Validator.index v)
           && not (Stellar_sim.Network.is_down network (Validator.index v)))
    |> List.filter_map (fun v -> Stellar_herder.Herder.last_header (Validator.herder v))
    |> List.filter (fun h -> h.Stellar_ledger.Header.ledger_seq = resumed)
    |> List.map Stellar_ledger.Header.hash
    |> List.sort_uniq String.compare
  in
  assert (List.length live_heads = 1);

  (* --- the doctor reports the new, thinner margin --- *)
  let new_config = Quorum_analysis.Synthesis.network_config surviving_orgs in
  (match fst (Quorum_analysis.Intersection.check new_config) with
  | Quorum_analysis.Intersection.Intersecting ->
      Format.printf "post-reconfig: intersection still holds@."
  | _ -> Format.printf "post-reconfig: DANGER -- disjoint quorums possible@.");
  let crit' =
    Quorum_analysis.Criticality.critical_orgs new_config (as_crit_orgs surviving_orgs)
  in
  Format.printf "post-reconfig: %d org(s) critical (was %d) -- operators notified.@."
    (List.length crit') (List.length crit)
