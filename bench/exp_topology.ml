(* fig7-topology: the production network's shape (Fig. 7, §7.2).
   The paper reports 126 active nodes, 66 participating in consensus, and a
   core of 17 de-facto tier-one validators run by 5 organizations. *)

let run () =
  Common.section "fig7-topology: quorum-slice map of a production-shaped network"
    "Fig. 7: 126 nodes, 66 validators, 17 tier-1 across 5 orgs";
  let leaves = if !Common.full then 99 else 30 in
  let spec, orgs = Stellar_node.Topology.tiered ~leaves () in
  let validators =
    List.length (List.filter spec.Stellar_node.Topology.is_validator
                   (List.init spec.Stellar_node.Topology.n_nodes Fun.id))
  in
  let tier1 =
    List.filter
      (fun o -> o.Quorum_analysis.Synthesis.quality = Quorum_analysis.Synthesis.Critical)
      orgs
  in
  let tier1_validators =
    List.fold_left
      (fun acc o -> acc + List.length o.Quorum_analysis.Synthesis.validators)
      0 tier1
  in
  let edges =
    List.fold_left
      (fun acc i -> acc + List.length (spec.Stellar_node.Topology.peers_of i))
      0
      (List.init spec.Stellar_node.Topology.n_nodes Fun.id)
  in
  (* bidirectional trust edges: both nodes reference each other's org *)
  Common.row "nodes total            : %d (paper: 126)@." spec.Stellar_node.Topology.n_nodes;
  Common.row "consensus validators   : %d (paper: 66)@." validators;
  Common.row "tier-1 validators      : %d across %d orgs (paper: 17 across 5)@."
    tier1_validators (List.length tier1);
  Common.row "overlay links          : %d directed@." edges;
  let config = Stellar_node.Topology.network_config spec in
  let (result, _), dt = Common.time (fun () -> Quorum_analysis.Intersection.check config) in
  Common.row "quorum intersection    : %s (checked in %.2fs)@."
    (match result with
    | Quorum_analysis.Intersection.Intersecting -> "holds"
    | Quorum_analysis.Intersection.Disjoint _ -> "VIOLATED"
    | Quorum_analysis.Intersection.No_quorum -> "no quorum")
    dt;
  Common.row "shape check            : tiered core + leaf watchers, as in Fig. 7@."
