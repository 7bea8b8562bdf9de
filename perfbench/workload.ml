(* The three pinned scenarios.  Load is Poisson payments generated in
   simulated time (an open loop): a slow host stretches the run but cannot
   delay or thin the load, so the generator is never late by construction. *)

module Node = Stellar_node
module Fault = Stellar_node.Fault

type t = {
  name : string;
  spec : unit -> Node.Topology.spec;
  n_accounts : int;
  tx_rate : float;
  duration : float;
  faults : Fault.schedule;
  observe : bool;  (** how the timed runs set [Scenario.observe] *)
}

(* fig-liveness's schedule (bench/exp_faults.ml): two nodes crash and rejoin
   from the archive, 5 % loss while they are down, a re-flooder, then
   {4,5,6} split off and heal 15 s later. *)
let liveness_faults : Fault.schedule =
  [
    Fault.Crash { node = 5; at = 12.0 };
    Fault.Crash { node = 6; at = 14.0 };
    Fault.Loss { rate = 0.05; from_ = 18.0; until_ = 24.0 };
    Fault.Restart { node = 5; at = 30.0 };
    Fault.Restart { node = 6; at = 32.0 };
    Fault.Reflood { node = 1; at = 40.0; copies = 4 };
    Fault.Partition
      { at = 45.0; groups = [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 1); (5, 1); (6, 1) ] };
    Fault.Heal { at = 60.0 };
  ]

let all =
  [
    (* Overlay-bound: most deliveries are duplicates, so flooding, dedup
       hashing and encoding dominate and apply does almost nothing. *)
    {
      name = "tiered-flood";
      spec =
        (fun () ->
          fst
            (Node.Topology.tiered
               ~orgs:
                 Quorum_analysis.Synthesis.
                   [ (Critical, 3); (Critical, 3); (Critical, 3); (High, 2); (Medium, 2) ]
               ~leaves:1 ()));
      n_accounts = 1_000;
      tx_rate = 25.0;
      duration = 2.0;
      faults = [];
      observe = false;
    };
    (* The fig-10 shape: large tx sets, so apply, tx-set building and bucket
       merges take their largest share. *)
    {
      name = "payments-4";
      spec = (fun () -> Node.Topology.all_to_all ~n:4);
      n_accounts = 10_000;
      tx_rate = 200.0;
      duration = 20.0;
      faults = [];
      observe = false;
    };
    (* fig-liveness, observed as the figure benches run it: the only workload
       where obs, archive catchup and SCP timeouts do real work. *)
    {
      name = "crash-recovery";
      spec = (fun () -> Node.Topology.all_to_all ~n:7);
      n_accounts = 2_000;
      tx_rate = 20.0;
      duration = 75.0;
      faults = liveness_faults;
      observe = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let params w ~seed ~observe =
  {
    (Node.Scenario.default ~spec:(w.spec ())) with
    Node.Scenario.n_accounts = w.n_accounts;
    tx_rate = w.tx_rate;
    duration = w.duration;
    seed;
    observe;
    faults = w.faults;
  }
