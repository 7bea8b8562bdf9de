(* Fault injection & crash recovery: the Scenario fault interpreter, the
   Validator crash/restart path (archive catchup + straggler help), and the
   regression tests for the flood/dedup/busy-time fixes that rode along. *)

open Stellar_node

let scheme =
  (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string)

let payment ~accounts ~seqs i =
  let j = (i + 1) mod Array.length accounts in
  let src = accounts.(i) and dst = accounts.(j) in
  seqs.(i) <- seqs.(i) + 1;
  let tx =
    Stellar_ledger.Tx.make ~source:src.Genesis.public ~seq_num:seqs.(i)
      [
        Stellar_ledger.Tx.op
          (Stellar_ledger.Tx.Payment
             {
               destination = dst.Genesis.public;
               asset = Stellar_ledger.Asset.native;
               amount = 100;
             });
      ]
  in
  Stellar_ledger.Tx.sign tx ~secret:src.Genesis.secret ~public:src.Genesis.public ~scheme

let scenario_with_faults ?(n = 5) ?(duration = 45.0) ?(rate = 4.0) ?(seed = 21) faults =
  Scenario.run
    {
      (Scenario.default ~spec:(Topology.all_to_all ~n)) with
      Scenario.n_accounts = 50;
      tx_rate = rate;
      duration;
      seed;
      observe = true;
      faults;
    }

let trace_of r =
  match r.Scenario.telemetry with
  | Some c -> Stellar_obs.Collector.trace c
  | None -> Alcotest.fail "scenario ran without telemetry"

(* ---------- fault schedule validation ---------- *)

let validate_tests =
  let open Alcotest in
  let ok s = Result.is_ok (Fault.validate ~n_nodes:4 s) in
  [
    test_case "well-formed schedule accepted" `Quick (fun () ->
        check bool "ok" true
          (ok
             [
               Fault.Crash { node = 1; at = 5.0 };
               Fault.Restart { node = 1; at = 10.0 };
               Fault.Loss { rate = 0.1; from_ = 2.0; until_ = 4.0 };
               Fault.Partition { at = 12.0; groups = [ (0, 0); (1, 0); (2, 1); (3, 1) ] };
               Fault.Heal { at = 20.0 };
               Fault.Reflood { node = 0; at = 15.0; copies = 3 };
             ]));
    test_case "malformed schedules rejected" `Quick (fun () ->
        check bool "node out of range" false (ok [ Fault.Crash { node = 9; at = 1.0 } ]);
        check bool "negative time" false (ok [ Fault.Crash { node = 0; at = -1.0 } ]);
        check bool "restart without crash" false (ok [ Fault.Restart { node = 0; at = 5.0 } ]);
        check bool "double crash" false
          (ok [ Fault.Crash { node = 0; at = 1.0 }; Fault.Crash { node = 0; at = 2.0 } ]);
        check bool "restart before crash in time" false
          (ok [ Fault.Crash { node = 0; at = 9.0 }; Fault.Restart { node = 0; at = 5.0 } ]);
        check bool "loss rate > 1" false
          (ok [ Fault.Loss { rate = 1.5; from_ = 0.0; until_ = 1.0 } ]);
        check bool "empty loss window" false
          (ok [ Fault.Loss { rate = 0.1; from_ = 3.0; until_ = 3.0 } ]);
        check bool "partition missing nodes" false
          (ok [ Fault.Partition { at = 1.0; groups = [ (0, 0); (1, 1) ] } ]);
        check bool "partition duplicate node" false
          (ok [ Fault.Partition { at = 1.0; groups = [ (0, 0); (0, 1); (2, 0); (3, 0) ] } ]);
        check bool "zero reflood copies" false
          (ok [ Fault.Reflood { node = 0; at = 1.0; copies = 0 } ]));
    test_case "scenario rejects invalid schedule" `Quick (fun () ->
        match scenario_with_faults ~duration:1.0 [ Fault.Restart { node = 0; at = 1.0 } ] with
        | exception Failure _ -> ()
        | _ -> fail "invalid schedule accepted");
  ]

(* ---------- validators driven directly ---------- *)

(* Four validators, all-to-all, on datacenter links: for tests that need the
   validators themselves rather than a Scenario report. *)
let validator_net ~seed () =
  let spec = Topology.all_to_all ~n:4 in
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed in
  let network =
    Stellar_sim.Network.create ~engine ~rng ~n:4 ~latency:Stellar_sim.Latency.datacenter ()
  in
  let genesis, accounts = Genesis.make ~n_accounts:20 () in
  let mk i =
    Validator.create ~network ~index:i ~peers:(spec.Topology.peers_of i)
      ~config:
        (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
           ~qset:(spec.Topology.qset_of i))
      ~genesis ()
  in
  let vs = Array.init 4 mk in
  Array.iter Validator.start vs;
  (engine, network, vs, accounts)

(* Submit a payment every 0.4 s, round-robin over the validators that are
   up, and run the engine to [until]; returns the number submitted. *)
let run_load engine vs accounts ~until =
  let seqs = Array.make (Array.length accounts) 0 in
  let tick = ref 0 and sent = ref 0 in
  let rec load () =
    if Stellar_sim.Engine.now engine < until then begin
      let v = vs.(!tick mod Array.length vs) in
      incr tick;
      if not (Validator.is_crashed v) then begin
        Validator.submit_tx v (payment ~accounts ~seqs (!sent mod Array.length accounts));
        incr sent
      end;
      ignore (Stellar_sim.Engine.schedule engine ~delay:0.4 load)
    end
  in
  ignore (Stellar_sim.Engine.schedule engine ~delay:0.2 load);
  Stellar_sim.Engine.run ~until engine;
  !sent

(* ---------- crash / restart round trip ---------- *)

let recovery_tests =
  let open Alcotest in
  [
    test_case "crashed validator rejoins via archive catchup and converges" `Quick
      (fun () ->
        let r =
          scenario_with_faults
            [
              Fault.Crash { node = 4; at = 8.0 };
              Fault.Restart { node = 4; at = 22.0 };
            ]
        in
        check bool "converged" true r.Scenario.converged;
        check bool "not diverged" false r.Scenario.diverged;
        (* the restarted node's chain matches the others' *)
        let c4 = List.assoc 4 r.Scenario.chains and c0 = List.assoc 0 r.Scenario.chains in
        let common = min (List.length c4) (List.length c0) in
        check bool "closed ledgers" true (common > 5);
        check bool "identical prefix" true
          (List.filteri (fun i _ -> i < common) c4
          = List.filteri (fun i _ -> i < common) c0);
        (* catchup events were traced *)
        let trace = trace_of r in
        let crash = ref 0 and restart = ref 0 and cu_begin = ref 0 and cu_done = ref 0 in
        Stellar_obs.Trace.iter trace (fun s ->
            if s.Stellar_obs.Trace.node = 4 then
              match s.Stellar_obs.Trace.event with
              | Stellar_obs.Event.Node_crash -> incr crash
              | Stellar_obs.Event.Node_restart -> incr restart
              | Stellar_obs.Event.Catchup_begin _ -> incr cu_begin
              | Stellar_obs.Event.Catchup_done { to_seq; replayed } ->
                  incr cu_done;
                  check bool "caught up past genesis" true (to_seq > 0);
                  check bool "replay count sane" true (replayed >= 0)
              | _ -> ());
        check int "one crash" 1 !crash;
        check int "one restart" 1 !restart;
        check int "one catchup begin" 1 !cu_begin;
        check int "one catchup done" 1 !cu_done;
        (* the recovery report pairs it all up with a finite time-to-recover *)
        match Stellar_obs.Report.recoveries ~interval:5.0 trace with
        | [ rc ] ->
            check int "node" 4 rc.Stellar_obs.Report.rec_node;
            check bool "resynced" true (rc.Stellar_obs.Report.recover_s <> None);
            check bool "recovered quickly" true
              (Option.get rc.Stellar_obs.Report.recover_s < 15.0)
        | l -> fail (Printf.sprintf "expected 1 recovery, got %d" (List.length l)));
    test_case "restart drops the dedup and wire tables with the process" `Quick
      (fun () ->
        let engine, _, vs, accounts = validator_net ~seed:9 () in
        let v = vs.(3) in
        let before_crash = ref (0, 0) and after_restart = ref (-1, -1) in
        let sizes () = (Validator.seen_size v, Validator.wires_size v) in
        ignore
          (Stellar_sim.Engine.schedule engine ~delay:10.0 (fun () ->
               before_crash := sizes ();
               Validator.crash v));
        ignore
          (Stellar_sim.Engine.schedule engine ~delay:14.0 (fun () ->
               Validator.restart v;
               after_restart := sizes ()));
        ignore (run_load engine vs accounts ~until:40.0);
        Stellar_sim.Engine.run ~until:50.0 engine;
        Array.iter Validator.stop vs;
        check bool "tables filled before the crash" true
          (fst !before_crash > 0 && snd !before_crash > 0);
        check (pair int int) "tables empty right after restart" (0, 0) !after_restart;
        (* restarted from genesis: the ledgers it closes again come from
           straggler help, sent with the helpers' held records *)
        check bool "closes ledgers again" true
          (Stellar_herder.Herder.ledger_seq (Validator.herder v) > 0);
        check bool "wire table refilled" true (Validator.wires_size v > 0));
    test_case "partition heals and the minority converges" `Quick (fun () ->
        let r =
          scenario_with_faults ~duration:50.0
            [
              Fault.Partition
                { at = 10.0; groups = [ (0, 0); (1, 0); (2, 0); (3, 1); (4, 1) ] };
              Fault.Heal { at = 25.0 };
            ]
        in
        check bool "converged" true r.Scenario.converged;
        let trace = trace_of r in
        match Stellar_obs.Report.heals ~interval:5.0 trace with
        | [ h ] ->
            check (list int) "lagged minority" [ 3; 4 ]
              (List.map fst h.Stellar_obs.Report.lagged |> List.sort compare);
            check bool "all resynced" true (h.Stellar_obs.Report.heal_recover_s <> None)
        | l -> fail (Printf.sprintf "expected 1 heal, got %d" (List.length l)));
    test_case "reflooding Byzantine peer wastes bytes but cannot stall" `Quick (fun () ->
        let r =
          scenario_with_faults ~duration:30.0
            [ Fault.Reflood { node = 1; at = 12.0; copies = 5 } ]
        in
        check bool "converged" true r.Scenario.converged;
        (* peers absorbed the copies in their dedup tables *)
        let dups = ref 0 in
        Stellar_obs.Trace.iter (trace_of r) (fun s ->
            match s.Stellar_obs.Trace.event with
            | Stellar_obs.Event.Dedup_drop _ -> incr dups
            | _ -> ());
        check bool "duplicates dropped" true (!dups > 0));
  ]

(* ---------- satellite regressions ---------- *)

let regression_tests =
  let open Alcotest in
  [
    test_case "down node accrues no busy time (restart sees idle CPU)" `Quick (fun () ->
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:5 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:2
            ~latency:(Stellar_sim.Latency.Constant 0.001)
            ~processing:(fun _ -> 0.5)
            ()
        in
        let waits = ref [] in
        Stellar_sim.Network.set_handler network 1 (fun ~src:_ ~info _ ->
            waits := info.Stellar_sim.Network.wait_s :: !waits);
        Stellar_sim.Network.set_down network 1 true;
        (* five messages arrive while node 1 is down: without the fix each
           would advance its CPU queue by 0.5s even though none is
           delivered *)
        for _ = 1 to 5 do
          Stellar_sim.Network.send network ~src:0 ~dst:1 ~size:100 ()
        done;
        Stellar_sim.Engine.run ~until:1.0 engine;
        check int "nothing delivered while down" 0 (List.length !waits);
        Stellar_sim.Network.set_down network 1 false;
        Stellar_sim.Network.send network ~src:0 ~dst:1 ~size:100 ();
        Stellar_sim.Engine.run ~until:3.0 engine;
        match !waits with
        | [ w ] -> check bool "no phantom backlog" true (w < 1e-9)
        | l -> fail (Printf.sprintf "expected 1 delivery, got %d" (List.length l)));
    test_case "flood path encodes each message exactly once network-wide" `Quick (fun () ->
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:6 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:3
            ~latency:(Stellar_sim.Latency.Constant 0.001) ()
        in
        let genesis, accounts = Genesis.make ~n_accounts:4 () in
        let spec = Topology.all_to_all ~n:3 in
        let qset = Scp.Quorum_set.majority (Array.to_list (Topology.node_ids spec)) in
        (* a line 0 - 1 - 2: node 1 receives from the origin and forwards to
           node 2, which forwards to nobody *)
        let peers = [| [ 1 ]; [ 0; 2 ]; [ 1 ] |] in
        let mk i =
          Validator.create ~network ~index:i ~peers:peers.(i)
            ~config:
              {
                (Stellar_herder.Herder.default_config
                   ~seed:(spec.Topology.validator_seed i) ~qset)
                with
                Stellar_herder.Herder.is_validator = false;
              }
            ~genesis ()
        in
        let vs = Array.init 3 mk in
        let seqs = Array.make 4 0 in
        let signed = payment ~accounts ~seqs 0 in
        let before = Message.encode_count () in
        Validator.submit_tx vs.(0) signed;
        Stellar_sim.Engine.run ~until:1.0 engine;
        Array.iter
          (fun v ->
            check int
              (Printf.sprintf "node %d saw the tx" (Validator.index v))
              1
              (Stellar_herder.Herder.queue_size (Validator.herder v)))
          vs;
        (* the origin's wire record carries key and size through both hops *)
        check int "one encode network-wide" 1 (Message.encode_count () - before));
    test_case "flood dedup table stays bounded (entries expire with slots)" `Quick
      (fun () ->
        let engine, _, vs, accounts = validator_net ~seed:7 () in
        let sent = run_load engine vs accounts ~until:115.0 in
        Stellar_sim.Engine.run ~until:120.0 engine;
        Array.iter Validator.stop vs;
        (* ~24 ledgers, ~290 submitted txs: an unbounded table would hold
           every envelope/tx/txset ever flooded (>500 entries); expiry keeps
           only the last few slots' worth *)
        check bool "made progress" true
          (Stellar_herder.Herder.ledger_seq (Validator.herder vs.(0)) >= 20);
        check bool "load submitted" true (sent > 250);
        Array.iter
          (fun v ->
            let sz = Validator.seen_size v and wz = Validator.wires_size v in
            check bool (Printf.sprintf "node %d seen table bounded (%d)" (Validator.index v) sz)
              true (sz < 200);
            check bool (Printf.sprintf "node %d wire table bounded (%d)" (Validator.index v) wz)
              true (wz < 200))
          vs;
        check bool "helped memo bounded" true (Validator.helped_size vs.(0) < 50));
    test_case "straggler help and reflood resend held records, encoding nothing" `Quick
      (fun () ->
        let engine, network, vs, accounts = validator_net ~seed:8 () in
        (* every delivery, tagged with the send it came from *)
        let delivered = ref [] in
        Array.iteri
          (fun i _ ->
            let h = Option.get (Stellar_sim.Network.handler network i) in
            Stellar_sim.Network.set_handler network i (fun ~src ~info w ->
                delivered := (info.Stellar_sim.Network.msg_id, w) :: !delivered;
                h ~src ~info w))
          vs;
        let before = Message.encode_count () in
        ignore
          (Stellar_sim.Engine.schedule engine ~delay:20.0 (fun () ->
               Validator.reflood vs.(1) ~copies:2));
        let sent = run_load engine vs accounts ~until:35.0 in
        (* drain: every send made under load is delivered *)
        Stellar_sim.Engine.run ~until:45.0 engine;
        Array.iter Validator.stop vs;
        let encodes = Message.encode_count () - before in
        let total name =
          Array.fold_left
            (fun acc v ->
              acc
              + Stellar_obs.Registry.counter_value
                  (Stellar_sim.Network.registry network (Validator.index v))
                  name)
            0 vs
        in
        check bool "stragglers helped" true (total "flood.straggler_helped" > 0);
        check bool "refloods" true (total "fault.refloods" = 1);
        (* the only records built are those of the messages the nodes
           originated: their own envelopes, the tx sets they built and the
           txs submitted to them *)
        check int "one encode per flood origin"
          (total "flood.own_envelopes" + total "flood.own_tx_sets" + sent)
          encodes;
        (* all-to-all over 4 nodes without loss: a flood reaches 2 or 3
           peers, so a send delivered exactly once is a straggler-help send *)
        let copies = Hashtbl.create 1024 in
        List.iter
          (fun (id, _) ->
            Hashtbl.replace copies id (1 + Option.value ~default:0 (Hashtbl.find_opt copies id)))
          !delivered;
        let help = List.filter (fun (id, _) -> Hashtbl.find copies id = 1) !delivered in
        check bool "help sends delivered" true (help <> []);
        List.iter
          (fun (_, (w : Message.wire)) ->
            let fresh = Message.wire w.msg in
            check string "held key" fresh.key w.key;
            check int "held size" fresh.size w.size)
          help);
  ]

let () =
  Alcotest.run "faults"
    [
      ("validate", validate_tests);
      ("recovery", recovery_tests);
      ("regressions", regression_tests);
    ]
