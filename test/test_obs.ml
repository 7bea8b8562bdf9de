(* Tests for the observability subsystem (lib/obs): metric registries,
   structured tracing, spans, report derivation, and the determinism
   contract BENCH_phases.json depends on. *)

module Obs = Stellar_obs

(* ---- registry ---- *)

let test_counter_monotonic () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "scp.ballot.prepare" in
  let prev = ref 0 in
  for i = 1 to 100 do
    if i mod 3 = 0 then Obs.Registry.add c 2 else Obs.Registry.incr c;
    let v = Obs.Registry.counter_value r "scp.ballot.prepare" in
    Alcotest.(check bool) "monotone" true (v > !prev);
    prev := v
  done;
  (* re-registration returns the same handle *)
  let c' = Obs.Registry.counter r "scp.ballot.prepare" in
  Obs.Registry.incr c';
  Alcotest.(check int) "shared handle" (!prev + 1)
    (Obs.Registry.counter_value r "scp.ballot.prepare")

let test_kind_mismatch () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r "x");
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument "Registry: x already registered as a counter, wanted a gauge")
    (fun () -> ignore (Obs.Registry.gauge r "x"))

let test_merge () =
  let a = Obs.Registry.create () and b = Obs.Registry.create () in
  Obs.Registry.add (Obs.Registry.counter a "c") 3;
  Obs.Registry.add (Obs.Registry.counter b "c") 4;
  Obs.Registry.set (Obs.Registry.gauge a "g") 1.5;
  Obs.Registry.set (Obs.Registry.gauge b "g") 2.5;
  let m = Obs.Registry.merge [ a; b ] in
  Alcotest.(check int) "counters add" 7 (Obs.Registry.counter_value m "c");
  Alcotest.(check (float 1e-9)) "gauges sum" 4.0 (Obs.Registry.gauge_value m "g")

(* The one rank rule: the sample at floor(q·(n−1)) of the sorted samples,
   no interpolation.  43 samples, an uneven spread with repeats over 18
   values (value i repeated 1 + i mod 4 times); the ranks 0, 21, 31, 37,
   41 and 42 land on values 0, 9, 13, 15, 17 and 17. *)
let test_report_percentiles () =
  let values =
    [|
      0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25;
      0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 60.0;
    |]
  in
  let samples =
    List.concat (List.init (Array.length values) (fun i -> List.init (1 + (i mod 4)) (fun _ -> values.(i))))
  in
  List.iter
    (fun (q, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f" (q *. 100.0))
        want (Obs.Report.percentile samples q))
    [ (0.0, 0.0001); (0.5, 0.1); (0.75, 2.5); (0.9, 10.0); (0.99, 60.0); (1.0, 60.0) ];
  let s = Obs.Report.quantiles samples in
  Alcotest.(check (list (float 0.0)))
    "Report.quantiles uses the same rank" [ 43.0; 0.1; 2.5; 60.0; 60.0 ]
    [ float_of_int s.Obs.Report.n; s.p50; s.p75; s.p99; s.max ];
  (* no interpolation: floor(0.99 * (2 - 1)) = 0, the smaller sample *)
  Alcotest.(check (float 0.0)) "p99 of two samples" 0.001
    (Obs.Report.percentile [ 0.5; 0.001 ] 0.99)

(* ---- null sink is inert ---- *)

let test_null_sink () =
  Alcotest.(check bool) "disabled" false (Obs.Sink.enabled Obs.Sink.null);
  Obs.Registry.incr (Obs.Sink.counter Obs.Sink.null "c");
  Obs.Registry.add (Obs.Sink.counter Obs.Sink.null "c") 2;
  Obs.Registry.set (Obs.Sink.gauge Obs.Sink.null "g") 1.0;
  Obs.Sink.emit Obs.Sink.null (Obs.Event.Externalize { slot = 1 });
  Alcotest.(check int) "no metrics recorded" 0
    (List.length (Obs.Registry.names (Obs.Sink.metrics Obs.Sink.null)))

(* ---- network traffic counters ---- *)

let test_network_stats_wrapper () =
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:42 in
  let net =
    Stellar_sim.Network.create ~engine ~rng ~n:2 ~latency:Stellar_sim.Latency.datacenter ()
  in
  Stellar_sim.Network.set_handler net 1 (fun ~src:_ ~info:_ _ -> ());
  Stellar_sim.Network.send net ~src:0 ~dst:1 ~size:100 "hello";
  Stellar_sim.Network.send net ~src:0 ~dst:1 ~size:50 "again";
  Stellar_sim.Engine.run engine;
  let count i = Obs.Registry.counter_value (Stellar_sim.Network.registry net i) in
  Alcotest.(check int) "sent msgs" 2 (count 0 "overlay.msgs.sent");
  Alcotest.(check int) "sent bytes" 150 (count 0 "overlay.bytes.sent");
  Alcotest.(check int) "recv msgs" 2 (count 1 "overlay.msgs.received");
  Alcotest.(check int) "recv bytes" 150 (count 1 "overlay.bytes.received")

(* ---- end-to-end determinism (the BENCH_phases.json contract) ---- *)

let observed_run ?(observe = true) seed =
  let spec = Stellar_node.Topology.all_to_all ~n:4 in
  Stellar_node.Scenario.run
    {
      (Stellar_node.Scenario.default ~spec) with
      Stellar_node.Scenario.tx_rate = 10.0;
      duration = 30.0;
      seed;
      observe;
    }

(* The report's traffic figures come from the network's always-on node
   registry, so observing a run must not change them. *)
let test_observe_same_accounting () =
  let o = observed_run 5 and u = observed_run ~observe:false 5 in
  let open Stellar_node.Scenario in
  Alcotest.(check bool) "unobserved has no telemetry" true (u.telemetry = None);
  Alcotest.(check (float 0.0)) "envelopes_per_ledger" o.envelopes_per_ledger
    u.envelopes_per_ledger;
  Alcotest.(check bool) "envelopes counted" true (o.envelopes_per_ledger > 0.0);
  Alcotest.(check int) "bytes_in_total" o.bytes_in_total u.bytes_in_total;
  Alcotest.(check int) "bytes_out_total" o.bytes_out_total u.bytes_out_total;
  Alcotest.(check (float 0.0)) "msgs_per_second_per_node" o.msgs_per_second_per_node
    u.msgs_per_second_per_node

(* Four validators built directly on a network under payment load; [trace]
   is the only difference between twins.  Returns each node's registry. *)
let validator_registries ?trace () =
  let module N = Stellar_node in
  let spec = N.Topology.all_to_all ~n:4 in
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:13 in
  let network =
    Stellar_sim.Network.create ~engine ~rng ~n:4 ~latency:Stellar_sim.Latency.datacenter ()
  in
  let genesis, accounts = N.Genesis.make ~n_accounts:12 () in
  let vs =
    Array.init 4 (fun i ->
        N.Validator.create ~network ~index:i ~peers:(spec.N.Topology.peers_of i)
          ~config:
            (Stellar_herder.Herder.default_config ~seed:(spec.N.Topology.validator_seed i)
               ~qset:(spec.N.Topology.qset_of i))
          ~genesis ?trace ())
  in
  Array.iter N.Validator.start vs;
  (* one payment per account, spread over the validators and the run *)
  Array.iteri
    (fun i (src : N.Genesis.account) ->
      let dst = accounts.((i + 1) mod Array.length accounts) in
      let tx =
        Stellar_ledger.Tx.make ~source:src.public ~seq_num:1
          [
            Stellar_ledger.Tx.op
              (Stellar_ledger.Tx.Payment
                 { destination = dst.public; asset = Stellar_ledger.Asset.native; amount = 100 });
          ]
      in
      let signed =
        Stellar_ledger.Tx.sign tx ~secret:src.secret ~public:src.public
          ~scheme:
            (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME
              with type secret = string)
      in
      ignore
        (Stellar_sim.Engine.schedule engine ~delay:(1.0 +. float_of_int i) (fun () ->
             N.Validator.submit_tx vs.(i mod 4) signed)))
    accounts;
  Stellar_sim.Engine.run ~until:30.0 engine;
  Array.init 4 (Stellar_sim.Network.registry network)

(* A node's registry counts whether or not the run is traced: every
   subsystem of an untraced validator counts in [Network.registry], and the
   values equal a traced twin's. *)
let test_untraced_counts () =
  let trace = Obs.Trace.create () in
  let traced = validator_registries ~trace () and untraced = validator_registries () in
  Alcotest.(check bool) "twin traced" true (Obs.Trace.length trace > 0);
  let dump reg =
    List.map
      (fun name -> (name, Obs.Registry.counter_value reg name, Obs.Registry.gauge_value reg name))
      (Obs.Registry.names reg)
  in
  Array.iteri
    (fun i reg ->
      let count = Obs.Registry.counter_value reg in
      List.iter
        (fun name ->
          Alcotest.(check bool) (Printf.sprintf "node %d counts %s" i name) true (count name > 0))
        [ "scp.nominate.start"; "scp.ballot.bump"; "scp.ballot.externalize"; "ledger.closed";
          "ledger.tx.success"; "ledger.ops.applied"; "bucket.merge" ];
      Alcotest.(check bool)
        (Printf.sprintf "node %d keeps herder.queue.size" i)
        true
        (List.mem "herder.queue.size" (Obs.Registry.names reg));
      Alcotest.(check (list (triple string int (float 0.0))))
        (Printf.sprintf "node %d equals its traced twin" i)
        (dump traced.(i)) (dump reg))
    untraced

(* Fig. 8's timeouts per ledger come from node 0's [scp.timeout.*]
   counters.  A short Fig. 8-shaped run (jittered links with frequent
   spikes, fixed seed) gives these fixed values, observed or not. *)
let test_fig8_timeouts () =
  let run observe =
    let spec = Stellar_node.Topology.all_to_all ~n:4 in
    Stellar_node.Scenario.run
      {
        (Stellar_node.Scenario.default ~spec) with
        Stellar_node.Scenario.n_accounts = 100;
        tx_rate = 2.0;
        duration = 60.0;
        latency =
          Stellar_sim.Latency.Jittered { base = 0.04; jitter = 0.12; spike_prob = 0.9; spike = 2.5 };
        seed = 3;
        observe;
      }
  in
  let fields (q : Obs.Report.quantiles) = [ float_of_int q.n; q.mean; q.p50; q.p75; q.p99; q.max ] in
  List.iter
    (fun observe ->
      let r = run observe in
      let label what = Printf.sprintf "%s (observe=%b)" what observe in
      Alcotest.(check int) (label "ledgers") 12 r.Stellar_node.Scenario.ledgers_closed;
      Alcotest.(check (list (float 0.0)))
        (label "nomination timeouts: n mean p50 p75 p99 max")
        [ 10.0; 1.7; 2.0; 2.0; 2.0; 2.0 ]
        (fields r.Stellar_node.Scenario.nomination_timeouts_per_ledger);
      Alcotest.(check (list (float 0.0)))
        (label "ballot timeouts: n mean p50 p75 p99 max")
        [ 10.0; 1.1; 1.0; 1.0; 1.0; 2.0 ]
        (fields r.Stellar_node.Scenario.ballot_timeouts_per_ledger))
    [ false; true ]

let test_trace_deterministic () =
  let r1 = observed_run 5 and r2 = observed_run 5 in
  let t1 = Option.get r1.Stellar_node.Scenario.telemetry in
  let t2 = Option.get r2.Stellar_node.Scenario.telemetry in
  let j1 = Obs.Trace.to_jsonl (Obs.Collector.trace t1) in
  let j2 = Obs.Trace.to_jsonl (Obs.Collector.trace t2) in
  Alcotest.(check bool) "trace non-empty" true (String.length j1 > 0);
  Alcotest.(check string) "JSONL byte-identical" j1 j2;
  let report c =
    let tr = Obs.Collector.trace c in
    Obs.Json.compact
      (List
         [
           Obs.Report.breakdown_json (Obs.Report.breakdown tr);
           Obs.Report.phases_json (Obs.Report.slot_phases tr);
           Obs.Report.flood_json (Obs.Report.flood_stats tr);
         ])
  in
  Alcotest.(check string) "derived report identical" (report t1) (report t2)

let test_trace_phases_sane () =
  let r = observed_run 5 in
  let c = Option.get r.Stellar_node.Scenario.telemetry in
  let ph = Obs.Report.slot_phases (Obs.Collector.trace c) in
  Alcotest.(check bool) "some slots measured" true (List.length ph > 0);
  List.iter
    (fun p ->
      let open Obs.Report in
      Alcotest.(check bool) "phases non-negative" true
        (p.nomination_s >= 0.0 && p.ballot_s >= 0.0 && p.apply_s > 0.0);
      Alcotest.(check (float 1e-9)) "total = nom + ballot + apply"
        (p.nomination_s +. p.ballot_s +. p.apply_s)
        p.total_s)
    ph;
  (* the herder's own stopwatch and the trace agree on how many ledgers
     node 0 closed *)
  Alcotest.(check bool) "slot count matches ledgers closed" true
    (List.length ph >= r.Stellar_node.Scenario.ledgers_closed - 1);
  (* validator.helped.size gauge appears once pruning has run (satellite 1) *)
  let names = Obs.Registry.names (Obs.Collector.registry c 0) in
  Alcotest.(check bool) "helped-size gauge exported" true
    (List.mem "validator.helped.size" names);
  Alcotest.(check bool) "helped table bounded" true
    (Obs.Registry.gauge_value (Obs.Collector.registry c 0) "validator.helped.size" >= 0.0)

let test_flood_amplification () =
  let r = observed_run 5 in
  let c = Option.get r.Stellar_node.Scenario.telemetry in
  let fl = Obs.Report.flood_stats (Obs.Collector.trace c) in
  Alcotest.(check int) "every node floods" 4 (List.length fl);
  List.iter
    (fun (_, f) ->
      let open Obs.Report in
      Alcotest.(check bool) "amplification >= 1" true (f.amplification >= 1.0);
      Alcotest.(check int) "recv + dropped consistent"
        (f.received + f.dup_dropped)
        (int_of_float (f.amplification *. float_of_int f.received +. 0.5)))
    fl

(* ---- causal tracing: flood DAG, tx lifecycle, critical path ---- *)

(* one shared observed run for the causal-section tests *)
let causal_trace =
  lazy
    (let r = observed_run 9 in
     (r, Obs.Collector.trace (Option.get r.Stellar_node.Scenario.telemetry)))

(* Every delivery names the send that produced it: send ids are unique per
   Flood_send, every Flood_recv's send_id resolves to exactly one of them,
   the send precedes the recv in time, and the payload sizes agree. *)
let test_causal_pairing () =
  let _, trace = Lazy.force causal_trace in
  let sends = Hashtbl.create 1024 in
  let n_recv = ref 0 in
  Obs.Trace.iter trace (fun s ->
      match s.Obs.Trace.event with
      | Obs.Event.Flood_send { msg_id; bytes; _ } ->
          Alcotest.(check bool) "msg ids tagged" true (msg_id >= 1);
          Alcotest.(check bool)
            (Printf.sprintf "msg id %d unique" msg_id)
            false (Hashtbl.mem sends msg_id);
          Hashtbl.add sends msg_id (s.Obs.Trace.time, bytes)
      | _ -> ());
  Obs.Trace.iter trace (fun s ->
      match s.Obs.Trace.event with
      | Obs.Event.Flood_recv { send_id; bytes; link_s; wait_s; proc_s; _ } ->
          incr n_recv;
          (match Hashtbl.find_opt sends send_id with
          | None -> Alcotest.failf "recv names unknown send id %d" send_id
          | Some (t_send, b_send) ->
              Alcotest.(check bool) "send before recv" true (t_send <= s.Obs.Trace.time);
              Alcotest.(check int) "payload bytes match" b_send bytes;
              (* delivery decomposition reconstructs the trace timestamp *)
              Alcotest.(check (float 1e-9)) "recv time = send + link + wait + proc"
                (t_send +. link_s +. wait_s +. proc_s)
                s.Obs.Trace.time)
      | _ -> ());
  Alcotest.(check bool) "deliveries observed" true (!n_recv > 0)

(* Lifecycle events for each tx appear in causal order, and the scenario's
   own counters corroborate the trace-derived ones. *)
let test_tx_lifecycle () =
  let r, trace = Lazy.force causal_trace in
  let lives = Obs.Report.tx_lives trace in
  let e2e = Obs.Report.e2e_latency trace in
  Alcotest.(check int) "every submitted tx traced"
    r.Stellar_node.Scenario.txs_submitted e2e.Obs.Report.n_submitted;
  Alcotest.(check int) "every applied tx traced" r.Stellar_node.Scenario.txs_applied
    e2e.Obs.Report.n_applied;
  Alcotest.(check bool) "some txs externalized" true (e2e.Obs.Report.n_externalized > 0);
  List.iter
    (fun l ->
      let open Obs.Report in
      match l.submitted with
      | None -> ()
      | Some t_sub ->
          (match l.first_flood with
          | Some t_fl -> Alcotest.(check bool) "submit <= flood" true (t_sub <= t_fl)
          | None -> ());
          (match l.externalized with
          | Some (_, t_ext) ->
              Alcotest.(check bool) "submit <= externalize" true (t_sub <= t_ext);
              (match l.applied with
              | Some t_app ->
                  Alcotest.(check bool) "externalize <= apply" true (t_ext <= t_app)
              | None -> ())
          | None -> ()))
    lives

(* The acceptance criterion: per externalized slot, the critical-path
   attribution (network + timer + cpu) equals the nominate-start →
   externalize duration to within 1 µs of simulated time. *)
let test_critical_path_attribution () =
  let r, trace = Lazy.force causal_trace in
  let cps = Obs.Report.critical_paths trace in
  Alcotest.(check bool) "paths for most closed ledgers" true
    (List.length cps >= r.Stellar_node.Scenario.ledgers_closed - 1);
  List.iter
    (fun cp ->
      let open Obs.Report in
      Alcotest.(check bool) "segments non-negative" true
        (cp.network_s >= 0.0 && cp.timer_s >= 0.0 && cp.cpu_s >= 0.0);
      Alcotest.(check bool) "path has hops or pure-local slot" true
        (cp.hops <> [] || cp.cp_total_s < 0.1);
      Alcotest.(check bool)
        (Printf.sprintf "slot %d: attribution sums to duration (1us)" cp.cp_slot)
        true
        (Float.abs (cp.network_s +. cp.timer_s +. cp.cpu_s -. cp.cp_total_s) < 1e-6);
      Alcotest.(check (float 1e-9)) "total = externalize - start"
        (cp.t_externalize -. cp.t_start) cp.cp_total_s;
      (* hops are causally ordered and intra-slot *)
      ignore
        (List.fold_left
           (fun prev h ->
             Alcotest.(check bool) "hop send <= recv" true (h.sent_at <= h.recv_at);
             Alcotest.(check bool) "hops causally ordered" true (prev <= h.recv_at);
             h.recv_at)
           neg_infinity cp.hops))
    cps

(* The fig-e2e contract: e2e + critical-path JSON byte-identical across two
   same-seed runs. *)
let test_e2e_deterministic () =
  let json seed =
    let r = observed_run seed in
    let tr = Obs.Collector.trace (Option.get r.Stellar_node.Scenario.telemetry) in
    Obs.Json.compact
      (List
         [
           Obs.Report.e2e_json (Obs.Report.e2e_latency tr);
           Obs.Report.critical_paths_json (Obs.Report.critical_paths tr);
         ])
  in
  let j1 = json 9 and j2 = json 9 in
  Alcotest.(check bool) "non-empty" true (String.length j1 > 60);
  Alcotest.(check string) "e2e + critical path byte-identical" j1 j2

(* Bounded trace memory (satellite): events past the capacity are dropped
   and counted, never silently lost. *)
let test_trace_capacity () =
  let clock = ref 0.0 in
  let trace = Obs.Trace.create ~capacity:3 () in
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.make ~trace ~node:0 ~now:(fun () -> !clock) reg in
  for slot = 1 to 5 do
    clock := float_of_int slot;
    Obs.Sink.emit sink (Obs.Event.Externalize { slot })
  done;
  Alcotest.(check int) "capacity respected" 3 (Obs.Trace.length trace);
  Alcotest.(check int) "drops counted on trace" 2 (Obs.Trace.dropped trace);
  Alcotest.(check int) "drops exported as metric" 2
    (Obs.Registry.counter_value reg "obs.trace.dropped");
  (* the retained prefix is the earliest events, untouched *)
  match Obs.Trace.events trace with
  | [ e1; _; e3 ] ->
      Alcotest.(check (float 1e-9)) "first kept" 1.0 e1.Obs.Trace.time;
      Alcotest.(check (float 1e-9)) "third kept" 3.0 e3.Obs.Trace.time
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l)

(* Dedup drops carry payload bytes (satellite): wasted bandwidth is
   reported in bytes and corroborated by the flood.dup_bytes counter. *)
let test_dedup_bytes () =
  let r, trace = Lazy.force causal_trace in
  let fl = Obs.Report.flood_stats trace in
  let total_dup_bytes =
    List.fold_left (fun a (_, f) -> a + f.Obs.Report.dup_bytes) 0 fl
  in
  Alcotest.(check bool) "duplicates observed" true (total_dup_bytes > 0);
  List.iter
    (fun (_, f) ->
      let open Obs.Report in
      Alcotest.(check bool) "bytes iff drops" true ((f.dup_bytes > 0) = (f.dup_dropped > 0)))
    fl;
  let agg =
    Obs.Collector.aggregate (Option.get r.Stellar_node.Scenario.telemetry)
  in
  Alcotest.(check int) "trace agrees with flood.dup_bytes counter"
    (Obs.Registry.counter_value agg "flood.dup_bytes")
    total_dup_bytes

(* ---- the JSON writer and the artifact checks ---- *)

let test_json_document () =
  let open Obs.Json in
  Alcotest.(check string) "one layout rule"
    {|{
  "a": 1,
  "counters": {
    "x": 1,
    "y": 0.50
  },
  "rates": [{"r":1,"q":{}},
    {"r":2,"q":[]}],
  "flat": [{"s":1},{"s":2}],
  "nested": {"n":{"m":null}},
  "empty": {},
  "scalars": [true,"s",-3]
}
|}
    (document
       [
         ("a", Int 1);
         ("counters", Obj [ ("x", Int 1); ("y", Fixed (2, 0.5)) ]);
         ("rates", List [ Obj [ ("r", Int 1); ("q", Obj []) ]; Obj [ ("r", Int 2); ("q", List []) ] ]);
         ("flat", List [ Obj [ ("s", Int 1) ]; Obj [ ("s", Int 2) ] ]);
         ("nested", Obj [ ("n", Obj [ ("m", Null) ]) ]);
         ("empty", Obj []);
         ("scalars", List [ Bool true; String "s"; Int (-3) ]);
       ])

let test_json_scalars () =
  let open Obs.Json in
  let c = Alcotest.(check string) in
  c "escaped" {|"q\"b\\s\n\r\t\u0001\u001f/é"|} (compact (String "q\"b\\s\n\r\t\001\031/é"));
  c "escaped keys" {|{"k\"":false}|} (compact (Obj [ ("k\"", Bool false) ]));
  c "digits" "[0.100000000,60.0,-1.235,2,12.2038]"
    (compact
       (List [ Fixed (9, 0.1); Fixed (1, 60.0); Fixed (3, -1.23456); Fixed (0, 2.5); Fixed (4, 12.20381) ]));
  List.iter
    (fun x ->
      match compact (List [ Fixed (6, x) ]) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "non-finite float written as %s" s)
    [ nan; infinity; neg_infinity ];
  match document [ ("x", Fixed (6, nan)) ] with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "non-finite float written as %s" s

(* One event of every payload shape, printed as the trace format has
   always printed it. *)
let test_trace_golden () =
  let trace = Obs.Trace.create () in
  List.iteri
    (fun i ev -> Obs.Trace.record trace ~time:(0.125 *. float_of_int i) ~node:(i mod 3) ev)
    Obs.Event.
      [
        Nominate_start { slot = 2 };
        Nomination_round { slot = 2; round = 1 };
        First_vote { slot = 2; counter = 1 };
        Ballot_bump { slot = 2; counter = 3 };
        Confirm_prepare { slot = 2 };
        Externalize { slot = 2 };
        Timeout_fired { slot = 2; kind = `Nomination };
        Timeout_fired { slot = 3; kind = `Ballot };
        Flood_send { kind = "envelope"; bytes = 180; fanout = 3; msg_id = 7 };
        Flood_recv
          {
            kind = "txset";
            bytes = 44;
            src = 1;
            send_id = 7;
            link_s = 0.0125;
            wait_s = 1e-10;
            proc_s = 0.000333;
          };
        Dedup_drop { kind = "tx"; src = 2; bytes = 96 };
        Apply_begin { slot = 2; txs = 4; ops = 5 };
        Apply_end { slot = 2; txs = 4; ops = 5 };
        Bucket_merge { level = 1; entries = 12 };
        Tx_submit { tx = "ab01" };
        Tx_flooded { tx = "ab01" };
        Tx_in_txset { tx = "ab01"; slot = 2 };
        Tx_externalized { tx = "ab01"; slot = 2 };
        Tx_applied { tx = "ab01"; slot = 2; ok = true };
        Tx_applied { tx = "cd02"; slot = 2; ok = false };
        Tx_dropped { tx = "cd02"; reason = `Duplicate };
        Tx_dropped { tx = "ef03"; reason = `Stale };
        Node_crash;
        Node_restart;
        Partition_begin { groups = [ 0; 0; 1 ] };
        Partition_begin { groups = [] };
        Partition_heal;
        Catchup_begin { from_seq = 8 };
        Catchup_done { to_seq = 11; replayed = 3 };
      ];
  let expected =
    [
      {|{"seq":0,"t":0.000000,"node":0,"ev":"nominate.start","slot":2}|};
      {|{"seq":1,"t":0.125000,"node":1,"ev":"nomination.round","slot":2,"round":1}|};
      {|{"seq":2,"t":0.250000,"node":2,"ev":"ballot.first","slot":2,"counter":1}|};
      {|{"seq":3,"t":0.375000,"node":0,"ev":"ballot.bump","slot":2,"counter":3}|};
      {|{"seq":4,"t":0.500000,"node":1,"ev":"phase.confirm","slot":2}|};
      {|{"seq":5,"t":0.625000,"node":2,"ev":"phase.externalize","slot":2}|};
      {|{"seq":6,"t":0.750000,"node":0,"ev":"timeout","slot":2,"kind":"nomination"}|};
      {|{"seq":7,"t":0.875000,"node":1,"ev":"timeout","slot":3,"kind":"ballot"}|};
      {|{"seq":8,"t":1.000000,"node":2,"ev":"flood.send","kind":"envelope","bytes":180,"fanout":3,"msg_id":7}|};
      {|{"seq":9,"t":1.125000,"node":0,"ev":"flood.recv","kind":"txset","bytes":44,"src":1,"send_id":7,"link_s":0.012500000,"wait_s":0.000000000,"proc_s":0.000333000}|};
      {|{"seq":10,"t":1.250000,"node":1,"ev":"flood.dup","kind":"tx","src":2,"bytes":96}|};
      {|{"seq":11,"t":1.375000,"node":2,"ev":"apply.begin","slot":2,"txs":4,"ops":5}|};
      {|{"seq":12,"t":1.500000,"node":0,"ev":"apply.end","slot":2,"txs":4,"ops":5}|};
      {|{"seq":13,"t":1.625000,"node":1,"ev":"bucket.merge","level":1,"entries":12}|};
      {|{"seq":14,"t":1.750000,"node":2,"ev":"tx.submit","tx":"ab01"}|};
      {|{"seq":15,"t":1.875000,"node":0,"ev":"tx.flooded","tx":"ab01"}|};
      {|{"seq":16,"t":2.000000,"node":1,"ev":"tx.txset","tx":"ab01","slot":2}|};
      {|{"seq":17,"t":2.125000,"node":2,"ev":"tx.externalized","tx":"ab01","slot":2}|};
      {|{"seq":18,"t":2.250000,"node":0,"ev":"tx.applied","tx":"ab01","slot":2,"ok":true}|};
      {|{"seq":19,"t":2.375000,"node":1,"ev":"tx.applied","tx":"cd02","slot":2,"ok":false}|};
      {|{"seq":20,"t":2.500000,"node":2,"ev":"tx.dropped","tx":"cd02","reason":"duplicate"}|};
      {|{"seq":21,"t":2.625000,"node":0,"ev":"tx.dropped","tx":"ef03","reason":"stale"}|};
      {|{"seq":22,"t":2.750000,"node":1,"ev":"fault.crash"}|};
      {|{"seq":23,"t":2.875000,"node":2,"ev":"fault.restart"}|};
      {|{"seq":24,"t":3.000000,"node":0,"ev":"fault.partition","groups":[0,0,1]}|};
      {|{"seq":25,"t":3.125000,"node":1,"ev":"fault.partition","groups":[]}|};
      {|{"seq":26,"t":3.250000,"node":2,"ev":"fault.heal"}|};
      {|{"seq":27,"t":3.375000,"node":0,"ev":"catchup.begin","from_seq":8}|};
      {|{"seq":28,"t":3.500000,"node":1,"ev":"catchup.done","to_seq":11,"replayed":3}|};
    ]
  in
  Alcotest.(check string) "JSONL"
    (String.concat "" (List.map (fun l -> l ^ "\n") expected))
    (Obs.Trace.to_jsonl trace)

(* Fault.validate allows a crash with no restart: the recovery has no
   restart time, and its JSON says null rather than nan. *)
let test_crash_without_restart () =
  let trace = Obs.Trace.create () in
  Obs.Trace.record trace ~time:1.0 ~node:0 (Obs.Event.Externalize { slot = 2 });
  Obs.Trace.record trace ~time:4.0 ~node:3 Obs.Event.Node_crash;
  match Obs.Report.recoveries trace with
  | [ rc ] ->
      Alcotest.(check (option (float 0.0))) "no restart" None rc.Obs.Report.t_restart;
      Alcotest.(check string) "null in JSON"
        {|[{"node":3,"t_crash":4.000000,"t_restart":null,"catchup_from":0,"catchup_to":0,"replayed":0,"t_resync":null,"recover_s":null}]|}
        (Obs.Json.compact (Obs.Report.recoveries_json [ rc ]))
  | l -> Alcotest.failf "expected 1 recovery, got %d" (List.length l)

let rejects what f =
  match f () with
  | exception Failure _ -> ()
  | () -> Alcotest.failf "accepted %s" what

let test_attribution_check () =
  let cp total =
    Obs.Report.
      {
        cp_slot = 3;
        cp_node = 0;
        t_start = 1.0;
        t_externalize = 1.0 +. total;
        hops = [];
        network_s = 0.5;
        timer_s = 0.25;
        cpu_s = 0.125;
        cp_total_s = total;
      }
  in
  Obs.Report.check_attribution [ cp 0.875; cp (0.875 +. 0.9e-6) ];
  rejects "a slot off by 2 us" (fun () -> Obs.Report.check_attribution [ cp 0.875; cp 0.875002 ]);
  rejects "a nan total" (fun () -> Obs.Report.check_attribution [ cp nan ])

let e2e_point ~total_ms =
  Obs.Json.(
    Obj
      [
        ("rate", Fixed (1, 10.0));
        ( "critical_path",
          Obj
            [
              ("network_ms", Fixed (6, 4.0));
              ("timer_ms", Fixed (6, 5.0));
              ("cpu_ms", Fixed (6, 1.0));
              ("total_ms", Fixed (6, total_ms));
            ] );
      ])

let e2e_doc points =
  Obs.Json.
    [
      ("experiment", String "fig-e2e");
      ("seed", Int 11);
      ("nodes", Int 4);
      ("accounts", Int 500);
      ("rates", List points);
    ]

let fault_point ?(converged = true) recoveries =
  Obs.Json.(
    Obj
      [
        ("rate", Fixed (1, 5.0));
        ("converged", Bool converged);
        ( "recoveries",
          List (List.map (fun r -> Obj [ ("node", Int 5); ("recover_s", r) ]) recoveries) );
      ])

let faults_doc points =
  Obs.Json.
    [
      ("experiment", String "fig-liveness");
      ("seed", Int 17);
      ("nodes", Int 7);
      ("accounts", Int 300);
      ("duration_s", Fixed (1, 75.0));
      ("rates", List points);
    ]

let test_artifact_checks () =
  let e2e = Artifact.check "BENCH_e2e.json" and faults = Artifact.check "BENCH_faults.json" in
  let resynced = Obs.Json.Fixed (6, 0.5) in
  e2e (e2e_doc [ e2e_point ~total_ms:10.0; e2e_point ~total_ms:10.0009 ]);
  faults (faults_doc [ fault_point [ resynced; resynced ] ]);
  rejects "a missing key" (fun () -> e2e (List.remove_assoc "accounts" (e2e_doc [ e2e_point ~total_ms:10.0 ])));
  rejects "a missing key" (fun () -> Artifact.check "BENCH_resources.json" [ ("experiment", Obs.Json.String "tab-resources") ]);
  rejects "an empty e2e sweep" (fun () -> e2e (e2e_doc []));
  rejects "an empty faults sweep" (fun () -> faults (faults_doc []));
  rejects "a rate point off by 2 us" (fun () ->
      e2e (e2e_doc [ e2e_point ~total_ms:10.0; e2e_point ~total_ms:10.002 ]));
  rejects "a non-converged point" (fun () ->
      faults (faults_doc [ fault_point ~converged:false [ resynced ] ]));
  rejects "a point with no recovery" (fun () -> faults (faults_doc [ fault_point [] ]));
  rejects "an unresynced recovery" (fun () ->
      faults (faults_doc [ fault_point [ resynced; Obs.Json.Null ] ]));
  rejects "an artifact with no checks" (fun () -> Artifact.check "BENCH_other.json" [])

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ("report", [ Alcotest.test_case "percentile rank rule" `Quick test_report_percentiles ]);
      ( "sink",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
        ] );
      ( "network",
        [ Alcotest.test_case "stats wrapper" `Quick test_network_stats_wrapper ] );
      ( "determinism",
        [
          Alcotest.test_case "trace byte-identical" `Quick test_trace_deterministic;
          Alcotest.test_case "observed = unobserved accounting" `Quick
            test_observe_same_accounting;
          Alcotest.test_case "untraced validators count like traced twins" `Quick
            test_untraced_counts;
          Alcotest.test_case "fig8 timeouts pinned, observed = unobserved" `Quick
            test_fig8_timeouts;
          Alcotest.test_case "phase breakdown sane" `Quick test_trace_phases_sane;
          Alcotest.test_case "flood amplification" `Quick test_flood_amplification;
        ] );
      ( "causal",
        [
          Alcotest.test_case "flood send/recv pairing" `Quick test_causal_pairing;
          Alcotest.test_case "tx lifecycle ordering" `Quick test_tx_lifecycle;
          Alcotest.test_case "critical-path attribution" `Quick
            test_critical_path_attribution;
          Alcotest.test_case "e2e report deterministic" `Quick test_e2e_deterministic;
          Alcotest.test_case "trace capacity bound" `Quick test_trace_capacity;
          Alcotest.test_case "dedup wasted bytes" `Quick test_dedup_bytes;
        ] );
      ( "json",
        [
          Alcotest.test_case "document layout" `Quick test_json_document;
          Alcotest.test_case "scalars and escaping" `Quick test_json_scalars;
          Alcotest.test_case "trace line golden" `Quick test_trace_golden;
          Alcotest.test_case "crash without restart" `Quick test_crash_without_restart;
          Alcotest.test_case "attribution check" `Quick test_attribution_check;
          Alcotest.test_case "artifact checks" `Quick test_artifact_checks;
        ] );
    ]
