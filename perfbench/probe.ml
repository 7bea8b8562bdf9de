(* Direct calls into each layer's public functions on inputs shaped like a
   workload's, timed in host time.  Each probe returns a per-call cost; the
   share estimates multiply it by how often the workload made that call. *)

module Node = Stellar_node
module Ledger = Stellar_ledger
module Herder = Stellar_herder
module Bucket = Stellar_bucket
module Crypto = Stellar_crypto

(* Median host time of one call to [f], over batches sized to take at least
   5 ms each, for about [budget] seconds in all. *)
let per_call ?(budget = 0.2) f =
  let batch n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let rec calibrate n = if batch n *. float_of_int n >= 0.005 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  let stop = Unix.gettimeofday () +. budget in
  let rec go acc = if acc <> [] && Unix.gettimeofday () >= stop then acc else go (batch n :: acc) in
  Stats.median (go [])

let scheme =
  (module Crypto.Sim_sig : Crypto.Sig_intf.SCHEME with type secret = string)

(* [k] single-payment transactions from distinct genesis accounts, built as
   the scenario's load generator builds them. *)
let payments ~rng accounts k =
  let n = Array.length accounts in
  List.init k (fun i ->
      let src = accounts.(i mod n) in
      let dst = accounts.((i + 1 + Stellar_sim.Rng.int rng (n - 1)) mod n) in
      let tx =
        Ledger.Tx.make ~source:src.Node.Genesis.public ~seq_num:1
          [
            Ledger.Tx.op
              (Ledger.Tx.Payment
                 {
                   destination = dst.Node.Genesis.public;
                   asset = Ledger.Asset.native;
                   amount = 1000;
                 });
          ]
      in
      Ledger.Tx.sign tx ~secret:src.Node.Genesis.secret ~public:src.Node.Genesis.public ~scheme)

(* A signed PREPARE from validator 0, carrying its real quorum set. *)
let envelope (spec : Node.Topology.spec) tx_set =
  let secret, public = Crypto.Sim_sig.keypair ~seed:(spec.validator_seed 0) in
  let value =
    Herder.Value.encode
      { Herder.Value.tx_set_hash = Herder.Tx_set.hash tx_set; close_time = 5; upgrades = [] }
  in
  let ballot = { Scp.Types.counter = 1; value } in
  let statement =
    {
      Scp.Types.node_id = public;
      slot = 2;
      quorum_set = spec.qset_of 0;
      pledge =
        Scp.Types.Prepare
          { ballot; prepared = Some ballot; prepared_prime = None; n_c = 1; n_h = 1 };
    }
  in
  let msg = Scp.Types.statement_bytes statement in
  (public, msg, { Scp.Types.statement; signature = Crypto.Sim_sig.sign secret msg })

let span name f = Span.with_ ("probe:" ^ name) f

(* [txs_per_ledger] and [delivery_bytes] come from the workload's observed
   run, so each probe sees the sizes that workload produced. *)
let run (w : Workload.t) ~seed ~txs_per_ledger ~delivery_bytes =
  let spec = w.spec () in
  let genesis, accounts = Node.Genesis.make ~n_accounts:w.n_accounts () in
  let rng = Stellar_sim.Rng.create ~seed in
  let txs = payments ~rng accounts (max 1 txs_per_ledger) in
  let prev_header_hash = String.make 32 '\000' in
  let tx_set = Herder.Tx_set.make ~prev_header_hash txs in
  let public, msg, env = envelope spec tx_set in
  let applied, outcomes = Ledger.Apply.apply_tx_set Ledger.Apply.sim_ctx genesis ~close_time:5 txs in
  if not (List.for_all (fun (_, o) -> Ledger.Apply.tx_succeeded o) outcomes) then
    failwith "probe: a payment failed to apply";
  let _, dirty = Ledger.State.take_dirty applied in
  let batch =
    List.map (fun key -> { Bucket.Bucket.key; entry = Ledger.State.lookup applied key }) dirty
  in
  let base = Bucket.Bucket_list.of_state genesis in
  let blob = String.make (max 1 delivery_bytes) 'x' in
  let us = 1e6 and ms = 1e3 in
  [
    ( "sim.step_ns",
      span "Engine.schedule+step" (fun () ->
          let n = 10_000 in
          1e9 /. float_of_int n
          *. per_call (fun () ->
                 let e = Stellar_sim.Engine.create () in
                 for _ = 1 to n do
                   ignore
                     (Stellar_sim.Engine.schedule e ~delay:(Stellar_sim.Rng.float rng 5.0)
                        (fun () -> ()))
                 done;
                 while Stellar_sim.Engine.step e do
                   ()
                 done)) );
    ( "crypto.sha256_mb_s",
      span "Sha256.digest" (fun () ->
          float_of_int (String.length blob) /. 1e6 /. per_call (fun () -> Crypto.Sha256.digest blob))
    );
    ( "crypto.sig_verify_us",
      span "Sim_sig.verify" (fun () ->
          us
          *. per_call (fun () ->
                 if not (Crypto.Sim_sig.verify ~public ~msg ~signature:env.Scp.Types.signature)
                 then failwith "probe: signature did not verify")) );
    ( "message.encode_us.tx",
      span "Message.encode tx" (fun () ->
          let m = Node.Message.Tx_msg (List.hd txs) in
          us *. per_call (fun () -> Node.Message.encode m)) );
    ( "message.encode_us.txset",
      span "Message.encode txset" (fun () ->
          let m = Node.Message.Tx_set_msg tx_set in
          us *. per_call (fun () -> Node.Message.encode m)) );
    ( "message.encode_us.envelope",
      span "Message.encode envelope" (fun () ->
          let m = Node.Message.Envelope env in
          us *. per_call (fun () -> Node.Message.encode m)) );
    ( "herder.txset_build_ms",
      span "Tx_queue+Tx_set" (fun () ->
          ms
          *. per_call (fun () ->
                 let q = Herder.Tx_queue.create () in
                 List.iter (fun tx -> ignore (Herder.Tx_queue.add q tx)) txs;
                 let picked = Herder.Tx_queue.candidates q ~state:genesis ~max_ops:10_000 in
                 Herder.Tx_set.hash (Herder.Tx_set.make ~prev_header_hash picked))) );
    ( "ledger.apply_ms",
      span "Apply.apply_tx_set" (fun () ->
          ms
          *. per_call (fun () ->
                 Ledger.Apply.apply_tx_set Ledger.Apply.sim_ctx genesis ~close_time:5 txs)) );
    ( "bucket.add_batch_ms",
      span "Bucket_list.add_batch" (fun () ->
          ms *. per_call (fun () -> Bucket.Bucket_list.add_batch base batch)) );
  ]
