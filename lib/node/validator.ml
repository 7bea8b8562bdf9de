module Obs = Stellar_obs

type t = {
  network : Message.wire Stellar_sim.Network.t;
  index : int;
  peers : int list;
  config : Stellar_herder.Herder.config;
  genesis : Stellar_ledger.State.t;
  genesis_buckets : Stellar_bucket.Bucket_list.t option;
  user_on_ledger_closed : Stellar_herder.Herder.ledger_stats -> unit;
  user_on_timeout : kind:[ `Nomination | `Ballot ] -> unit;
  obs : Obs.Sink.t;
  mutable herder : Stellar_herder.Herder.t;
  mutable generation : int;
      (* bumped on every crash and restart: callbacks and timers close over
         the generation they were created in and go inert when it changes,
         so a stale SCP ballot timer can never fire into a dead herder or
         re-broadcast from beyond the grave *)
  mutable crashed : bool;
  seen : (string, int) Hashtbl.t;  (* flood dedup: key -> expiry slot *)
  wires : (string, Message.wire * int) Hashtbl.t;
      (* the record each held envelope / tx set arrived or was flooded with,
         with its expiry slot; see [held_wire] *)
  helped : (int * int, unit) Hashtbl.t;  (* (peer, slot) straggler replies sent *)
  c : counters;
}

(* Resolved once in [create]: the [flood.*]/[fault.*] counters live in the
   network's per-node registry, which counts whether or not the run is
   observed; the gauges come from the sink. *)
and counters = {
  forwarded : Obs.Registry.counter;
  unique : Obs.Registry.counter;
  dup_dropped : Obs.Registry.counter;
  dup_bytes : Obs.Registry.counter;
  self_envelopes : Obs.Registry.counter;
  self_tx_sets : Obs.Registry.counter;
  straggler_helped : Obs.Registry.counter;
  crashes : Obs.Registry.counter;
  restarts : Obs.Registry.counter;
  refloods : Obs.Registry.counter;
  helped_size : Obs.Registry.gauge;
  seen_size : Obs.Registry.gauge;
}

let index t = t.index
let herder t = t.herder
let node_id t = Stellar_herder.Herder.node_id t.herder
let helped_size t = Hashtbl.length t.helped
let seen_size t = Hashtbl.length t.seen
let wires_size t = Hashtbl.length t.wires
let is_crashed t = t.crashed

(* The straggler-reply memo only has to suppress duplicate help within the
   life of a slot: once slot [upto] is externalized locally, memos for it and
   everything older can go, keeping the table bounded over long runs. *)
let prune_helped t ~upto =
  Hashtbl.filter_map_inplace (fun (_, slot) () -> if slot <= upto then None else Some ()) t.helped;
  Obs.Registry.set t.c.helped_size (float_of_int (Hashtbl.length t.helped))

(* How long a dedup entry stays useful.  Envelopes are only ever re-flooded
   while their slot is live, so they expire right after it closes (+2 slots
   of margin for stragglers still receiving late externalize copies).
   Transactions and tx sets carry no slot, so they get a fixed horizon past
   the ledger at which they were first seen — by then any copy still in
   flight has long been delivered or dropped. *)
let seen_ttl = 8

let expiry_of t = function
  | Message.Envelope env -> env.Scp.Types.statement.Scp.Types.slot + 2
  | Message.Tx_set_msg _ | Message.Tx_msg _ ->
      Stellar_herder.Herder.ledger_seq t.herder + seen_ttl

(* Dedup entries whose expiry slot is now closed can go: any further copy of
   those messages is late-externalize noise that [expiry_of]'s margin already
   covered.  Without this the table grows with every message ever flooded.
   Held records share the expiry of their dedup entry and go with it. *)
let prune_seen t ~upto =
  Hashtbl.filter_map_inplace (fun _ expiry -> if expiry <= upto then None else Some expiry) t.seen;
  Hashtbl.filter_map_inplace
    (fun _ ((_, expiry) as e) -> if expiry <= upto then None else Some e)
    t.wires;
  Obs.Registry.set t.c.seen_size (float_of_int (Hashtbl.length t.seen))

(* Straggler help and reflood resend payloads this node already holds, so
   they reuse the record each payload arrived or was flooded with: a node
   runs [Message.wire] only for the messages it originates, or on a miss.
   Envelopes are bucketed by signature and match only the physically
   identical value; tx sets match on [Tx_set.hash], the digest of the same
   canonical bytes the record's key and size are over.  Transactions are
   never resent, so they are not held. *)
let held_key = function
  | Message.Envelope env -> Some env.Scp.Types.signature
  | Message.Tx_set_msg ts -> Some (Stellar_herder.Tx_set.hash ts)
  | Message.Tx_msg _ -> None

let find_held t k msg =
  List.find_map
    (fun ((w : Message.wire), _) ->
      match (msg, w.msg) with
      | Message.Envelope a, Message.Envelope b when a == b -> Some w
      | Message.Tx_set_msg _, Message.Tx_set_msg _ -> Some w
      | _ -> None)
    (Hashtbl.find_all t.wires k)

let hold t (w : Message.wire) =
  match held_key w.msg with
  | Some k when Option.is_none (find_held t k w.msg) ->
      Hashtbl.add t.wires k (w, expiry_of t w.msg)
  | _ -> ()

let held_wire t msg =
  match Option.bind (held_key msg) (fun k -> find_held t k msg) with
  | Some w -> w
  | None -> Message.wire msg

(* [force] lets a node re-broadcast its own identical message (a straggler
   re-announcing its last statement must not be silenced by its own dedup
   table).  [w] carries the dedup key and wire size computed once at the
   flood origin; forwarding passes the same record on. *)
let flood_wire t ?except ?(force = false) (w : Message.wire) =
  if force || not (Hashtbl.mem t.seen w.key) then begin
    Hashtbl.replace t.seen w.key (expiry_of t w.msg);
    (* One monotone id per flood decision: every fanout copy carries it, so
       each Flood_recv downstream names this exact Flood_send (the causal
       edge the critical-path report walks). *)
    let msg_id = Stellar_sim.Network.alloc_msg_id t.network in
    let fanout = ref 0 in
    List.iter
      (fun peer ->
        if Some peer <> except && peer <> t.index then begin
          incr fanout;
          Stellar_sim.Network.send t.network ~src:t.index ~dst:peer ~size:w.size ~msg_id w
        end)
      t.peers;
    Obs.Registry.add t.c.forwarded !fanout;
    if Obs.Sink.enabled t.obs then
      Obs.Sink.emit t.obs
        (Obs.Event.Flood_send
           { kind = Message.kind_name w.msg; bytes = w.size; fanout = !fanout; msg_id })
  end

(* The flood origin: the one place a node builds a record for a message. *)
let flood t ?force msg =
  let w = Message.wire msg in
  hold t w;
  flood_wire t ?force w

(* Point-to-point (non-flooded) send, used for straggler help: still tagged
   and traced as a fanout-1 Flood_send so every delivery in the trace
   resolves to exactly one send.  The payload is one this node holds, so it
   goes out with its held record. *)
let send_direct t ~dst msg =
  let w = held_wire t msg in
  let msg_id = Stellar_sim.Network.alloc_msg_id t.network in
  if Obs.Sink.enabled t.obs then
    Obs.Sink.emit t.obs
      (Obs.Event.Flood_send { kind = Message.kind_name msg; bytes = w.size; fanout = 1; msg_id });
  Stellar_sim.Network.send t.network ~src:t.index ~dst ~size:w.size ~msg_id w

(* A peer still voting on a slot we already closed gets our retained
   envelopes (and the tx sets they reference) directly — the §6 fix. *)
let maybe_help_straggler t ~src env =
  let slot = env.Scp.Types.statement.Scp.Types.slot in
  let is_externalize =
    match env.Scp.Types.statement.Scp.Types.pledge with
    | Scp.Types.Externalize _ -> true
    | _ -> false
  in
  if
    (not is_externalize)
    && slot <= Stellar_herder.Herder.ledger_seq t.herder
    && not (Hashtbl.mem t.helped (src, slot))
  then begin
    Hashtbl.replace t.helped (src, slot) ();
    Obs.Registry.incr t.c.straggler_helped;
    let envs, tx_sets = Stellar_herder.Herder.help_straggler t.herder ~slot in
    List.iter (fun ts -> send_direct t ~dst:src (Message.Tx_set_msg ts)) tx_sets;
    List.iter (fun e -> send_direct t ~dst:src (Message.Envelope e)) envs
  end

(* A delivery is never re-encoded or re-hashed: the dedup key, the traced
   byte counts, the forwarded record and any later straggler-help copy all
   come from the sender's [w]. *)
let handle t ~src ~(info : Stellar_sim.Network.delivery) (w : Message.wire) =
  if t.crashed then ()
  else begin
    let msg = w.msg in
    if not (Hashtbl.mem t.seen w.key) then begin
      Obs.Registry.incr t.c.unique;
      if Obs.Sink.enabled t.obs then begin
        Obs.Sink.emit t.obs
          (Obs.Event.Flood_recv
             {
               kind = Message.kind_name msg;
               bytes = w.size;
               src;
               send_id = info.Stellar_sim.Network.msg_id;
               link_s = info.Stellar_sim.Network.link_s;
               wait_s = info.Stellar_sim.Network.wait_s;
               proc_s = info.Stellar_sim.Network.proc_s;
             });
        (* first sight of a transaction at this node: a tx-lifecycle mark for
           the flood-propagation view (the origin emits its own in
           broadcast_tx) *)
        match msg with
        | Message.Tx_msg signed ->
            Obs.Sink.emit t.obs
              (Obs.Event.Tx_flooded
                 {
                   tx =
                     Stellar_crypto.Hex.encode (Stellar_ledger.Tx.hash signed.Stellar_ledger.Tx.tx);
                 })
        | _ -> ()
      end;
      (* held before processing: an envelope that closes the slot is itself
         in the straggler-help batch sent below *)
      hold t w;
      (* process locally, then forward to our peers (flood with dedup) *)
      (match msg with
      | Message.Envelope env ->
          Stellar_herder.Herder.receive_envelope t.herder env;
          maybe_help_straggler t ~src env
      | Message.Tx_set_msg ts -> Stellar_herder.Herder.receive_tx_set t.herder ts
      | Message.Tx_msg signed -> ignore (Stellar_herder.Herder.receive_tx t.herder signed));
      flood_wire t ~except:src w
    end
    else begin
      Obs.Registry.incr t.c.dup_dropped;
      Obs.Registry.add t.c.dup_bytes w.size;
      if Obs.Sink.enabled t.obs then
        Obs.Sink.emit t.obs
          (Obs.Event.Dedup_drop { kind = Message.kind_name msg; src; bytes = w.size })
    end
  end

(* Herder callbacks for generation [gen].  Every one of them re-checks the
   validator's current generation before acting: after a crash or restart
   bumps it, timers and broadcasts created under the old herder fall
   silent instead of acting on dead state. *)
let callbacks_for ~engine ~gen get_t =
  Stellar_herder.Herder.
    {
      broadcast_envelope =
        (fun env ->
          let v = get_t () in
          if v.generation = gen then begin
            Obs.Registry.incr v.c.self_envelopes;
            flood v ~force:true (Message.Envelope env)
          end);
      broadcast_tx_set =
        (fun ts ->
          let v = get_t () in
          if v.generation = gen then begin
            Obs.Registry.incr v.c.self_tx_sets;
            flood v (Message.Tx_set_msg ts)
          end);
      broadcast_tx =
        (fun signed ->
          let v = get_t () in
          if v.generation = gen then begin
            if Obs.Sink.enabled v.obs then
              Obs.Sink.emit v.obs
                (Obs.Event.Tx_flooded
                   {
                     tx =
                       Stellar_crypto.Hex.encode
                         (Stellar_ledger.Tx.hash signed.Stellar_ledger.Tx.tx);
                   });
            flood v (Message.Tx_msg signed)
          end);
      schedule =
        (fun ~delay f ->
          let timer =
            Stellar_sim.Engine.schedule engine ~delay (fun () ->
                if (get_t ()).generation = gen then f ())
          in
          fun () -> Stellar_sim.Engine.cancel timer);
      now = (fun () -> Stellar_sim.Engine.now engine);
      on_ledger_closed =
        (fun stats ->
          let v = get_t () in
          if v.generation = gen then begin
            prune_helped v ~upto:stats.Stellar_herder.Herder.seq;
            prune_seen v ~upto:stats.Stellar_herder.Herder.seq;
            v.user_on_ledger_closed stats
          end);
      on_timeout =
        (fun ~kind ->
          let v = get_t () in
          if v.generation = gen then v.user_on_timeout ~kind);
    }

let create ~network ~index ~peers ~config ~genesis ?buckets ?headers
    ?(on_ledger_closed = fun _ -> ()) ?(on_timeout = fun ~kind:_ -> ())
    ?(obs = Obs.Sink.null) () =
  let engine = Stellar_sim.Network.engine network in
  let reg = Stellar_sim.Network.registry network index in
  let counter = Obs.Registry.counter reg in
  let c =
    {
      forwarded = counter "flood.forwarded";
      unique = counter "flood.unique";
      dup_dropped = counter "flood.dup_dropped";
      dup_bytes = counter "flood.dup_bytes";
      self_envelopes = counter "flood.own_envelopes";
      self_tx_sets = counter "flood.own_tx_sets";
      straggler_helped = counter "flood.straggler_helped";
      crashes = counter "fault.crashes";
      restarts = counter "fault.restarts";
      refloods = counter "fault.refloods";
      helped_size = Obs.Sink.gauge obs "validator.helped.size";
      seen_size = Obs.Sink.gauge obs "validator.seen.size";
    }
  in
  let rec t =
    lazy
      (let cb = callbacks_for ~engine ~gen:0 (fun () -> Lazy.force t) in
       {
         network;
         index;
         peers;
         config;
         genesis;
         genesis_buckets = buckets;
         user_on_ledger_closed = on_ledger_closed;
         user_on_timeout = on_timeout;
         obs;
         herder = Stellar_herder.Herder.create config cb ~genesis ?buckets ?headers ~obs ();
         generation = 0;
         crashed = false;
         seen = Hashtbl.create 1024;
         wires = Hashtbl.create 256;
         helped = Hashtbl.create 64;
         c;
       })
  in
  let t = Lazy.force t in
  Stellar_sim.Network.set_handler network index (fun ~src ~info msg -> handle t ~src ~info msg);
  t

let start t = Stellar_herder.Herder.start t.herder
let stop t = Stellar_herder.Herder.stop t.herder

let submit_tx t signed =
  if not t.crashed then
    match Stellar_herder.Herder.submit_tx t.herder signed with `Queued | `Duplicate -> ()

(* ---- fault injection ---- *)

let crash t =
  if not t.crashed then begin
    Stellar_herder.Herder.stop t.herder;
    t.crashed <- true;
    t.generation <- t.generation + 1;
    Stellar_sim.Network.set_down t.network t.index true;
    Obs.Registry.incr t.c.crashes;
    if Obs.Sink.enabled t.obs then Obs.Sink.emit t.obs Obs.Event.Node_crash
  end

let restart ?archive t =
  if t.crashed then begin
    t.crashed <- false;
    t.generation <- t.generation + 1;
    (* the process died: its dedup/memo tables did not survive *)
    Hashtbl.reset t.seen;
    Hashtbl.reset t.wires;
    Hashtbl.reset t.helped;
    Stellar_sim.Network.set_down t.network t.index false;
    Obs.Registry.incr t.c.restarts;
    if Obs.Sink.enabled t.obs then Obs.Sink.emit t.obs Obs.Event.Node_restart;
    (* §5.4 bootstrap: rebuild state from the archive's latest checkpoint and
       replay forward to its tip; whatever closed after the archive tip is
       recovered live via straggler help once we rejoin consensus. *)
    let bootstrap =
      match archive with
      | None -> None
      | Some a -> (
          match Stellar_archive.Archive.catchup a with
          | Ok (state, buckets, chain) ->
              let from_seq =
                match Stellar_archive.Archive.latest_checkpoint a with
                | Some c -> c.Stellar_archive.Archive.seq
                | None -> 0
              in
              Some (from_seq, state, buckets, chain)
          | Error _ -> None)
    in
    let from_seq = match bootstrap with Some (f, _, _, _) -> f | None -> 0 in
    if Obs.Sink.enabled t.obs then
      Obs.Sink.emit t.obs (Obs.Event.Catchup_begin { from_seq });
    let engine = Stellar_sim.Network.engine t.network in
    let cb = callbacks_for ~engine ~gen:t.generation (fun () -> t) in
    let to_seq, replayed =
      match bootstrap with
      | Some (from_seq, state, buckets, chain) ->
          let to_seq = Stellar_ledger.State.ledger_seq state in
          t.herder <-
            Stellar_herder.Herder.create t.config cb ~genesis:state ~buckets
              ~headers:(List.rev chain) ~obs:t.obs ();
          (to_seq, max 0 (to_seq - from_seq))
      | None ->
          t.herder <-
            Stellar_herder.Herder.create t.config cb ~genesis:t.genesis
              ?buckets:t.genesis_buckets ~obs:t.obs ();
          (0, 0)
    in
    if Obs.Sink.enabled t.obs then
      Obs.Sink.emit t.obs (Obs.Event.Catchup_done { to_seq; replayed });
    Stellar_herder.Herder.start t.herder
  end

(* Byzantine-style pressure: re-broadcast our latest envelopes [copies]
   times, bypassing our own dedup table.  Correct peers drop every copy
   after the first — the interesting measurement is the wasted bytes.  Every
   copy carries the envelope's held record. *)
let reflood t ~copies =
  if not t.crashed then begin
    Obs.Registry.incr t.c.refloods;
    let ws =
      List.map
        (fun e -> held_wire t (Message.Envelope e))
        (Stellar_herder.Herder.recent_envelopes t.herder)
    in
    for _ = 1 to copies do
      List.iter (flood_wire t ~force:true) ws
    done
  end
