(** A full validator on the simulated overlay: a {!Stellar_herder.Herder}
    wired to peers through flood-with-dedup gossip (Fig. 5's stellar-core
    box, minus the SQL database). *)

type t

val create :
  network:Message.wire Stellar_sim.Network.t ->
  index:int ->
  peers:int list ->
  config:Stellar_herder.Herder.config ->
  genesis:Stellar_ledger.State.t ->
  ?buckets:Stellar_bucket.Bucket_list.t ->
  ?headers:Stellar_ledger.Header.t list ->
  ?on_ledger_closed:(Stellar_herder.Herder.ledger_stats -> unit) ->
  ?on_timeout:(kind:[ `Nomination | `Ballot ] -> unit) ->
  ?obs:Stellar_obs.Sink.t ->
  unit ->
  t
(** [network] carries {!Message.wire} records: a message's dedup key and
    wire size are computed once where it is first flooded, and every hop
    dedups on and forwards that same record.  Straggler help and
    {!reflood} resend held payloads with their held records (see
    {!wires_size}), so a validator encodes only the messages it
    originates.

    The [flood.*] and [fault.*] counters ([flood.own_envelopes] counts the
    SCP envelopes this validator itself emitted: the paper's 6-7 logical
    messages per ledger, §7.2; [flood.own_tx_sets] the tx sets it built)
    live in [Network.registry network index] and count whether or not the
    run is observed.

    [obs] (default disabled) traces the flood path — [Flood_send],
    [Flood_recv] and [Dedup_drop] events — and is passed down to the
    herder/SCP/ledger stack. *)

val index : t -> int
val herder : t -> Stellar_herder.Herder.t
val node_id : t -> Scp.Types.node_id
val start : t -> unit
val stop : t -> unit

val submit_tx : t -> Stellar_ledger.Tx.signed -> unit
(** Client-facing submission (what horizon forwards, Fig. 5). *)

val helped_size : t -> int
(** Entries in the (peer, slot) straggler-reply memo table.  The table is
    pruned whenever a ledger closes (memos for externalized slots are
    dropped), so it stays bounded over long simulations; its size is also
    exported as the [validator.helped.size] gauge. *)

val seen_size : t -> int
(** Entries in the flood dedup table.  Each entry carries an expiry slot
    (an envelope's statement slot plus a small margin; a fixed horizon for
    transactions and tx sets) and is dropped when a ledger at or past that
    slot closes, so the table stays bounded over long simulations; its size
    is exported as the [validator.seen.size] gauge. *)

val wires_size : t -> int
(** Entries in the held-record table: the {!Message.wire} record each
    envelope and tx set this validator holds arrived or was flooded with,
    which straggler help and {!reflood} resend instead of re-encoding.
    Entries take the expiry of the matching dedup entry and are pruned with
    it, so this table stays bounded too. *)

(** {2 Fault injection}

    A crash/restart models losing the whole process: the herder (and all its
    SCP timers) is abandoned, the dedup and straggler-memo tables are lost,
    and the network marks the node down.  Restart rebuilds a fresh herder —
    from the archive's latest checkpoint plus replay when an [archive] is
    supplied (§5.4), from genesis otherwise — and rejoins consensus, closing
    any remaining gap live through the §6 straggler-help protocol.  An
    internal generation counter keeps timers and broadcasts created before
    the fault from acting on the new incarnation. *)

val crash : t -> unit
(** Stop the herder, mark the node down, emit [Node_crash].  Idempotent. *)

val restart : ?archive:Stellar_archive.Archive.t -> t -> unit
(** Bring a crashed node back: emits [Node_restart], [Catchup_begin] (with
    the checkpoint seq, 0 when restarting from genesis) and [Catchup_done]
    (archive tip and replayed-ledger count), then starts the rebuilt herder.
    No-op if the node is not crashed. *)

val is_crashed : t -> bool

val reflood : t -> copies:int -> unit
(** Byzantine-style fault: re-broadcast this node's latest envelopes
    [copies] times, bypassing its own dedup table, each with the record
    it holds for that envelope.  Peers' dedup tables absorb every copy
    after the first; counted as [fault.refloods]. *)
