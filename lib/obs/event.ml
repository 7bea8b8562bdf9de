type timeout_kind = [ `Nomination | `Ballot ]
type drop_reason = [ `Duplicate | `Stale ]

type t =
  | Nominate_start of { slot : int }
  | Nomination_round of { slot : int; round : int }
  | First_vote of { slot : int; counter : int }
  | Ballot_bump of { slot : int; counter : int }
  | Confirm_prepare of { slot : int }
  | Externalize of { slot : int }
  | Timeout_fired of { slot : int; kind : timeout_kind }
  | Flood_send of { kind : string; bytes : int; fanout : int; msg_id : int }
  | Flood_recv of {
      kind : string;
      bytes : int;
      src : int;
      send_id : int;
      link_s : float;
      wait_s : float;
      proc_s : float;
    }
  | Dedup_drop of { kind : string; src : int; bytes : int }
  | Apply_begin of { slot : int; txs : int; ops : int }
  | Apply_end of { slot : int; txs : int; ops : int }
  | Bucket_merge of { level : int; entries : int }
  | Tx_submit of { tx : string }
  | Tx_flooded of { tx : string }
  | Tx_in_txset of { tx : string; slot : int }
  | Tx_externalized of { tx : string; slot : int }
  | Tx_applied of { tx : string; slot : int; ok : bool }
  | Tx_dropped of { tx : string; reason : drop_reason }
  | Node_crash
  | Node_restart
  | Partition_begin of { groups : int list }
  | Partition_heal
  | Catchup_begin of { from_seq : int }
  | Catchup_done of { to_seq : int; replayed : int }

let name = function
  | Nominate_start _ -> "nominate.start"
  | Nomination_round _ -> "nomination.round"
  | First_vote _ -> "ballot.first"
  | Ballot_bump _ -> "ballot.bump"
  | Confirm_prepare _ -> "phase.confirm"
  | Externalize _ -> "phase.externalize"
  | Timeout_fired _ -> "timeout"
  | Flood_send _ -> "flood.send"
  | Flood_recv _ -> "flood.recv"
  | Dedup_drop _ -> "flood.dup"
  | Apply_begin _ -> "apply.begin"
  | Apply_end _ -> "apply.end"
  | Bucket_merge _ -> "bucket.merge"
  | Tx_submit _ -> "tx.submit"
  | Tx_flooded _ -> "tx.flooded"
  | Tx_in_txset _ -> "tx.txset"
  | Tx_externalized _ -> "tx.externalized"
  | Tx_applied _ -> "tx.applied"
  | Tx_dropped _ -> "tx.dropped"
  | Node_crash -> "fault.crash"
  | Node_restart -> "fault.restart"
  | Partition_begin _ -> "fault.partition"
  | Partition_heal -> "fault.heal"
  | Catchup_begin _ -> "catchup.begin"
  | Catchup_done _ -> "catchup.done"

(* Payload members after the stamp.  Floats have fixed digits, so traces
   are byte-identical across runs with the same seed. *)
let fields =
  let open Json in
  let slot s = ("slot", Int s) and secs x = Fixed (9, x) in
  function
  | Nominate_start { slot = s } | Confirm_prepare { slot = s } | Externalize { slot = s } ->
      [ slot s ]
  | Nomination_round { slot = s; round } -> [ slot s; ("round", Int round) ]
  | First_vote { slot = s; counter } | Ballot_bump { slot = s; counter } ->
      [ slot s; ("counter", Int counter) ]
  | Timeout_fired { slot = s; kind } ->
      let kind = match kind with `Nomination -> "nomination" | `Ballot -> "ballot" in
      [ slot s; ("kind", String kind) ]
  | Flood_send { kind; bytes; fanout; msg_id } ->
      [ ("kind", String kind); ("bytes", Int bytes); ("fanout", Int fanout);
        ("msg_id", Int msg_id) ]
  | Flood_recv { kind; bytes; src; send_id; link_s; wait_s; proc_s } ->
      [ ("kind", String kind); ("bytes", Int bytes); ("src", Int src); ("send_id", Int send_id);
        ("link_s", secs link_s); ("wait_s", secs wait_s); ("proc_s", secs proc_s) ]
  | Dedup_drop { kind; src; bytes } ->
      [ ("kind", String kind); ("src", Int src); ("bytes", Int bytes) ]
  | Apply_begin { slot = s; txs; ops } | Apply_end { slot = s; txs; ops } ->
      [ slot s; ("txs", Int txs); ("ops", Int ops) ]
  | Bucket_merge { level; entries } -> [ ("level", Int level); ("entries", Int entries) ]
  | Tx_submit { tx } | Tx_flooded { tx } -> [ ("tx", String tx) ]
  | Tx_in_txset { tx; slot = s } | Tx_externalized { tx; slot = s } ->
      [ ("tx", String tx); slot s ]
  | Tx_applied { tx; slot = s; ok } -> [ ("tx", String tx); slot s; ("ok", Bool ok) ]
  | Tx_dropped { tx; reason } ->
      let reason = match reason with `Duplicate -> "duplicate" | `Stale -> "stale" in
      [ ("tx", String tx); ("reason", String reason) ]
  | Node_crash | Node_restart | Partition_heal -> []
  | Partition_begin { groups } -> [ ("groups", List (List.map (fun g -> Int g) groups)) ]
  | Catchup_begin { from_seq } -> [ ("from_seq", Int from_seq) ]
  | Catchup_done { to_seq; replayed } -> [ ("to_seq", Int to_seq); ("replayed", Int replayed) ]
