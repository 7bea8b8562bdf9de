(** Overlay wire messages: SCP envelopes, transaction sets and transactions
    flooded among peers (§5.4, §7.5: a naive flooding protocol).  The flood
    wrapper is an XDR union, so its overhead is the measured 4-byte
    discriminant plus the member's canonical encoding — no estimates. *)

type t =
  | Envelope of Scp.Types.envelope
  | Tx_set_msg of Stellar_herder.Tx_set.t
  | Tx_msg of Stellar_ledger.Tx.signed

val xdr : t Stellar_xdr.Xdr.codec

val encode : t -> string
(** Canonical XDR bytes of the flood wrapper. *)

val encode_count : unit -> int
(** Process-wide number of {!encode} calls so far.  The flood path encodes
    once per message, network-wide: {!wire} runs at the flood origin, every
    hop forwards that record, and straggler help and refloods resend the
    record the sender holds.  Tests diff this counter to pin that
    invariant. *)

val decode : string -> (t, string) result

type wire = private {
  msg : t;
  size : int;  (** [String.length (encode msg)], for bandwidth accounting (§7.4) *)
  key : string;  (** flood dedup key: SHA-256 of [encode msg] *)
}
(** What the overlay carries: a message with its wire size and dedup key,
    computed once at the flood origin and forwarded unchanged through every
    hop, so receivers never re-encode or re-hash.  The type is private:
    {!wire} is the only constructor, so [key] always matches [msg]. *)

val wire : t -> wire
(** One {!encode} and one SHA-256.  The encoded bytes are not kept. *)

val dedup_key : t -> string
(** Hash used by flood deduplication: [(wire m).key], SHA-256 over
    {!encode}. *)

val kind_name : t -> string
(** Short stable label ("envelope" | "txset" | "tx") for trace events. *)
