module Xdr = Stellar_xdr.Xdr

type t =
  | Envelope of Scp.Types.envelope
  | Tx_set_msg of Stellar_herder.Tx_set.t
  | Tx_msg of Stellar_ledger.Tx.signed

let xdr =
  Xdr.union
    ~tag:(function Envelope _ -> 0 | Tx_set_msg _ -> 1 | Tx_msg _ -> 2)
    ~write_arm:(fun w -> function
      | Envelope env -> Scp.Types.envelope_xdr.Xdr.write w env
      | Tx_set_msg ts -> Stellar_herder.Tx_set.xdr.Xdr.write w ts
      | Tx_msg signed -> Stellar_ledger.Tx.signed_xdr.Xdr.write w signed)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 -> Envelope (Scp.Types.envelope_xdr.Xdr.read r)
      | 1 -> Tx_set_msg (Stellar_herder.Tx_set.xdr.Xdr.read r)
      | 2 -> Tx_msg (Stellar_ledger.Tx.signed_xdr.Xdr.read r)
      | _ -> raise (Xdr.Error "Message: bad discriminant"))

(* Global encode counter: the flood path serializes each message once,
   network-wide (in [wire], at the flood origin), and the regression tests
   pin that invariant here. *)
let encode_calls = ref 0
let encode_count () = !encode_calls

let encode m =
  incr encode_calls;
  Xdr.encode xdr m

let decode s = Xdr.decode xdr s

type wire = { msg : t; size : int; key : string }

(* The bytes are dropped once hashed and measured: every in-flight delivery
   shares this record, and pinning the full encoding there would grow the
   heap with the number of copies in flight. *)
let wire msg =
  let encoded = encode msg in
  { msg; size = String.length encoded; key = Stellar_crypto.Sha256.digest encoded }

let dedup_key m = (wire m).key

let kind_name = function
  | Envelope _ -> "envelope"
  | Tx_set_msg _ -> "txset"
  | Tx_msg _ -> "tx"
