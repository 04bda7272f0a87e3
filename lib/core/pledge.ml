module Sig_scheme = Secrep_crypto.Sig_scheme
module Merkle = Secrep_crypto.Merkle
module Query = Secrep_store.Query
module Codec = Secrep_store.Codec
module Writer = Codec.Writer
module Canonical = Secrep_store.Canonical

type sig_mode = Single | Batched of { root : string; proof : Merkle.proof }

type t = {
  slave_id : int;
  query : Query.t;
  result_digest : string;
  keepalive : Keepalive.t;
  nonce : int;
  signature : string;
  mode : sig_mode;
}

(* Every signed payload starts with a domain byte, so no two kinds of
   signed bytes can be confused: 0 and 2 are the single-pledge frame
   tags below (without and with a nonce), 4 a batch root, 5 a
   keep-alive and 6 a certificate.  The batched frame tags 1 and 3 are
   never signed. *)
let batch_domain = 4

(* The frame up to the signature: the tag (1 if batched, plus 2 when a
   nonce follows the slave id), then the signed fields.  A real nonce
   changes the tag, so a replayed pledge signs a stale nonce and can
   never collide with the payload the client expects. *)
let write_head w ~batched t =
  Writer.u8 w ((if batched then 1 else 0) + if t.nonce = 0 then 0 else 2);
  Writer.varint w t.slave_id;
  if t.nonce <> 0 then Writer.varint w t.nonce;
  Writer.bytes w (Codec.encode_query t.query);
  Writer.bytes w t.result_digest;
  Keepalive.write w t.keepalive

let signed_payload t =
  let w = Writer.create () in
  write_head w ~batched:false t;
  Writer.contents w

let unsigned ~nonce ~slave_id ~query ~result_digest ~keepalive =
  { slave_id; query; result_digest; keepalive; nonce; signature = ""; mode = Single }

let payload ?(nonce = 0) ~slave_id ~query ~result_digest ~keepalive () =
  signed_payload (unsigned ~nonce ~slave_id ~query ~result_digest ~keepalive)

let batch_payload ~slave_id ~root =
  let w = Writer.create () in
  Writer.u8 w batch_domain;
  Writer.varint w slave_id;
  Writer.bytes w root;
  Writer.contents w

let make ?(nonce = 0) ~slave_key ~slave_id ~query ~result_digest ~keepalive () =
  let t = unsigned ~nonce ~slave_id ~query ~result_digest ~keepalive in
  { t with signature = Sig_scheme.sign slave_key (signed_payload t) }

let sign_batch ~slave_key ~slave_id ~root =
  Sig_scheme.sign slave_key (batch_payload ~slave_id ~root)

let verify_signature ~slave_public t =
  match t.mode with
  | Single ->
    Sig_scheme.verify slave_public ~msg:(signed_payload t) ~signature:t.signature
  | Batched { root; proof } ->
    (* The signature covers the batch root; the proof ties this pledge's
       payload (a Merkle leaf) to that root. *)
    Merkle.verify ~root ~leaf:(signed_payload t) proof
    && Sig_scheme.verify slave_public
         ~msg:(batch_payload ~slave_id:t.slave_id ~root)
         ~signature:t.signature

let version t = t.keepalive.Keepalive.version

let verify ?expected_nonce ~slave_public ~master_public ~result ~now ~max_latency t =
  if (match expected_nonce with Some n -> t.nonce <> n | None -> false) then
    Error
      (Printf.sprintf "nonce mismatch: pledge bound to %d, this read is %d" t.nonce
         (Option.get expected_nonce))
  else if not (String.equal (Canonical.result_digest result) t.result_digest) then
    Error "result does not hash to the pledged digest"
  else if not (verify_signature ~slave_public t) then Error "bad slave signature"
  else if not (Keepalive.verify ~master_public t.keepalive) then
    Error "keep-alive not signed by the master"
  else if not (Keepalive.is_fresh t.keepalive ~now ~max_latency) then
    Error
      (Printf.sprintf "stale: keep-alive is %.3fs old (max_latency %.3fs)"
         (Keepalive.age t.keepalive ~now) max_latency)
  else Ok ()
