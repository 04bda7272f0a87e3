module Sig_scheme = Secrep_crypto.Sig_scheme
module Writer = Secrep_store.Codec.Writer

type t = {
  content_id : string;
  master_id : int;
  address : string;
  master_public : Sig_scheme.public;
  signature : string;
}

(* Leading byte of the signed payload; {!Pledge} lists every domain
   byte. *)
let domain = 6

(* The signature must bind the full key material, not a short key id:
   an id alone would let an attacker rewrite the key bytes inside a
   certificate without invalidating it (found by wire mutation
   fuzzing — HMAC key ids do not depend on the secret). *)
let write_fields w t =
  Writer.bytes w t.content_id;
  Writer.varint w t.master_id;
  Writer.bytes w t.address;
  Writer.bytes w (Sig_scheme.encode_public t.master_public)

let write w t =
  write_fields w t;
  Writer.bytes w t.signature

let signed_payload t =
  let w = Writer.create () in
  Writer.u8 w domain;
  write_fields w t;
  Writer.contents w

let issue content ~master_id ~address master_public =
  let t =
    { content_id = Content_key.content_id content; master_id; address; master_public; signature = "" }
  in
  { t with signature = Content_key.sign content (signed_payload t) }

let verify ~content_public t =
  Content_key.verify_id ~content_id:t.content_id content_public
  && Sig_scheme.verify content_public ~msg:(signed_payload t) ~signature:t.signature
