module Sig_scheme = Secrep_crypto.Sig_scheme
module Writer = Secrep_store.Codec.Writer

type t = {
  content_id : string;
  version : int;
  timestamp : float;
  master_id : int;
  signature : string;
}

(* Leading byte of the signed payload; {!Pledge} lists every domain
   byte. *)
let domain = 5

let write_fields w t =
  Writer.bytes w t.content_id;
  Writer.varint w t.version;
  Writer.float w t.timestamp;
  Writer.varint w t.master_id

let write w t =
  write_fields w t;
  Writer.bytes w t.signature

let signed_payload t =
  let w = Writer.create () in
  Writer.u8 w domain;
  write_fields w t;
  Writer.contents w

let make ~master_key ~content_id ~master_id ~version ~now =
  let t = { content_id; version; timestamp = now; master_id; signature = "" } in
  { t with signature = Sig_scheme.sign master_key (signed_payload t) }

let verify ~master_public t =
  Sig_scheme.verify master_public ~msg:(signed_payload t) ~signature:t.signature

let age t ~now = now -. t.timestamp
let is_fresh t ~now ~max_latency = age t ~now <= max_latency
