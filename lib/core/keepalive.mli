(** Signed, time-stamped content-version packets (§3.1).

    Masters push these to their slaves on every commit and periodically
    in between; a slave may serve reads only while its latest packet is
    under [max_latency] old, and clients independently re-check the
    timestamp, so a malicious slave cannot fake freshness without
    forging a master signature. *)

type t = {
  content_id : string;
  version : int;
  timestamp : float;  (** master's clock at signing *)
  master_id : int;
  signature : string;
}

val make :
  master_key:Secrep_crypto.Sig_scheme.keypair ->
  content_id:string ->
  master_id:int ->
  version:int ->
  now:float ->
  t

val verify : master_public:Secrep_crypto.Sig_scheme.public -> t -> bool

val age : t -> now:float -> float

val is_fresh : t -> now:float -> max_latency:float -> bool
(** [age <= max_latency]. *)

val signed_payload : t -> string
(** The bytes the master signs: a domain byte, then the fields in
    {!write}'s order. *)

val write : Secrep_store.Codec.Writer.t -> t -> unit
(** The wire frame: content id, version, timestamp, master id, then the
    signature.  {!Wire} and a pledge's payload both use it. *)
