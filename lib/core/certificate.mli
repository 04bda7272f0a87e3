(** Master certificates: the content owner binds each master's contact
    address to its public key, signing with the content key (§2).
    Stored in the public {!Directory}, indexed by content id. *)

type t = {
  content_id : string;
  master_id : int;
  address : string;  (** simulated contact address *)
  master_public : Secrep_crypto.Sig_scheme.public;
  signature : string;
}

val issue : Content_key.t -> master_id:int -> address:string -> Secrep_crypto.Sig_scheme.public -> t

val verify : content_public:Secrep_crypto.Sig_scheme.public -> t -> bool
(** Checks the owner signature and that [content_public] matches the
    certificate's content id (self-certifying check). *)

val signed_payload : t -> string
(** The exact bytes the owner signs: a domain byte, then the fields in
    {!write}'s order; exposed for tests. *)

val write : Secrep_store.Codec.Writer.t -> t -> unit
(** The wire frame: content id, master id, address, the encoded master
    key, then the signature. *)
