(** Pledge packets (§3.2): for every read it serves, a slave signs
    (query, SHA-1 of the result, latest master keep-alive).  An
    incorrect answer turns the pledge into irrefutable proof of
    misbehaviour (§3.3) — and because only the slave can produce its
    signature, a client cannot frame an innocent slave.

    A slave may amortize one signature over many pledges: it signs the
    root of a Merkle tree whose leaves are the pledge payloads, and each
    client receives its pledge with an inclusion proof ([Batched]).
    Either mode carries the same evidentiary weight — the proof path is
    collision-resistant, so a batched pledge still pins the slave to
    exactly one (query, digest, keep-alive) triple. *)

type sig_mode =
  | Single  (** signature directly over this pledge's payload *)
  | Batched of { root : string; proof : Secrep_crypto.Merkle.proof }
      (** signature over the batch root; the proof places this pledge's
          payload among the leaves *)

type t = {
  slave_id : int;
  query : Secrep_store.Query.t;
  result_digest : string;  (** {!Secrep_store.Canonical.result_digest} of the result *)
  keepalive : Keepalive.t;  (** master-signed version + timestamp *)
  nonce : int;
      (** the client-minted read nonce this pledge is bound to (the
          read's lineage request id); 0 = a pledge without a
          nonce.  Covered by the signature, so a replayed pledge
          carries its original nonce and fails the client's check. *)
  signature : string;
      (** slave's signature — over the payload ([Single]) or the batch
          root ([Batched]) *)
  mode : sig_mode;
}

val make :
  ?nonce:int ->
  slave_key:Secrep_crypto.Sig_scheme.keypair ->
  slave_id:int ->
  query:Secrep_store.Query.t ->
  result_digest:string ->
  keepalive:Keepalive.t ->
  unit ->
  t
(** Individually-signed ([Single]) pledge.  [nonce] defaults to 0
    (no nonce). *)

val payload :
  ?nonce:int ->
  slave_id:int ->
  query:Secrep_store.Query.t ->
  result_digest:string ->
  keepalive:Keepalive.t ->
  unit ->
  string
(** The pledge payload bytes before a pledge exists — what a batching
    slave hashes into Merkle leaves prior to signing the root. *)

val signed_payload : t -> string
(** The byte string a [Single] signature covers — also the Merkle leaf
    a [Batched] proof authenticates.  It is the pledge's frame written
    as if single, up to the signature ({!write_head}); its first byte
    is the frame tag, 0 without a nonce and 2 with one. *)

val batch_payload : slave_id:int -> root:string -> string
(** The byte string a batch signature covers: domain byte 4, the slave
    id and the root. *)

val write_head : Secrep_store.Codec.Writer.t -> batched:bool -> t -> unit
(** A pledge's frame up to its signature: the tag (1 if [batched], plus
    2 when the pledge carries a nonce), the slave id, the nonce if any,
    the query's {!Secrep_store.Codec} bytes, the result digest and the
    keep-alive frame ({!Keepalive.write}).  {!Wire} appends the
    signature and a batched pledge's proof. *)

val sign_batch :
  slave_key:Secrep_crypto.Sig_scheme.keypair -> slave_id:int -> root:string -> string
(** One signature over a whole batch's Merkle root. *)

val verify_signature : slave_public:Secrep_crypto.Sig_scheme.public -> t -> bool
(** [Single]: check the signature over the payload.  [Batched]: check
    the inclusion proof against the root, then the signature over the
    root. *)

val verify :
  ?expected_nonce:int ->
  slave_public:Secrep_crypto.Sig_scheme.public ->
  master_public:Secrep_crypto.Sig_scheme.public ->
  result:Secrep_store.Query_result.t ->
  now:float ->
  max_latency:float ->
  t ->
  (unit, string) result
(** The full client-side check of §3.2: result hash matches the
    pledge, slave signature valid, keep-alive master-signed, timestamp
    fresh.  When [expected_nonce] is given the pledge must be bound to
    exactly that nonce (replay defense, §2 threat model); the error
    reason then starts with ["nonce"]. *)

val version : t -> int
