(** State-signing baseline (§5, after SFS-RO / SUNDR-style systems):
    content blocks live on untrusted storage authenticated by a Merkle
    tree whose root the content owner signs each version.

    Point reads are exactly where this scheme shines: fetch one block
    plus a logarithmic proof, verify, done — no trusted host involved.
    The paper's criticism is dynamic queries: "the trusted host [must]
    first retrieve all data relevant to the query from untrusted
    storage, verify it, and then perform the operation" — so scans,
    greps and aggregates pay per-document fetch + verify on a trusted
    host, which this model charges explicitly. *)

type t

val create :
  Secrep_sim.Sim.t ->
  rng:Secrep_crypto.Prng.t ->
  storage_latency:Secrep_sim.Latency.t ->
  trusted_latency:Secrep_sim.Latency.t ->
  signer:Secrep_crypto.Sig_scheme.keypair ->
  unit ->
  t

val load_content : t -> (string * Secrep_store.Document.t) list -> unit
(** (Re)builds the Merkle tree and signs the new root. *)

val write : t -> Secrep_store.Oplog.op -> on_done:(float -> unit) -> unit
(** Applies the op, rebuilds affected hashes and re-signs the root;
    calls back with the signing latency. *)

val read :
  t ->
  Secrep_store.Query.t ->
  on_done:(Baseline_common.read_metrics -> unit) ->
  unit
(** Point reads verify a single Merkle path client-side; everything
    else routes through the trusted host. *)

val version : t -> int
val root_signature_valid : t -> bool
(** Invariant check used by tests. *)

val tamper_block : t -> key:string -> bool
(** Corrupt the stored block for [key] on the untrusted storage (the
    tree is left stale).  Returns false when the key is absent.
    Subsequent point reads of that key must detect the mismatch. *)

val proof_length_for : t -> key:string -> int option
(** Merkle path length a point read of [key] verifies. *)
