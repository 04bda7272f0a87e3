(** The versioned content store each replica (master, slave, auditor)
    holds.  Applying a write op bumps the paper's [content_version]
    counter (initialised to zero when the content is created, §3.1). *)

type t

val create : unit -> t

val version : t -> int
val key_count : t -> int

val get : t -> string -> Document.t option
val mem : t -> string -> bool

val apply : t -> Oplog.op -> unit
(** Executes the op and increments the version.  Ops referencing a
    missing key are still version-bumping no-ops for [Delete] and
    [Remove_field]; [Set_field] on a missing key creates the
    document. *)

val apply_entry : t -> Oplog.entry -> unit
(** Replays a logged entry; the entry's version must be exactly
    [version t + 1] (raises [Invalid_argument] otherwise), so replicas
    cannot silently skip updates. *)

val fold_selector : t -> Query.selector -> init:'a -> f:('a -> string -> Document.t -> 'a) -> 'a
(** Folds documents matched by the selector in ascending key order;
    range endpoints are inclusive. *)

val keys : t -> string list

val snapshot : t -> Snapshot.t
val restore : t -> Snapshot.t -> unit

val assign : t -> from:t -> unit
(** Overwrite this store's contents and version with [from]'s (used
    for checkpoint installation during slave recovery). *)

val content_hash : t -> string
(** SHA-1 of {!to_bytes}; equal on replicas holding identical
    state. *)

val to_bytes : t -> string
(** Serialize the full store (version + documents) with {!Codec};
    suitable for checkpointing a replica to disk or shipping a full
    state transfer. *)

val of_bytes : string -> (t, string) result
(** Inverse of {!to_bytes}; [Error] on malformed input. *)
