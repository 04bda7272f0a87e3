(** Random query/write generation over a loaded content set. *)

type weights = {
  point : float;
  range : float;
  grep : float;
  aggregate : float;
}
(** Relative weights of the four query classes; need not sum to 1. *)

val default_weights : weights
(** Read-heavy CDN shape: 70% point reads, 15% ranges, 10% greps,
    5% aggregates. *)

type t

val create :
  rng:Secrep_crypto.Prng.t ->
  keys:string array ->
  ?weights:weights ->
  unit ->
  t
(** Point reads draw keys from a Zipf(0.9) popularity skew. *)

val next_query : t -> Secrep_store.Query.t
val next_write : t -> Secrep_store.Oplog.op
(** Field update on a popular key (price/stock bumps — the
    slowly-changing-content shape the paper targets). *)

val queries_generated : t -> int
