(** State-machine-replication baseline (§5, after Castro–Liskov PBFT
    and Phalanx): every operation executes on a quorum of untrusted
    replicas and the client accepts a result vouched for by at least
    f+1 matching replies.

    The paper's complaints are exactly what this model exposes: a read
    costs 2f+1 executions instead of one, and its latency is set by
    the *slowest* quorum member.  We simulate the execution and voting
    (the agreement rounds are folded into a per-op round-trip count —
    the protocol internals are not what the comparison measures). *)

type t

val create :
  Secrep_sim.Sim.t ->
  rng:Secrep_crypto.Prng.t ->
  f:int ->
  latency:Secrep_sim.Latency.t ->
  unit ->
  t
(** 3f+1 replicas, f of them potentially byzantine. *)

val n_replicas : t -> int
val quorum_size : t -> int
(** 2f+1: the replicas each read executes on. *)

val load_content : t -> (string * Secrep_store.Document.t) list -> unit

val set_byzantine : t -> count:int -> unit
(** Make the first [count] replicas lie on every read
    ([count <= f] keeps reads correct — the point of the scheme). *)

val read :
  t ->
  Secrep_store.Query.t ->
  on_done:(Baseline_common.read_metrics -> unit) ->
  unit

val write : t -> Secrep_store.Oplog.op -> on_done:(float -> unit) -> unit
(** Executes on all replicas; calls back with commit latency (three
    message rounds plus apply time, the PBFT critical path). *)

val version : t -> int
val total_compute : t -> float
(** Total replica CPU seconds consumed so far. *)
