(** Master servers (§2): trusted hosts run by the content owner.  They
    order writes through the total-order broadcast, lazily push
    committed state (plus signed keep-alives) to their slave set,
    answer clients' double-checks and sensitive reads, and exclude
    slaves when handed an incriminating pledge. *)

type t

type write_ack =
  | Committed of { version : int }
  | Denied of string  (** access-control rejection *)

type double_check_reply =
  | Checked of { digest : string; version : int }
  | Throttled  (** greedy-client quota enforcement (§3.3) *)

type proof_verdict =
  | Slave_guilty
  | Pledge_invalid of string
  | Inconclusive of string
      (** version mismatch: only the (lagging) auditor can re-execute
          at that version *)

val create :
  Secrep_sim.Sim.t ->
  rng:Secrep_crypto.Prng.t ->
  id:int ->
  config:Config.t ->
  content:Content_key.t ->
  order_write:(origin:int -> write_id:int -> Secrep_store.Oplog.op -> unit) ->
  stats:Secrep_sim.Stats.t ->
  trace:Secrep_sim.Trace.t ->
  spans:Secrep_sim.Span.t ->
  t
(** [order_write] hands the op to the total-order broadcast; the
    system layer routes delivered slots back via
    {!on_delivered_write}. *)

val id : t -> int
val public : t -> Secrep_crypto.Sig_scheme.public
val keypair : t -> Secrep_crypto.Sig_scheme.keypair
val certificate : t -> Certificate.t
val store : t -> Secrep_store.Store.t
val version : t -> int
val work : t -> Secrep_sim.Work_queue.t

val set_acl : t -> allowed_writers:int list option -> unit
(** [None] (default) lets every client write. *)

val bootstrap :
  t -> preapplied:Secrep_store.Store.t -> Secrep_store.Oplog.entry list -> unit
(** Load initial content directly into the store and op log, bypassing
    the write path.  Entries must continue the current version
    sequence.  [preapplied] is this master's store with the entries
    applied: the master adopts its (immutable) contents instead of
    replaying them. *)

(* -- slave-set management ---------------------------------------- *)

val add_slave : t -> Slave.t -> send:(Slave.t -> (unit -> unit) -> unit) -> unit
(** [send] delivers a thunk over the master->slave link.  The slave's
    resync callback is installed here. *)

val remove_slave : t -> slave_id:int -> unit
val slave_ids : t -> int list
val assign_slave : t -> rng:Secrep_crypto.Prng.t -> excluding:int list -> Slave.t option
(** Pick a live slave for a (re)connecting client. *)

val record_peer_slaves : t -> master:int -> slaves:int list -> unit
(** Remember a peer's broadcast slave list (§3: "masters also
    periodically broadcast their slave list to the master set"). *)

val peer_slaves : t -> of_:int -> int list
(** The most recent slave list heard from peer [of_]; empty when none
    was ever received. *)

(* -- client-facing operations ------------------------------------ *)

val handle_write :
  t -> client:int -> op:Secrep_store.Oplog.op -> reply:(write_ack -> unit) -> unit

val handle_double_check :
  t -> client:int -> query:Secrep_store.Query.t -> reply:(double_check_reply -> unit) -> unit

val handle_sensitive_read :
  t ->
  client:int ->
  query:Secrep_store.Query.t ->
  reply:((Secrep_store.Query_result.t * int) option -> unit) ->
  unit
(** §4: execute on the trusted master; [None] only for invalid
    queries. *)

val handle_proof :
  t -> proof:Pledge.t -> slave_public:Secrep_crypto.Sig_scheme.public -> proof_verdict
(** Immediate-discovery path (§3.5): verify the pledge signature and
    re-execute at the current version.  [Slave_guilty] means the
    caller should trigger exclusion. *)

(* -- commit pipeline ---------------------------------------------- *)

val on_delivered_write :
  t -> origin:int -> write_id:int -> op:Secrep_store.Oplog.op -> unit
(** Called (in identical order on every master) when the broadcast
    delivers a write.  Application is deferred so consecutive commits
    are at least [max_latency] apart (the §3.1 race-condition rule);
    after applying, the master updates its slaves and acks the client
    when it was the origin. *)

val start_keepalive : t -> unit
(** Start the periodic signed keep-alive broadcast to the slave set
    (§3.1). *)

val crash : t -> unit
val is_alive : t -> bool

val on_write_committed : t -> (Secrep_store.Oplog.entry -> commit_time:float -> unit) -> unit
(** Observer hook the system uses to feed the auditor. *)
