(** Clients (§2, §3).

    After the setup phase a client holds one master and one slave
    connection.  Reads go to the slave and come back with a pledge the
    client verifies (§3.2); with a small probability the client
    double-checks against the master (§3.3); otherwise it forwards the
    pledge to the auditor *before* accepting (§3.4).  Mismatches at
    the same content version are immediate discovery: the pledge is
    sent to the master as proof (§3.5).

    A quorum read (§4, second variant) sends the same query to the
    assigned slave and k - 1 healthy peers; any disagreement triggers
    an automatic double-check.  The base protocol is the quorum of
    one, and both run the same read attempt.

    The connection endpoints are closures installed by the system
    layer so that reassignment after an exclusion or a master crash is
    transparent to the state machine here. *)

type read_mode =
  | Single  (** the base protocol: the same read as [Quorum 1] *)
  | Quorum of int
      (** §4 variant 2: same read to the assigned slave and k - 1
          healthy peers; with fewer healthy peers the assigned slave
          reads alone *)

type read_report = {
  query : Secrep_store.Query.t;
  request : int;
      (** causal lineage id: [client_id * 1_000_000 + per-client seq];
          stamped on every event this read generated *)
  outcome :
    [ `Accepted of Secrep_store.Query_result.t
    | `Served_by_master of Secrep_store.Query_result.t
    | `Gave_up ];
  version : int;  (** content version the result was computed at; -1 if gave up *)
  latency : float;
  retries : int;
  double_checked : bool;
  caught_slave : int option;  (** immediate discovery on this read *)
  served_by : int option;
      (** slave that served the accepted answer; [None] for by-master
          and gave-up outcomes.  The fuzz harness keys its
          eventual-detection invariant on this. *)
}

type env = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> unit;
  slave_id : unit -> int;  (** the assigned slave *)
  peers : unit -> int list;
      (** Live slaves other than the assigned one, those of the
          client's master first: the candidates for a quorum read. *)
  public_of_slave : int -> Secrep_crypto.Sig_scheme.public;
  master_public : unit -> Secrep_crypto.Sig_scheme.public;
  send_read :
    slave_id:int ->
    request:int ->
    query:Secrep_store.Query.t ->
    reply:(Slave.read_reply option -> unit) ->
    unit;
  send_double_check :
    query:Secrep_store.Query.t -> reply:(Master.double_check_reply -> unit) -> unit;
  send_sensitive :
    query:Secrep_store.Query.t ->
    reply:((Secrep_store.Query_result.t * int) option -> unit) ->
    unit;
  send_write :
    op:Secrep_store.Oplog.op -> reply:(Master.write_ack -> unit) -> unit;
  forward_pledge : Pledge.t -> unit;
  report_proof : Pledge.t -> unit;
  note_nonce_reject : slave:int -> unit;
      (** A pledge bound to the wrong read nonce was rejected (replay
          suspicion, not cryptographic proof) — the system bumps the
          auditors' suspicion score for [slave]. *)
  note_stale_reject : slave:int -> unit;
      (** A pledge failed the §3.1 freshness check at read time.  The
          client refuses it, so the auditor never sees it in the pledge
          stream; this side channel is the only way the weak signal
          (replayed or frozen replica) reaches the adaptive sampler. *)
  reconnect : avoid:int list -> unit;
      (** Redo the setup phase (new slave, possibly new master).
          [avoid] lists slave ids the client's circuit breakers have
          quarantined; the system should route around them when any
          alternative exists. *)
}

type t

val create :
  id:int ->
  rng:Secrep_crypto.Prng.t ->
  config:Config.t ->
  env:env ->
  stats:Secrep_sim.Stats.t ->
  trace:Secrep_sim.Trace.t ->
  spans:Secrep_sim.Span.t ->
  ?max_latency_override:float ->
  unit ->
  t
(** [max_latency_override] implements the §3.2 refinement where slow
    clients pick their own freshness bound. *)

val id : t -> int

val read :
  t ->
  ?level:Security_level.t ->
  ?mode:read_mode ->
  Secrep_store.Query.t ->
  on_done:(read_report -> unit) ->
  unit
(** Raises [Invalid_argument] on [Quorum k] with [k < 1], before the
    read is counted. *)

val write : t -> Secrep_store.Oplog.op -> on_done:(Master.write_ack -> unit) -> unit

val reads_issued : t -> int

val degraded_reads : t -> int
(** Reads served by the trusted master because no healthy slave
    remained (only with [Config.degraded_reads]). *)

val is_quarantined : t -> slave_id:int -> bool
val quarantined : t -> int list
(** Slave ids currently quarantined by this client's breakers. *)

val on_slave_excluded : t -> slave_id:int -> int
(** §3.5 rollback hook: called when a slave is excluded; returns how
    many of this client's recently accepted reads came from it (the
    reads an application would roll back).  They are counted in
    [tainted_reads] and in the [client.reads_tainted] stat. *)

val tainted_reads : t -> int
