(** Slave servers (§2): marginally-trusted replicas that execute read
    queries and sign a pledge for every answer.  State arrives lazily
    from the owning master after commit (§3); a correct slave refuses
    reads while its keep-alive is older than [max_latency].

    Malicious behaviour is injected via {!Fault.behavior}: a lying
    slave still produces protocol-valid pledges (that is the attack),
    it just pledges a wrong digest. *)

type t

type read_reply = {
  result : Secrep_store.Query_result.t;
  pledge : Pledge.t;
}

val create :
  Secrep_sim.Sim.t ->
  rng:Secrep_crypto.Prng.t ->
  id:int ->
  config:Config.t ->
  master_id:int ->
  stats:Secrep_sim.Stats.t ->
  trace:Secrep_sim.Trace.t ->
  spans:Secrep_sim.Span.t ->
  t

val id : t -> int
val public : t -> Secrep_crypto.Sig_scheme.public
val master_id : t -> int
val set_master : t -> master_id:int -> unit
(** Re-homing after a master crash (§3: remaining masters divide the
    slave set). *)

val set_behavior : t -> Fault.behavior -> unit
val behavior : t -> Fault.behavior

val note_peer_excluded : t -> unit
(** A corrective action against some slave became public.  Honest
    slaves ignore it; an [Adaptive] attacker counts it as audit
    pressure and lies less while the heat is on. *)

val receive_update :
  ?preapplied:Secrep_store.Store.t ->
  t ->
  entries:Secrep_store.Oplog.entry list ->
  keepalive:Keepalive.t ->
  unit
(** Applies the contiguous suffix of [entries]; on a version gap the
    resync callback fires with the slave's current version.  A
    stale-state attacker absorbs the keep-alive but drops entries.
    [preapplied] is [entries] already applied to a store one version
    before the first entry: a slave at that version adopts its
    (immutable) contents instead of replaying [entries]. *)

val on_resync_needed : t -> (slave_id:int -> from_version:int -> unit) -> unit
(** Installed by the owning master; called when updates arrive with a
    gap. *)

val handle_read :
  t ->
  client:int ->
  request:int ->
  query:Secrep_store.Query.t ->
  reply:(read_reply option -> unit) ->
  unit
(** Executes on the slave's simulated CPU (scan cost + signing cost)
    and replies through [reply].  [None] = refused (stale keep-alive
    or excluded).  An [Omit_result] attacker never calls [reply].
    [request] is the read's lineage id, stamped on the pledge events
    it generates. *)

val version : t -> int
val is_available : t -> now:float -> bool
(** Fresh keep-alive in hand and not excluded. *)

val exclude : t -> unit
val is_excluded : t -> bool

val reinstate : t -> checkpoint:string -> keepalive:Keepalive.t -> (unit, string) result
(** §3.5 recovery: wipe the (possibly corrupted) local state, install
    the master-provided checkpoint (a {!Secrep_store.Store.to_bytes}
    image), reset behaviour to honest and resume serving. *)

val work : t -> Secrep_sim.Work_queue.t
