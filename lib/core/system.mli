(** The assembled system: masters + slaves + clients + auditor over a
    simulated WAN, with the setup phase, corrective action, ground-truth
    tracking and metric collection wired in.  This is the entry point
    examples, tests and experiments drive. *)

type net_profile = {
  master_master : Secrep_sim.Latency.t;
  master_slave : Secrep_sim.Latency.t;
  client_slave : Secrep_sim.Latency.t;
  client_master : Secrep_sim.Latency.t;
  client_auditor : Secrep_sim.Latency.t;
  loss : float;
}

val default_net : net_profile
(** A 2003-flavoured WAN: ~40ms master<->master, ~10ms client<->slave
    (the "closest slave" of the setup phase), ~50ms client<->master. *)

val lan_net : net_profile
(** Sub-millisecond everywhere; for protocol-logic tests. *)

type t

val create :
  ?n_masters:int ->
  ?slaves_per_master:int ->
  ?n_clients:int ->
  ?n_auditors:int ->
  ?config:Config.t ->
  ?net:net_profile ->
  ?seed:int64 ->
  ?client_max_latency:(int -> float option) ->
  unit ->
  t
(** Defaults: 3 masters, 4 slaves each, 10 clients, seed 1.  Creation
    runs the setup phase for every client and starts keep-alives.  The
    system keeps per-version oracle snapshots so accepted reads can be
    labelled correct/wrong.  [client_max_latency] implements the §3.2 refinement: clients it
    returns [Some bound] for use their own freshness bound instead of
    the system-wide [max_latency]. *)

val sim : t -> Secrep_sim.Sim.t
val config : t -> Config.t
val stats : t -> Secrep_sim.Stats.t
val trace : t -> Secrep_sim.Trace.t

val spans : t -> Secrep_sim.Span.t
(** Phase-duration spans (sign, verify, query_eval, network, audit)
    collected across every component; feeds the ["span.*"] histograms
    of {!stats}. *)

val corrective : t -> Corrective.t

val auditor : t -> Auditor.t
(** The first auditor (the common single-auditor case). *)

val auditors : t -> Auditor.t list
(** All auditors; with [n_auditors > 1] (§3.4's "add extra auditors")
    pledges shard across them by query digest. *)

val directory : t -> Directory.t
val content_id : t -> string

val run_until : t -> float -> unit
val run_for : t -> float -> unit

val n_masters : t -> int
val n_slaves : t -> int
val n_clients : t -> int

val master : t -> int -> Master.t
val slave : t -> int -> Slave.t
val client : t -> int -> Client.t

val master_of_client : t -> int -> int
val slave_of_client : t -> int -> int
val master_of_slave : t -> int -> int

val load_content : t -> (string * Secrep_store.Document.t) list -> unit
(** Bootstrap the initial content onto every replica (before, or
    between, runs; bypasses the write path and does not count against
    the write-rate limit). *)

val read :
  t ->
  client:int ->
  ?level:Security_level.t ->
  ?mode:Client.read_mode ->
  Secrep_store.Query.t ->
  on_done:(Client.read_report -> unit) ->
  unit
(** Issues the read and additionally labels the accepted result
    against the oracle (stats [system.accepted_correct] /
    [system.accepted_wrong]) and records latency histograms. *)

val write :
  t ->
  client:int ->
  Secrep_store.Oplog.op ->
  on_done:(Master.write_ack -> unit) ->
  unit

val set_slave_behavior : t -> slave:int -> Fault.behavior -> unit
val crash_master : t -> int -> unit

(** {2 Chaos hooks}

    Deterministic fault injection used by [Secrep_chaos]: partitions
    cut every link touching an endpoint (including links created
    later, and the total-order mesh for masters), [crash_slave] /
    [recover_slave] model benign fail-stop churn — no accusation is
    recorded, and recovery wipes the host and reinstates it from a
    master checkpoint.  All changes emit [Partition] /
    [Node_crashed] / [Node_recovered] trace events. *)

val set_slave_connectivity : t -> slave_id:int -> up:bool -> unit
(** Healing a partitioned slave emits [Node_recovered] with its
    (stale) store version; keep-alive-driven resync must then converge
    it — the recovery-convergence invariant checks this. *)

val set_master_connectivity : t -> master_id:int -> up:bool -> unit
val set_client_connectivity : t -> client_id:int -> up:bool -> unit
val set_auditor_connectivity : t -> up:bool -> unit

val crash_slave : t -> slave_id:int -> unit
(** Benign fail-stop crash: links down, no corrective action.
    Idempotent. *)

val recover_slave : t -> slave_id:int -> (unit, string) result
(** Undo [crash_slave]: wipe + checkpoint reinstate under a live
    master, links back up.  Fails for excluded slaves (those go
    through {!readmit_slave}) and when no master is alive. *)

val is_crashed : t -> slave_id:int -> bool

val set_loss : t -> float option -> unit
(** Override the loss probability on every mesh link (loss bursts);
    [None] restores the profile's loss.  The total-order channel keeps
    its own loss setting. *)

val set_latency_factor : t -> float -> unit
(** Scale every mesh link's latency model by [factor] relative to the
    net profile (latency spikes); 1.0 restores normal. *)

val latency_factor : t -> float

(** {2 Byzantine delivery faults}

    Beyond fail-stop: message duplication, reorder bursts and payload
    corruption, schedulable from the chaos DSL.  All default off and
    draw no randomness while off, so fault-free runs stay bit-stable. *)

val set_duplicate : t -> float -> unit
(** Probability that any mesh delivery arrives twice (applied to every
    existing and future link).  Raises outside [0, 1). *)

val duplicate : t -> float

val set_reorder : t -> burst:int -> window:float -> unit
(** Hold up to [burst] (>= 2) messages per link and release them in
    reversed arrival order; a held message waits at most [window]
    seconds.  [burst = 0] disables. *)

val reorder : t -> (int * float) option

val set_bitflip : t -> float -> unit
(** Probability that a read reply's pledge has one random bit flipped
    in its wire encoding.  Unparsable frames are dropped (counted as
    [system.bitflips_unparsable]); parsable ones are delivered and
    must fail the client's signature check — asserted at injection,
    since a flip that still verified would be a forgery. *)

val bitflip : t -> float

val readmit_slave : t -> slave_id:int -> (unit, string) result
(** §3.5: bring a recovered slave back into service — wipe it, ship a
    checkpoint from a live master, re-attach it to that master's slave
    set.  The exclusion remains in the {!Corrective} history.  Fails
    when the slave is not currently excluded or no master is alive. *)

val oracle_version : t -> int

val check_result :
  t -> version:int -> Secrep_store.Query.t -> digest:string -> bool option
(** Ground truth: is [digest] the correct answer for the query at
    [version]?  [None] when tracking is off or the snapshot is
    missing. *)

val reexec_digest : t -> version:int -> Secrep_store.Query.t -> string option
(** Ground truth re-execution: the honest canonical result digest for
    the query at [version].  [None] when tracking is off, the snapshot
    is missing, or the query fails.  The offline audit drivers in
    {!Audit_core} use this as their re-execution oracle. *)

val on_pledge_submitted : t -> (Pledge.t -> unit) -> unit
(** Subscribe to every pledge the moment it is delivered to an auditor
    (after network latency, before sampling/queueing).  Test harness
    hook: the differential audit invariant replays the recorded stream
    through both offline audit drivers. *)
