(** The auditor (§3.4): a trusted server with no slave set whose only
    duty is re-executing the reads behind forwarded pledges.

    It lags the masters on purpose: it applies the write that creates
    version v+1 only after auditing every pledge for version <= v *and*
    more than [max_latency + audit_lag_slack] has passed since the
    masters committed v+1, by which point no client can still accept a
    version-v read (§3.4).

    Its throughput advantages over slaves are modelled exactly as the
    paper lists them: no signing, no client replies, a result cache
    (one re-execution memo for the version under audit, bounded by
    [Config.audit_cache_capacity]), and work spread into idle periods
    via its own queue.  Each pledge is judged by
    {!Audit_core.audit_pledge}, the function the differential oracle
    tests. *)

type t

val create :
  Secrep_sim.Sim.t ->
  config:Config.t ->
  stats:Secrep_sim.Stats.t ->
  rng:Secrep_crypto.Prng.t ->
  slave_public:(int -> Secrep_crypto.Sig_scheme.public option) ->
  report:(Pledge.t -> unit) ->
  trace:Secrep_sim.Trace.t ->
  spans:Secrep_sim.Span.t ->
  t
(** [report] fires on every caught slave (delayed discovery); the
    system layer routes it to the responsible master. *)

val submit_pledge : t -> Pledge.t -> unit
(** Client-forwarded pledge.  Subject to [audit_fraction] sampling;
    pledges for versions the auditor has already passed are counted as
    [auditor.late_pledges] and dropped (the lag slack makes this
    impossible for conforming clients).  When the backlog has reached
    [Config.auditor_queue_capacity] the pledge is shed and counted in
    {!overload_drops} instead of growing the queue without bound. *)

val on_committed_write :
  t -> entry:Secrep_store.Oplog.entry -> commit_time:float -> unit
(** Feed from the masters' commit pipeline. *)

val backlog : t -> int
(** Pledges queued and not yet verified. *)

val audited : t -> int
val caught : t -> int
val late_pledges : t -> int

val overload_drops : t -> int
(** Pledges shed because the bounded intake queue was full. *)

val cache : t -> Secrep_store.Audit_index.t
(** The re-execution memo; its hits and misses count settled pledges. *)

val work : t -> Secrep_sim.Work_queue.t

val backlog_series : t -> Secrep_sim.Timeseries.t
(** (time, backlog) sampled at every submission and completion — the
    E6 day-curve. *)

val note_suspicion : t -> slave:int -> amount:float -> unit
(** Bump [slave]'s suspicion score (a decayed EWMA of weak misconduct
    signals: double-check mismatches, nonce rejects, late pledges).
    With [Config.audit_adaptive] a score crossing
    {!Config.quarantine_threshold} puts the slave on probation (100%
    audit for 30 s, {e Slave_quarantined} emitted);
    with the flag off the score is tracked but never acted on.
    Suspicion is never grounds for exclusion — only a re-execution
    mismatch is — so honest slaves can be suspected, even quarantined,
    but never falsely accused. *)

val is_quarantined : t -> slave:int -> bool

val quarantines : t -> int
(** Probation periods started (a slave can be quarantined repeatedly). *)
