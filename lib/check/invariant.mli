(** Paper-level invariants checked against a harness run's typed event
    stream.

    Each checker returns [Error message] naming the first violation it
    finds.  Some invariants only hold under preconditions the checker
    derives from the scenario itself (e.g. eventual detection needs
    the auditor on and a loss-free network, because a dropped
    client-to-auditor pledge forward legitimately loses the evidence);
    when the precondition fails the checker passes vacuously. *)

type checker = {
  name : string;
  doc : string;
  check : Harness.run_result -> (unit, string) result;
}

val detection : checker
(** Every accepted-but-wrong answer from a lying slave is eventually
    flagged: a double-check mismatch, an audit conviction or an
    exclusion of that slave appears in the stream.  Requires
    [audit = true], a loss-free network and no chaos (an auditor cut
    can legitimately drop the convicting evidence).  Reads served by a
    pledge-replaying slave are skipped when read nonces are off: a
    replay re-executes clean, so audits alone can never convict it —
    its defense is the nonce, which {!replay_rejection} checks. *)

val no_false_accusation : checker
(** A run with no injected faults never produces a double-check
    mismatch, audit conviction or exclusion — honest slaves are never
    accused, even over lossy links. *)

val staleness : checker
(** A pledge verified OK at version [v] and time [t] implies
    [t <= commit(v+1) + max_latency]: accepted data is never staler
    than the freshness bound (§3.2). *)

val write_spacing : checker
(** Per master, consecutive commits are at least [max_latency] apart —
    the write-rate limit of §3.1. *)

val pledge_validity : checker
(** Every accepted read is backed by a pledge that verified OK for the
    same (client, slave, version) triple. *)

val availability : checker
(** Every [Read_issued] has a matching [Read_answered]: reads either
    succeed (from a slave or, degraded, from the master) or fail
    explicitly — they never hang, even under partitions and churn. *)

val differential_audit : checker
(** Replays the run's recorded pledge stream through
    {!Secrep_core.Audit_core.run_naive} (full per-pledge signature
    verification + re-execution) and {!Secrep_core.Audit_core.run_dedup}
    (the live auditor's judgement, with its batch-root and
    re-execution memos) and demands verdict-for-verdict identical
    outcomes.  This is the differential guarantee that batching and
    the memos are pure optimizations. *)

val recovery_convergence : checker
(** A slave that rejoins ([Node_recovered]) holds, or catches up to,
    the version committed at its rejoin time within [max_latency].
    Recoveries the trace cannot judge are skipped: lossy nets, slaves
    with injected faults, windows overlapping another disturbance
    (master cut or crash, re-cut of the same slave, loss burst or
    latency spike), exclusions, and runs ending before the deadline. *)

val replay_rejection : checker
(** With [read_nonces] on, a replayed pledge that reaches its victim
    in time is rejected, and rejected {e for the nonce mismatch}.
    Each [Attack_launched] (mode [replay-pledge]) is matched to the
    first [Pledge_verified] for its (client, slave, request) triple
    inside the attacked attempt's timeout window, which is the only
    unambiguous attribution once retries reuse the request id; a
    launch whose reply never shows up in the window is not judged. *)

val equivocation_detection : checker
(** An equivocating slave whose lie was verified OK by the victim is
    flagged (double-check mismatch, audit conviction or exclusion) by
    the end of the run.  Requires audit on with uniform sampling, a
    loss-free network, no chaos and no auditor overload — each of
    those can legitimately drop the convicting pledge. *)

val adaptive_no_worse : checker
(** Differential over the recorded pledge stream via
    {!Secrep_core.Audit_core.run_sampled}: a uniform and a
    suspicion-weighted sampler share one pre-drawn randomness array
    (common random numbers), so the comparison is deterministic.
    Asserts the first detection index coincides (the samplers are
    identical until the first catch) and, when the stream contains at
    most one lying slave, that the adaptive sampler catches at least
    as many lying pledges — the liar's audit probability never drops
    below the uniform fraction. *)

val parallel_determinism : checker
(** Differential oracle for the domain-parallel shard scheduler:
    re-runs the result's scenario through {!Harness.run} with
    [domains = 0] (sequential lockstep) and [domains = 2] (parallel
    worker pool) and demands byte-identical per-shard event stream
    digests ({!Harness.events_digest}).  Because both runs replay the
    scenario from scratch, the comparison covers every source of
    divergence downstream of the scheduler — PRNG draws, chaos fan-out,
    rebalance decisions, auditor budgets — not just the merge order.
    Vacuous for single-shard scenarios (nothing to parallelise). *)

val alert_coverage : checker
(** Cross-check between the fuzz invariants and the online monitor:
    replays the run's event stream through an offline
    {!Secrep_monitor.Slo} (thresholds derived from the scenario's own
    config) and demands that every violated invariant with an online
    counterpart ({!Secrep_monitor.Slo.rule_for_invariant}) is covered
    by at least one raised alert of the matching rule.  An invariant
    violation the monitor would have slept through is itself a
    violation. *)

val all : checker list

val named : string list -> (checker list, string) result
(** Resolve checker names ([]= all); [Error] lists the unknown name. *)

val check_all : checker list -> Harness.run_result -> (unit, string) result
(** First violation, prefixed with the checker's name. *)
