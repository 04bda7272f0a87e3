(** System-wide protocol parameters.

    Every knob the paper names is here: [max_latency] (the
    inconsistency bound, §3), the keep-alive frequency (§3.1), the
    double-check probability (§3.3), the auditor's lag slack and
    verified fraction (§3.4), plus simulation cost constants that give
    queries, signatures and verification realistic relative weight. *)

type t = {
  max_latency : float;
      (** Bound on the staleness a client will accept (seconds). *)
  keepalive_period : float;
      (** How often masters re-sign and push the content version;
          must be well under [max_latency] or honest slaves go
          unavailable. *)
  double_check_probability : float;
      (** Per-read probability a client re-asks its master (§3.3). *)
  audit_enabled : bool;
  audit_fraction : float;
      (** Fraction of forwarded pledges the auditor re-executes (§3.4
          suggests lowering this when the auditor is over-used). *)
  audit_lag_slack : float;
      (** Extra wait (beyond [max_latency]) before the auditor moves
          to the next content version (§3.4). *)
  audit_cache_capacity : int;
      (** Entries in the auditor's re-execution memo ("cache results in
          the simplest case", §3.4), which holds the version under
          audit only and empties when full; the bound on its memory.
          1 keeps just the last digest and effectively disables it —
          the E9 and E11 ablation knob. *)
  scheme : Secrep_crypto.Sig_scheme.scheme;
  per_doc_cost : float;  (** simulated seconds per document scanned *)
  signature_cost : float;  (** simulated seconds per signature made *)
  verify_cost : float;  (** simulated seconds per signature check *)
  write_cost : float;  (** simulated seconds to apply a write op *)
  greedy_window : float;
      (** Seconds of history used for greedy-client detection. *)
  greedy_factor : float;
      (** Clients whose double-check rate exceeds [greedy_factor] times
          the cohort average are throttled (§3.3). *)
  greedy_min_samples : int;
      (** Minimum double-checks before a client can be suspected. *)
  read_retry_limit : int;
      (** Stale/failed read retries before a client gives up. *)
  read_timeout_factor : float;
      (** A read attempt times out after [read_timeout_factor *.
          max_latency].  The factor must be >= 1: a pledge signed at
          send time stays acceptably fresh for [max_latency] (the
          keep-alive bound, §3.1), so 2x covers the round trip to a
          live slave; larger values trade tail-latency tolerance for
          slower failure detection. *)
  retry_backoff_base : float;
      (** First retry delay (seconds); doubles via
          [retry_backoff_factor] up to [retry_backoff_cap]. *)
  retry_backoff_factor : float;
  retry_backoff_cap : float;
  retry_jitter : float;
      (** Fraction of the backoff delay randomised (deterministically,
          from the client's PRNG) to de-synchronise retry storms; 0
          disables jitter. *)
  breaker_threshold : int;
      (** Consecutive timeouts against one slave before the client's
          circuit breaker opens and it routes around that slave. *)
  breaker_cooldown : float;
      (** Seconds an open breaker quarantines a slave before a
          half-open probe is allowed again. *)
  degraded_reads : bool;
      (** When no healthy slave remains, fall back to reading from the
          trusted master (counted — it sacrifices offloading). *)
  auditor_queue_capacity : int;
      (** Max pledges the auditor will hold across its intake queues;
          beyond it new submissions are dropped and counted instead of
          growing without bound during outages. *)
  pledge_batch_size : int;
      (** Pledges a slave accumulates before signing one Merkle root
          over the batch and answering each read with its inclusion
          proof.  1 (the default) signs every pledge individually and
          reproduces the unbatched protocol exactly. *)
  pledge_batch_window : float;
      (** Max seconds a partially-filled batch may wait before being
          flushed anyway; must stay well under [max_latency] or the
          queued pledges go stale while parked. *)
  read_nonces : bool;
      (** Clients mint a per-read nonce (the read's lineage request id)
          that slaves must echo inside the signed pledge payload;
          clients reject pledges bound to a different nonce, closing
          the replay attack.  Off by default: pledges then carry nonce
          0 and keep the legacy payload and wire encoding. *)
  audit_adaptive : bool;
      (** Suspicion-weighted audit sampling: the auditor reweights
          [audit_fraction] per slave by its decayed suspicion score
          (double-check disagreements, late pledges, nonce rejects)
          while keeping the expected budget, and quarantines slaves
          above [quarantine_threshold] (probation: 100% audit).  Off by
          default — uniform sampling, bit-identical to the seed. *)
  suspicion_tau : float;
      (** E-folding time (seconds) of the suspicion EWMA decay. *)
  suspicion_floor : float;
      (** Lower clamp on the adaptive sampling multiplier, so a slave
          that has never misbehaved is still audited at
          [suspicion_floor *. audit_fraction] — no one escapes the
          audit entirely. *)
  quarantine_threshold : float;
      (** Suspicion score at which a slave enters quarantine. *)
  quarantine_duration : float;
      (** Seconds a quarantined slave stays on probation (audited at
          100%) before its score is re-evaluated. *)
}

val default : t

val validate : t -> (unit, string) result
(** Rejects inconsistent settings (e.g. keep-alive period >= max
    latency, probabilities outside [0,1]). *)

val validate_exn : t -> t
