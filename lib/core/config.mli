(** System-wide protocol parameters.

    [t] holds every setting some caller varies: the knobs the paper
    names — [max_latency] (the inconsistency bound, §3), the keep-alive
    frequency (§3.1), the double-check probability (§3.3), the
    auditor's lag slack and verified fraction (§3.4) — plus the
    ablations and hardening switches the experiments turn, and the
    simulation cost constants that give queries, signatures and
    verification realistic relative weight.  Settings no caller varies
    are constants instead: the ones two modules read are declared
    below, and the rest live in the one module that reads them. *)

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
  greedy_window : float;
      (** Seconds of history used for greedy-client detection. *)
  greedy_factor : float;
      (** Clients whose double-check rate exceeds [greedy_factor] times
          the cohort average are throttled (§3.3). *)
  greedy_min_samples : int;
      (** Minimum double-checks before a client can be suspected. *)
  read_retry_limit : int;
      (** Stale/failed read retries before a client gives up. *)
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
          0 and their payload and frame omit it (tag 0 or 1, not 2 or
          3). *)
  audit_adaptive : bool;
      (** Suspicion-weighted audit sampling: the auditor reweights
          [audit_fraction] per slave by its decayed suspicion score
          (double-check disagreements, late pledges, nonce rejects)
          while keeping the expected budget, and quarantines slaves
          above {!quarantine_threshold} (probation: 100% audit).  Off by
          default — uniform sampling, bit-identical to the seed. *)
}

val default : t

val validate : t -> (unit, string) result
(** Rejects inconsistent settings (e.g. keep-alive period >= max
    latency, probabilities outside [0,1]). *)

val validate_exn : t -> t

val read_timeout_factor : float
(** A read attempt times out after [read_timeout_factor *.
    max_latency] (2).  The factor must be >= 1: a pledge signed at send
    time stays acceptably fresh for [max_latency] (the keep-alive
    bound, §3.1), so 2x covers the round trip to a live slave. *)

val retry_backoff_cap : float
(** Longest retry backoff, seconds (2). *)

val suspicion_floor : float
(** Lower clamp on the adaptive sampling multiplier (0.25), so a slave
    that has never misbehaved is still audited at [suspicion_floor *.
    audit_fraction] — no one escapes the audit entirely. *)

val quarantine_threshold : float
(** Suspicion score at which a slave enters quarantine (3). *)

val read_give_up_bound : t -> float
(** The longest a client can spend on one read before it gives up:
    [read_retry_limit + 2] timeouts of [read_timeout_factor *.
    max_latency], each followed by at most [retry_backoff_cap] of
    backoff.  SLO read deadlines and run horizons add it as slack. *)
