(** Malicious-slave behaviour injection.

    The paper's threat model (§2, §3.3) is a slave that returns wrong
    answers while remaining protocol-conformant enough to be believed;
    these modes cover the attacks the protocol must catch, plus
    cruder ones the client rejects immediately.  The strategic modes
    ([Replay_pledge], [Equivocate], [Adaptive], [Flaky_omit]) are
    stateful: the slave threads a {!state} record through
    {!decide} so attacks can correlate across reads and react to
    audit pressure. *)

type lie_mode =
  | Corrupt_result
      (** Execute honestly, then flip the answer before pledging — the
          canonical "wrong answer, valid pledge" attack detected only
          by double-check or audit. *)
  | Collude of string
      (** Like [Corrupt_result], but the fabricated answer is a
          deterministic function of the shared tag and the query, so
          every colluding slave returns the *same* wrong answer —
          the attack §4's quorum-read variant must pay extra to
          resist. *)
  | Stale_state
      (** Answer from a frozen, outdated copy of the content while
          attaching the latest keep-alive — e.g. silently dropping
          updates.  Detected like a corrupt result. *)
  | Bad_signature
      (** Pledge signature is garbage; clients reject on the spot. *)
  | Omit_result
      (** Drop the request on the floor (availability attack); clients
          time out and retry elsewhere. *)
  | Replay_pledge
      (** Resend a previously signed, still-fresh pledge (and its
          result) for a *different* read — undetectable without a
          per-read nonce binding the pledge to the request. *)
  | Equivocate of { clique : int list }
      (** Serve the configured clique of client ids honestly and lie
          to everyone else, so the clique's double-checks and quorum
          reads never disagree. *)
  | Adaptive of { threshold : float }
      (** Lie only while the slave's own estimate of audit pressure
          (a decayed EWMA bumped by visible exclusions and repeated
          queries) stays below [threshold]; go quiet for a cooldown
          after a near-miss. *)
  | Flaky_omit of { burst : int }
      (** Correlated omission: once an omission starts, drop [burst]
          consecutive reads before re-rolling — models a host that
          "goes dark" in bursts rather than i.i.d. drops. *)

type behavior =
  | Honest
  | Malicious of { probability : float; mode : lie_mode; from_time : float }
      (** Lie on each read with [probability], starting at simulated
          time [from_time]. *)

type state
(** Per-slave attack state for the strategic modes: audit-pressure
    EWMA, post-near-miss quiet window, remaining omission burst. *)

val initial_state : unit -> state
(** Fresh state.  The audit-pressure estimate decays with a 30 s
    e-folding time. *)

val bump_pressure : state -> now:float -> amount:float -> unit
(** Record an audit-pressure signal (e.g. a peer slave was excluded,
    or the same client re-asked a recently answered query). *)

val note_near_miss : state -> now:float -> cooldown:float -> unit
(** An [Adaptive] attacker saw evidence it was nearly caught; stay
    honest until [now + cooldown]. *)

type decision =
  | Act of lie_mode  (** Lie on this read using [lie_mode]. *)
  | Suppress of string
      (** A strategic mode chose *not* to attack (reason given) —
          e.g. the client is in the clique, or audit pressure is too
          high.  Distinct from [Pass] so traces can show restraint. *)
  | Pass  (** Behave honestly; nothing noteworthy. *)

val decide :
  behavior -> now:float -> client:int -> state -> Secrep_crypto.Prng.t -> decision
(** Stateful attack decision for one read from [client].  Before
    [from_time] it is [Pass] without a draw; after it the memoryless
    modes make one Bernoulli draw with the behaviour's probability. *)

val mode_name : lie_mode -> string

val describe : behavior -> string
