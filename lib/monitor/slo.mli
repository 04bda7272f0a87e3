(** Online SLO monitor: rolling-window rules evaluated incrementally
    over the live event stream, raising typed {!Secrep_sim.Event.t}
    [Alert_raised] / [Alert_cleared] events.

    Rules (see docs/OBSERVABILITY.md for the full reference):

    - ["staleness"] — a pledge for version [v] was accepted after
      [commit(v+1) + max_latency], or a committed version went
      unapplied by every slave past the bound.
    - ["read-latency"] — rolling p99 read latency above [max_latency].
    - ["availability"] — burn rate of degraded/failed completions
      against the error budget, or a read hung past the retry budget.
    - ["detection"] — a lie outlived the audit detection budget (or,
      at {!finalize}, was never accused at all).
    - ["false-accusation"] — a slave was accused without any recorded
      lie (pulse).
    - ["write-spacing"] — a master committed writes closer than
      [max_latency] apart (pulse).
    - ["auditor-lag"] — the audit store fell behind its deadline or
      shed load.
    - ["breaker"] — circuit-breaker opens exceeded the rate threshold.
    - ["recovery"] — a rejoining slave failed to converge within the
      bound.
    - ["quarantine"] — the adaptive auditor put a slave on probation
      (pulse; the value is the suspicion score that crossed the
      threshold).

    Standing rules clear when their condition recovers ([Alert_cleared]
    carries the outage duration); pulse rules decay after a quiet
    window.  Repeat violations while an alert is active update its
    [peak] instead of re-raising — burn-rate style, one alert per
    outage. *)

type config

val config : ?window:float -> Secrep_core.Config.t -> config
(** Derive thresholds from the run's protocol parameters.  [window]
    (the rolling-window span, seconds) defaults to [6 * max_latency]. *)

val rule_names : string list

val rule_for_invariant : string -> string option
(** Map a fuzz-invariant name (see [Secrep_check.Invariant]) to the
    SLO rule that should fire when it is violated; [None] for
    invariants with no online counterpart (e.g. pledge-validity, which
    needs ground truth the event stream does not carry). *)

type alert = {
  rule : string;
  raised_at : float;
  threshold : float;
  mutable peak : float;  (** worst observed value while active *)
  mutable cleared_at : float option;
  mutable detail : string;  (** human-readable cause, tracks [peak] *)
}

type t

val create : ?trace:Secrep_sim.Trace.t -> config:config -> unit -> t
(** When [trace] is given, raises and clears are emitted into it as
    [Alert_raised] / [Alert_cleared] events with source ["slo"]. *)

val observe : t -> Secrep_sim.Trace.record -> unit
(** Fold one event and re-evaluate every rule at that timestamp.
    Alert events are ignored (a monitor may observe its own output —
    e.g. when subscribed to the trace it emits into — without
    looping).  Time is treated as monotone: a record older than the
    newest seen evaluates at the newest time. *)

val finalize : t -> now:float -> unit
(** Final evaluation at end of run.  Lies never accused are raised as
    ["detection"] alerts regardless of age: the auditor gets no
    further chances.  Idempotent; [observe] is a no-op afterwards. *)

val alerts : t -> alert list
(** Every alert ever raised, oldest first (includes cleared ones). *)

val active : t -> alert list
val raised_rules : t -> string list
val was_raised : t -> string -> bool

val json_of_alert : alert -> Secrep_sim.Export.Json.t
val pp_alert : Format.formatter -> alert -> unit
