(** Causal read lineage: per-request lifecycle records folded from the
    live event stream.

    Every client read carries a [request] id through the events it
    generates (issue → pledge → verify/double-check → answer), and
    auditor verdicts / exclusions name the slave they accuse.  Feeding
    the stream through {!observe} builds one {!info} record per read:
    who served it, whether it was degraded or double-checked, whether
    the pledge behind it lied, and — after {!finalize} correlates
    accusations — when the lie was detected.

    This answers "what happened to read #N?" without replaying a
    trace, and the aggregate {!summary} gives end-to-end latency, the
    read critical path, and detection latency per slave. *)

type info = {
  request : int;
  client : int;
  issued_at : float;
  mode : string;  (** "single" | "quorum-k" | "sensitive" *)
  mutable signed_at : float option;  (** first pledge for this request *)
  mutable signed_by : int;  (** last slave to pledge; -1 if none *)
  mutable lied : bool;  (** some pledge for this request lied *)
  mutable verify_ok : int;
  mutable verify_failed : int;
  mutable first_verified_at : float option;
  mutable double_check : string option;  (** "passed" | "mismatch" | "throttled" *)
  mutable answered_at : float option;  (** [None] = still outstanding *)
  mutable outcome : string;  (** "accepted" | "by-master" | "gave-up" | "" *)
  mutable served_by : int;
  mutable version : int;
  mutable latency : float;
  mutable detected_at : float option;
      (** first accusation of the serving slave at/after acceptance *)
}

type t

val create : unit -> t

val observe : t -> Secrep_sim.Trace.record -> unit
(** Fold one event; subscribe via {!Secrep_sim.Trace.on_emit} for live
    runs or replay a JSONL stream offline.  Events with [request = -1]
    (pre-lineage traces) update nothing. *)

val finalize : t -> unit
(** Correlate accusations (convictions, exclusions, double-check
    mismatches) back to the requests each accused slave served,
    filling [detected_at].  Idempotent; implied by the summaries. *)

type quarantine = { time : float; slave : int; score : float; until : float }

val quarantines : t -> quarantine list
(** Adaptive-audit probation events, oldest first.  Quarantine is
    reversible and carries no cryptographic proof, so it is tracked
    separately from accusations and never counts toward detection
    statistics. *)

type phase = { phase : string; count : int; mean : float; max : float }

type slave_row = {
  slave : int;
  served : int;  (** accepted reads this slave served *)
  lied_served : int;
  first_accused_at : float option;
  reads_before_detection : int option;
      (** accepted reads served up to the first accusation — the
          "reads until detection" count E1 reports *)
  detection_latency : float option;
      (** first lied acceptance → first accusation, seconds *)
}

type client_row = {
  client : int;
  issued : int;
  accepted : int;
  degraded : int;
  gave_up : int;
  outstanding : int;
}

type summary = {
  issued : int;
  completed : int;
  accepted : int;
  by_master : int;
  gave_up : int;
  outstanding : int;
  double_checked : int;
  degraded : int;  (** by-master completions of non-sensitive reads *)
  lied_served : int;  (** accepted reads whose pledge lied *)
  detected_lied : int;
  e2e_mean : float;
  e2e_p99 : float;
  e2e_max : float;
  detection_mean : float;
  detection_max : float;
  critical_path : phase list;
      (** issue_to_pledge, pledge_to_verify, verify_to_accept *)
}

val summarize : t -> summary
val client_rows : t -> client_row list
val slave_rows : t -> slave_row list

val jsonl : t -> string
(** One JSON object per request, issue order. *)

val json_of_summary : summary -> Secrep_sim.Export.Json.t
val pp_summary : Format.formatter -> summary -> unit
