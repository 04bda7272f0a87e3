(** Open-loop workload driver: schedules read/write arrivals onto a
    {!Secrep_core.System} and accumulates the outcome counters the
    experiments report.

    A system is driven by exactly one driver, and reads reach it only
    through that driver: {!summary}'s [accepted_wrong] is the system's
    own oracle verdict count ([system.accepted_wrong]), which
    {!Secrep_core.System.read} keeps for every accepted read, so each
    read is labelled once. *)

type summary = {
  reads_completed : int;
  reads_accepted : int;
  reads_gave_up : int;
  served_by_master : int;
  accepted_wrong : int;
      (** accepted reads the system oracle labelled wrong:
          [system.accepted_wrong] of the driven system *)
  double_checks : int;
  immediate_catches : int;
  mean_latency : float;
  p99_latency : float;
}

type t

val create :
  Secrep_core.System.t ->
  mix:Mix.t ->
  rng:Secrep_crypto.Prng.t ->
  ?level_chooser:(unit -> Secrep_core.Security_level.t) ->
  unit ->
  t
(** [level_chooser] (when given) picks each read's security level;
    otherwise every read is [Normal]. *)

val issue_read : t -> unit
(** Issue one read now: the next client round-robin, the next query
    from the mix.  [run_reads] schedules exactly this per arrival;
    callers with their own arrival process (e.g. a cross-shard one)
    call it directly. *)

val run_reads :
  t -> rate:float -> duration:float -> unit
(** Schedule Poisson read arrivals at [rate]/s over [duration] sim
    seconds, spread round-robin over all clients.  Returns immediately;
    the work happens as the simulation runs.  Every arrival time is
    drawn now, from the [rng] given to {!create}, but only the next one
    is on the event queue at a time, so [Sim.pending] (the
    [sim.pending_events] gauge) does not count the later ones. *)

val run_writes :
  t -> rate:float -> duration:float -> writer:int -> unit
(** Poisson write arrivals issued by client [writer]. *)

val summary : t -> summary
(** Call after the simulation has drained. *)

val reports : t -> Secrep_core.Client.read_report list
(** Completed read reports, oldest first. *)
