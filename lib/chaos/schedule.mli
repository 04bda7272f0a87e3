(** Deterministic fault timelines.

    A schedule is a time-ordered list of fault actions — partitions,
    benign crash-recover cycles, loss bursts, latency spikes — that
    {!Injector.apply} arms on a system's simulator clock.  Schedules
    come from three places: the text DSL ({!parse} / {!to_string}),
    seeded random generation ({!random}), and combinators like
    {!rolling_partition}.  All three are pure data, so a run is
    replayable from its seed or its schedule file alone. *)

type action =
  | Cut_slave of int  (** partition a slave off the network *)
  | Heal_slave of int
  | Cut_master of int  (** also cuts its total-order links *)
  | Heal_master of int
  | Cut_client of int
  | Heal_client of int
  | Cut_auditor
  | Heal_auditor
  | Crash_slave of int  (** benign fail-stop; no accusation *)
  | Recover_slave of int  (** wipe + checkpoint reinstate *)
  | Crash_master of int  (** permanent; survivors re-home its slaves *)
  | Loss_burst of float  (** override loss probability on every link *)
  | Loss_normal
  | Latency_spike of float  (** scale every link's latency model *)
  | Latency_normal
  | Duplicate_burst of float
      (** Byzantine: deliveries arrive twice with this probability *)
  | Duplicate_normal
  | Reorder_burst of int
      (** Byzantine: links hold [n] (>= 2) messages and release them
          reversed *)
  | Reorder_normal
  | Bitflip_burst of float
      (** Byzantine: read-reply pledges get one wire bit flipped with
          this probability; signature checks must reject them *)
  | Bitflip_normal

type entry = { time : float; action : action }

type t = entry list
(** Always kept sorted by time (stable for equal times). *)

val sort : t -> t

val describe : action -> string

val to_string : t -> string
(** The text DSL, one [at TIME ACTION] line per entry; {!parse} reads
    it back.  Lines look like:
    {v
at 5.0 cut slave 2
at 9.0 heal slave 2
at 12.0 crash master 0
at 20.0 loss 0.3
at 30.0 loss normal
at 40.0 latency x4
at 50.0 latency normal
at 60.0 cut auditor
at 70.0 duplicate 0.2
at 75.0 duplicate normal
at 80.0 reorder 4
at 85.0 reorder normal
at 90.0 bitflip 0.1
at 95.0 bitflip normal
v} *)

val parse : string -> (t, string) result
(** Parses the DSL; [#] starts a comment, blank lines are skipped.
    The result is sorted by time. *)

val validate : ?n_masters:int -> ?n_slaves:int -> ?n_clients:int -> t -> (unit, string) result
(** Checks times are non-negative and finite, ids are in range (when
    the counts are given), loss is in [0,1) and latency factors are
    positive. *)

val random :
  rng:Secrep_crypto.Prng.t ->
  duration:float ->
  n_slaves:int ->
  ?n_masters:int ->
  ?n_clients:int ->
  ?intensity:float ->
  unit ->
  t
(** A seeded-random timeline of fault windows over [0, duration]:
    slave partitions and crash-recover cycles, client cuts, loss
    bursts and latency spikes, plus (with more than one master) at
    most one master partition or crash.  Every window closes by
    [0.9 *. duration] so the run ends healed.  [intensity] (default
    1.0) scales how many windows are drawn.  Duplicate, reorder and
    bit-flip windows come only from a written schedule.  Determined
    entirely by [rng]. *)

val rolling_partition :
  n_slaves:int -> start:float -> interval:float -> outage:float -> t
(** Cut slave [i] at [start +. i *. interval] and heal it [outage]
    later — the acceptance scenario that partitions every slave and
    then heals. *)
