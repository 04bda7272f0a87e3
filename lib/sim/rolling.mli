(** Rolling-window aggregation over timestamped samples.

    The online SLO engine evaluates rules such as "p99 read latency
    over the last [window] seconds" incrementally from the live event
    stream.  Unlike {!Timeseries} (append-only, full history) a
    rolling window retains only the samples newer than
    [now - window].  {!record} appends and evicts in amortised O(1)
    until the first {!percentile} call; from then on the window also
    keeps its values in ascending order (binary-search insert and
    delete, O(n) moves), so each later {!percentile} is an O(1) read of
    the exact nearest-rank value.

    Time must be monotone, matching the simulator clock: feeding a
    sample (or {!advance}-ing) earlier than the latest time seen
    raises [Invalid_argument]. *)

type t

val create : window:float -> unit -> t
(** [window] is the retention horizon in seconds; must be positive. *)

val window : t -> float

val record : t -> time:float -> float -> unit
(** Append a sample and evict everything older than [time - window]. *)

val advance : t -> now:float -> unit
(** Evict without appending: age the window to [now].  Used by purely
    time-driven rule checks between samples. *)

val count : t -> int
(** Samples currently retained. *)

val sum : t -> float

val mean : t -> float option
(** [None] on an empty window. *)

val percentile : t -> float -> float option
(** Nearest-rank percentile of the retained samples, e.g.
    [percentile t 99.0].  [None] on an empty window; raises
    [Invalid_argument] outside [0,100]. *)

val values : t -> float array
(** Retained sample values, oldest first (unsorted). *)
