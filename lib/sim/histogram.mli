(** Sample reservoirs with exact quantiles.

    Experiments report p50/p95/p99 latencies; samples are kept in full
    (runs are bounded) and sorted lazily on first query. *)

type t

val create : ?name:string -> unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** Raises [Invalid_argument] when empty. *)

val min_value : t -> float
val max_value : t -> float
val stddev : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100]; nearest-rank on the sorted
    samples.  Raises [Invalid_argument] when empty or [p] out of
    range. *)

val name : t -> string

val sum : t -> float
(** Sum of all samples (0 when empty). *)
