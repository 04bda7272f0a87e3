(** A single-threaded simulated CPU.

    Servers execute queries sequentially: submitted work starts when
    the previous item finishes, so queueing delay emerges naturally
    under load.  Completion callbacks run at the simulated finish
    time. *)

type t

val create : Sim.t -> unit -> t

val submit : t -> cost:float -> (unit -> unit) -> unit
(** [submit q ~cost k] enqueues work taking [cost] seconds and calls
    [k] when it completes.  Negative cost raises [Invalid_argument]. *)

val completed : t -> int
val busy_seconds : t -> float
(** Total simulated compute charged so far. *)
