(** Point-to-point simulated network links.

    A link carries opaque deliveries (thunks) from one node to another
    with sampled latency, optional loss, and an up/down switch used to
    model crashes and partitions.  Deliveries in flight when a link
    goes down are dropped, matching a fail-stop network model. *)

type t

val create :
  Sim.t ->
  rng:Secrep_crypto.Prng.t ->
  latency:Latency.t ->
  ?loss:float ->
  ?name:string ->
  unit ->
  t

val send : t -> (unit -> unit) -> unit
(** Schedule the delivery thunk after a sampled delay, unless the link
    is down or the message is (probabilistically) lost. *)

val set_up : t -> bool -> unit

val set_loss : t -> float -> unit
(** Replace the per-message loss probability (chaos loss bursts).
    Raises [Invalid_argument] outside [0, 1). *)

val loss : t -> float

val set_latency : t -> Latency.t -> unit
(** Replace the latency model (chaos latency spikes); messages already
    in flight keep their sampled delay. *)

val latency : t -> Latency.t

val set_duplicate : t -> float -> unit
(** Byzantine fault: probability that a delivery arrives twice (the
    copy gets an independently sampled delay).  Default 0; when 0 the
    link draws no extra randomness, so fault-free runs are bit-stable.
    Raises [Invalid_argument] outside [0, 1). *)

val duplicate : t -> float

val set_reorder : t -> burst:int -> window:float -> unit
(** Byzantine fault: hold up to [burst] (>= 2) arrived messages and
    release them in reversed arrival order; a held message waits at
    most [window] extra seconds before the buffer is force-flushed.
    [burst = 0] disables (and flushes anything held).  Raises
    [Invalid_argument] on [burst = 1] or a non-positive window while
    enabled. *)

val delivered : t -> int
val dropped : t -> int
val name : t -> string
