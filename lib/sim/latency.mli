(** Network latency models for simulated links. *)

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }
      (** [floor + Exp(mean)]: a propagation floor plus queueing tail,
          the standard WAN shape. *)

val sample : t -> Secrep_crypto.Prng.t -> float
(** A non-negative delay in seconds. *)

val scale : t -> float -> t
(** Multiply every delay by [factor] (chaos latency spikes).  Raises
    [Invalid_argument] on a non-positive factor. *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical parameters (negative
    bounds, [lo > hi], a non-positive mean). *)
