(** Cross-shard traffic: Zipf popularity over content items, with an
    optional diurnal skew shift that rotates the hot content over time.
    Composes with a per-shard {!Mix} (Zipf over keys) to give the full
    "Zipf over contents x Zipf over keys" workload E12 drives. *)

type t

val create :
  rng:Secrep_crypto.Prng.t ->
  n_shards:int ->
  ?s:float ->
  ?rotate_period:float ->
  unit ->
  t
(** [s] (default 1.0) is the Zipf exponent over contents; [s = 0] is
    uniform.  With [rotate_period], the content holding each popularity
    rank shifts by one shard every period. *)

val arrivals : t -> rate:float -> duration:float -> (float * int) list
(** A full Poisson arrival schedule at [rate]/s over [duration]
    seconds: (time, shard) pairs, drawn up front so callers can
    schedule each arrival on its shard's own simulator clock. *)
