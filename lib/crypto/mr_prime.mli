(** Probabilistic primality testing and prime generation, used by RSA
    key generation. *)

val is_probable_prime : Prng.t -> Bignum.t -> bool
(** Miller–Rabin with 24 random witnesses, after trial division by
    small primes.  Error probability at most [4^-24] for composites. *)

val random_prime : Prng.t -> bits:int -> Bignum.t
(** [random_prime g ~bits] is a probable prime of exactly [bits] bits
    (top bit set, odd).  Requires [bits >= 3]. *)
