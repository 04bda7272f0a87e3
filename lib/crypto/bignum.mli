(** Arbitrary-precision natural numbers.

    Implemented from scratch on top of OCaml's native [int]: numbers are
    little-endian arrays of 26-bit limbs, so limb products and the column
    sums of schoolbook multiplication fit comfortably in a 63-bit [int].
    Values are immutable and always normalized (no most-significant zero
    limbs; zero is the empty array).

    This module backs {!Rsa} and {!Mr_prime}; only natural (non-negative)
    arithmetic is exposed.  Subtraction of a larger number raises. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int].  Raises [Invalid_argument]
    on negative input. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)

val is_zero : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val succ : t -> t
val pred : t -> t
(** [pred n] requires [n > 0]. *)

val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b].
    Raises [Division_by_zero] when [b] is zero.  Long division is Knuth's
    Algorithm D over 26-bit limbs. *)

val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** [bit_length n] is the index of the highest set bit plus one;
    [bit_length zero = 0]. *)

val test_bit : t -> int -> bool

val mod_exp : base:t -> exp:t -> modulus:t -> t
(** [mod_exp ~base ~exp ~modulus] is [base^exp mod modulus].
    [modulus] must be non-zero.  Odd moduli > 1 go through the
    Montgomery kernel ({!Mont}) with 4-bit sliding-window
    exponentiation; even moduli (and the degenerate modulus 1) fall
    back to {!mod_exp_schoolbook}.  Both paths compute the same exact
    value — the Montgomery representation is internal only. *)

val mod_exp_schoolbook : base:t -> exp:t -> modulus:t -> t
(** The seed implementation: left-to-right binary exponentiation with a
    full division per step.  Kept as the even-modulus fallback and as
    the reference for differential tests and the E15 bench, which reach
    it through RSA keys whose Montgomery contexts are [None]. *)

module Mont : sig
  (** Montgomery arithmetic for a fixed odd modulus: a per-modulus
      context precomputes [-m^-1 mod 2^26] and [R^2 mod m]
      (R = 2^(26k) for a k-limb modulus), after which modular products
      cost one fused CIOS pass with no division. *)

  type ctx

  val make : t -> ctx option
  (** [make m] is [None] unless [m] is odd and [> 1]. *)

  val modulus : ctx -> t

  val to_mont : ctx -> t -> t
  (** Montgomery residue [a * R mod m]; reduces [a] mod [m] first. *)

  val from_mont : ctx -> t -> t
  val one : ctx -> t
  (** The Montgomery residue of 1, i.e. [R mod m]. *)

  val mul : ctx -> t -> t -> t
  (** Product of two Montgomery residues, as a Montgomery residue. *)

  val exp : ctx -> base:t -> exp:t -> t
  (** [exp ctx ~base ~exp] is [base^exp mod m] in the ordinary domain:
      4-bit sliding windows over precomputed odd powers, with a
      dedicated 16-squarings-and-one-multiply path for exponent
      65537. *)

  val exp_mont : ctx -> base:t -> exp:t -> t
  (** Like {!exp} but returns the Montgomery residue, for callers that
      keep a squaring chain in Montgomery form (Miller-Rabin). *)
end

val gcd : t -> t -> t

val mod_inv : t -> t -> t option
(** [mod_inv a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], [None] otherwise. *)

val of_bytes_be : string -> t
(** Big-endian unsigned interpretation of a byte string. *)

val to_bytes_be : ?length:int -> t -> string
(** Big-endian bytes, left-padded with zeros to [length] when given.
    Raises [Invalid_argument] if the value does not fit in [length]. *)

val of_hex : string -> t
val to_hex : t -> string
(** Lower-case hex without leading zeros; ["0"] for zero. *)

val of_decimal : string -> t
val to_decimal : t -> string

val pp : Format.formatter -> t -> unit
(** Prints the decimal representation. *)
