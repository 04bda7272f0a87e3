(** Signature schemes behind a single interface.

    Protocol code signs and verifies through a keypair value and never
    sees the scheme.  Two schemes are provided:

    - [Rsa ~bits]: the real thing, built on {!Rsa}.  Signing is much
      more expensive than verification — the asymmetry the paper's
      auditor exploits — and the micro-benchmarks measure it.
    - [Hmac_sim]: a simulation-speed stand-in with the same API.  Each
      keypair holds a random MAC secret; "public" verification uses the
      same secret (fine inside one simulation process, where the point
      is protocol behaviour, not adversarial cryptography).  DESIGN.md
      records this substitution. *)

type scheme = Rsa of { bits : int } | Hmac_sim

type keypair
type public

val generate : scheme -> Prng.t -> keypair
val public_of : keypair -> public
val sign : keypair -> string -> string
val verify : public -> msg:string -> signature:string -> bool

val key_id : public -> string
(** Stable short hex identifier of the public half. *)

val encode_public : public -> string
(** Wire encoding of the public half (for certificates and directory
    entries travelling between simulated hosts). *)

val decode_public : string -> (public, string) result
(** Inverse of {!encode_public}; never raises on garbage. *)

val pp_public : Format.formatter -> public -> unit
