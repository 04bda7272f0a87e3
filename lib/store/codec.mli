(** The one byte format of store values: length-prefixed, tagged and
    decodable.  It is the transport format, the snapshot format and the
    bytes that are hashed and signed ({!Canonical} is SHA-1 over it), so
    it must stay deterministic and injective: equal values give equal
    bytes, distinct values distinct bytes.  Floats are written by their
    IEEE bit pattern and documents in sorted field order.  Decoders
    never raise on malformed input — they return [Error] — so a
    byte-flipping network or a malicious peer cannot crash a node. *)

type 'a decoder = string -> ('a, string) result

val encode_value : Value.t -> string
val decode_value : Value.t decoder

val encode_document : Document.t -> string
val decode_document : Document.t decoder

val encode_query : Query.t -> string
val decode_query : Query.t decoder

val encode_result : Query_result.t -> string
val decode_result : Query_result.t decoder

(** Low-level reader/writer, reused by {!Secrep_core}'s packet
    encodings. *)

module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  (** Non-negative ints, LEB128. *)

  val float : t -> float -> unit
  val bytes : t -> string -> unit
  (** Length-prefixed. *)

  val contents : t -> string
end

module Reader : sig
  type t

  val create : string -> t
  val u8 : t -> int
  val varint : t -> int
  val float : t -> float
  val bytes : t -> string
  val at_end : t -> bool

  exception Truncated
  exception Malformed of string

  val run : string -> (t -> 'a) -> ('a, string) result
  (** Runs a decoding function, converting exceptions into [Error] and
      rejecting trailing garbage. *)
end
