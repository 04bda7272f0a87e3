(** Wire encodings of the protocol packets that cross trust boundaries:
    keep-alives (master -> slave -> client), pledges (slave -> client
    -> auditor/master) and master certificates (directory -> client).

    A real deployment ships these bytes; the simulation uses them for
    size accounting and to prove the formats round-trip.  Decoders
    return [Error] on any malformed input — a byzantine peer can send
    garbage, not crash us. *)

val encode_keepalive : Keepalive.t -> string
val decode_keepalive : string -> (Keepalive.t, string) result

val encode_pledge : Pledge.t -> string
val decode_pledge : string -> (Pledge.t, string) result

val encode_certificate : Certificate.t -> string
val decode_certificate : string -> (Certificate.t, string) result

val pledge_size : Pledge.t -> int
(** Encoded size in bytes; feeds the [system.read_reply_bytes] and
    [system.pledge_bytes] counters. *)
