(** Digests of the {!Codec} encoding.

    Pledge packets hash the query result, and every replica must hash
    equal results to equal digests, or honest slaves would be flagged
    as cheats.  {!Codec} is deterministic and injective, so its bytes
    are the ones hashed; there is no second encoding. *)

val result_digest : Query_result.t -> string
(** SHA-1 of [Codec.encode_result] — the hash carried by pledge
    packets (the paper mandates SHA-1, §3.2). *)

val query_digest : Query.t -> string
(** SHA-1 of [Codec.encode_query]. *)
