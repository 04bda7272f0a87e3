let result_digest r = Secrep_crypto.Sha1.digest (Codec.encode_result r)
let query_digest q = Secrep_crypto.Sha1.digest (Codec.encode_query q)
