(** Cost constants and reply bookkeeping shared by the two related-work
    baselines the paper argues against (§5). *)

type costs = {
  per_doc_cost : float;  (** seconds per document scanned *)
  signature_cost : float;
  verify_cost : float;
  hash_cost : float;  (** one hash evaluation (Merkle path steps) *)
}

val default_costs : costs
(** The costs both baselines charge.  They match
    {!Secrep_core.Config.default} so cross-system comparisons are
    apples-to-apples. *)

type read_metrics = {
  latency : float;
  server_executions : int;  (** how many replicas executed the query *)
  trusted_compute : float;  (** seconds of trusted-host CPU consumed *)
  untrusted_compute : float;
  correct : bool;
}
