(** Deterministic scenario execution.

    Builds a {!Secrep_shard.Deployment.t} from a {!Scenario.t} (one
    shard is the paper's single-content system), subscribes to each
    shard's live trace stream (so no event is lost to the ring buffer),
    schedules the scenario's timed operations, runs the simulator past
    the point where every write has committed and the auditor has
    caught up, and returns, per shard, the complete typed event stream
    plus every accepted read labelled against the ground-truth oracle.

    Everything is seeded from the scenario, so two runs of the same
    scenario produce bit-identical results. *)

type accepted_read = {
  time : float;  (** simulated time the client accepted *)
  client : int;
  slave : int;  (** the slave that served it *)
  version : int;  (** content version the result was computed at *)
  wrong : bool;  (** oracle says the answer is incorrect *)
}

type run_result = {
  scenario : Scenario.t;  (** the normalized scenario that actually ran *)
  events : Secrep_sim.Trace.record list;  (** complete stream, oldest first *)
  accepted : accepted_read list;  (** in completion order *)
  end_time : float;
  pledges : Secrep_core.Pledge.t list;
      (** every pledge delivered to an auditor, in delivery order —
          the input stream for the offline audit drivers *)
  reexec : version:int -> Secrep_store.Query.t -> string option;
      (** ground-truth re-execution oracle over the run's version
          history ({!Secrep_core.System.reexec_digest}) *)
  slave_public : int -> Secrep_crypto.Sig_scheme.public option;
      (** public keys of the run's slaves, for offline signature checks *)
}

val run : ?domains:int -> Scenario.t -> run_result list
(** Execute the scenario over [n_shards] content items and return one
    result per shard, each carrying the slice of the scenario that
    shard saw (its own faults and ops; chaos windows are global).  Ops
    route to shard [key mod K] and adversarial faults to shard
    [slave mod K].  Slave cuts and churn act on the pool host holding
    that slot of shard [slave mod K], hitting every co-located replica
    (at K = 1, exactly the named slave); master, auditor, loss and
    latency windows are applied per shard.  The run horizon covers the
    last heal plus a convergence margin and every read's worst-case
    retry ladder.

    [domains] selects the deployment scheduler (0/1 sequential, [> 1]
    the parallel worker pool); every setting must produce byte-identical
    per-shard streams — the [parallel-determinism] invariant holds the
    harness to that. *)

val capture :
  Secrep_shard.Deployment.t -> shard:int -> Scenario.t -> accepted_read list -> run_result
(** [capture d] subscribes to every shard's event stream and pledge
    feed — call it right after {!Secrep_shard.Deployment.create},
    before anything runs — and returns the builder that, once the run is
    over, packages shard [shard]'s capture as a [run_result] judged
    against the given scenario and accepted reads.  {!run} uses it, and
    so does the CLI's [chaos] command for runs it drives itself. *)

val events_digest : run_result -> string
(** {!Secrep_sim.Trace.digest} of the captured stream.  Used by the
    determinism tests and the replay documentation. *)
