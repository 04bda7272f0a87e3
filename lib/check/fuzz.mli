(** The fuzz campaign: generate scenarios, run them on the simulator,
    check invariants, shrink failures.

    This is the engine behind the CLI's [fuzz] subcommand and the
    fuzz-oriented tests; it is {!Prop.check} instantiated with
    {!Scenario.gen}/{!Scenario.shrink} and {!Invariant.check_all}. *)

type outcome =
  | Passed of { runs : int }
  | Failed of { failure : Scenario.t Prop.failure; replay : string }
      (** [replay] is the one-line CLI invocation reproducing the
          failing run exactly: its seed plus every pin the campaign was
          given ([--shards], [--replication-factor], [--invariant]). *)

val run :
  ?runs:int ->
  ?max_shrink_steps:int ->
  ?invariants:Invariant.checker list ->
  ?shards:int ->
  ?slaves_per_master:int ->
  seed:int64 ->
  unit ->
  outcome
(** Defaults: 100 runs, 200 shrink steps, all invariants.  Run [i]
    uses seed [seed + i], so any failure replays with
    [run ~runs:1 ~seed:failure.seed] and the same pins.  Scenarios draw
    a shard count (1–4) and run on a {!Secrep_shard.Deployment} via
    {!Harness.run} with every invariant checked per shard; violations
    of multi-shard scenarios are prefixed with the failing shard's
    index.  [shards] / [slaves_per_master] pin those scenario fields
    across both generation and shrinking (the CLI's [--shards] and
    [--replication-factor]). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human-readable campaign report: pass summary, or the original and
    shrunk counterexamples with the replay hint. *)
