(** Sharded content plane: K single-content protocol instances over a
    shared slave-host pool.

    Each shard is an unmodified {!Secrep_core.System} with its own
    deterministically derived seed, advanced in lockstep time slices
    (the larger of one keep-alive period and 0.5 s) by one shared
    bounded scheduler.  Cross-shard coupling is explicit and
    side-effect-free for the shard streams: rendezvous placement of
    replicas on pool hosts, and host-level chaos that fans out to every
    co-located replica.

    Because the deployment never perturbs a shard's PRNG or event
    schedule, a shard's event stream is bit-identical to a standalone
    single-content run with the same derived seed — the differential
    sharding tests assert exactly this.

    {2 Parallel execution}

    With [domains > 1] each slice of each shard runs on a bounded pool
    of OCaml domains (shard [i] is pinned to worker [i mod w], so a
    shard's whole history executes on one domain).  During a slice a
    shard touches only state it owns — its [System.t], its slot->host
    map, its outbox — plus the chaos transition log, which is appended
    only between scheduler runs.  At every slice barrier the
    coordinator merges the outboxes in [(sim_time, shard, seq)] order
    — the same total order the sequential scheduler produces — so tap
    delivery, the deployment trace, and every per-shard stream are
    byte-identical across [domains] settings.  The
    [parallel-determinism] invariant and experiment E14 enforce this. *)

type t

val create :
  n_shards:int ->
  ?n_masters:int ->
  ?replication_factor:int ->
  ?n_clients:int ->
  ?pool_size:int ->
  ?config:Secrep_core.Config.t ->
  ?net:Secrep_core.System.net_profile ->
  ?seed:int64 ->
  ?items_per_shard:int ->
  ?auto_rebalance:bool ->
  ?domains:int ->
  unit ->
  t
(** Defaults: 1 master and 3 replicas per shard, 2 clients per shard,
    pool of [2*replication + 2] hosts, seed 1.  [items_per_shard > 0]
    loads a per-shard product catalogue (seeded by
    {!shard_content_seed}).  [auto_rebalance] (default true) re-homes
    replicas off crashed hosts and excluded slaves onto fresh pool
    hosts after a provisioning delay of two keep-alive periods; turn it
    off for strict differential runs against standalone systems that
    lack a re-homing operator.  [domains] (default 0) caps the
    worker-domain pool; 0 and 1 select the sequential scheduler.  Each
    shard's trace and span rings hold the newest 4096 records. *)

(** {2 Seed derivation} — shared with the differential tests so the
    standalone reference systems can be built from identical inputs. *)

val shard_seed : seed:int64 -> int -> int64
val shard_content_seed : seed:int64 -> int -> int64

(** {2 Accessors} *)

val n_shards : t -> int
val replication : t -> int
val pool_size : t -> int
val trace : t -> Secrep_sim.Trace.t
(** Deployment-level events only (placement, rebalances, and — in
    parallel runs — [Domain_started]/[Shard_merged] window markers). *)

val system : t -> int -> Secrep_core.System.t
val keys : t -> int -> string array
val hosts_of_shard : t -> int -> int array
(** Current slot -> host mapping (a copy). *)

val host_is_alive : t -> int -> bool
(** Aliveness at the deployment clock, read from the chaos
    transition log (a pure function of the injected crash/recover
    history, so every shard observes the same view). *)

val on_event : t -> (shard:int -> Secrep_sim.Trace.record -> unit) -> unit
(** Subscribe to the merged live stream: every shard event (tagged with
    its shard index) plus the deployment's own placement events.
    Records arrive in merged [(time, shard, seq)] order, delivered at
    slice barriers; deployment window markers carry shard [-1]
    ([Domain_started]) or their subject shard ([Shard_merged]). *)

(** {2 Running} *)

val run_until : t -> float -> unit
(** Advance every shard in lockstep slices to the target time, on one
    domain or — when [domains > 1] and the deployment has more than one
    shard — on the parallel worker pool.  Both paths produce
    byte-identical shard streams and tap delivery order. *)

(** {2 Client operations, routed by shard index} *)

val read :
  t ->
  shard:int ->
  client:int ->
  Secrep_store.Query.t ->
  on_done:(Secrep_core.Client.read_report -> unit) ->
  unit

val write :
  t ->
  shard:int ->
  client:int ->
  Secrep_store.Oplog.op ->
  on_done:(Secrep_core.Master.write_ack -> unit) ->
  unit

val schedule : t -> shard:int -> time:float -> (unit -> unit) -> unit
(** Schedule a thunk on a shard's own simulator at an absolute time. *)

(** {2 Host-level chaos}

    Actions land at exactly [at] in every shard's stream: each one
    schedules a per-shard thunk on that shard's own simulator.  Inject
    chaos only between scheduler runs (before the [run_until] that
    covers [at]) — the transition log backing {!host_is_alive} is
    read-only while the scheduler is running. *)

val crash_host : t -> at:float -> int -> unit
(** Fail-stop every replica on the host.  With [auto_rebalance], each
    replica is re-homed to a fresh host and reinstated from a master
    checkpoint after the provisioning delay (unless the host recovered
    first). *)

val recover_host : t -> at:float -> int -> unit
val cut_host : t -> at:float -> int -> unit
val heal_host : t -> at:float -> int -> unit

(** {2 Shard-tagged JSONL} *)

val tagged_line : shard:int -> Secrep_sim.Trace.record -> string
(** {!Secrep_sim.Export.event_line} plus a ["shard"] tag (omitted when
    the event already carries its shard).  Round-trips through
    {!Secrep_sim.Export.record_of_line}, which ignores unknown keys. *)

val shard_of_line : string -> int option
(** Read the shard tag back from a tagged JSONL line. *)
