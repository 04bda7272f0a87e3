(** Randomized system scenarios for the fuzz harness.

    A scenario is a *value*: topology, protocol knobs, network shape,
    fault injections and a timed operation schedule.  {!gen} draws one
    from a seed, {!Harness.run} executes it deterministically, and
    {!shrink} proposes smaller scenarios so counterexamples come back
    minimal.

    Field values need not be in range a priori — shrinking individual
    fields would otherwise have to keep cross-field consistency —
    {!normalize} clamps everything (client and slave indices by [mod],
    scalars into their legal ranges) before a run. *)

type net =
  | Lan  (** sub-millisecond links, no loss *)
  | Wan  (** the default 2003-flavoured WAN profile *)
  | Lossy of float  (** LAN latencies, this fraction of messages dropped *)

type op =
  | Read of { client : int; key : int; at : float }
  | Write of { client : int; key : int; at : float }

type fault = {
  slave : int;
  mode : Secrep_core.Fault.lie_mode;
  probability : float;
  from_time : float;
}

(** Benign infrastructure failures (as opposed to [fault], which is
    adversarial slave behaviour).  Each value is a self-healing window:
    the disruption starts at [from_time] and is undone [outage] (or
    [duration]) seconds later, so shrinking can drop windows without
    leaving the system permanently degraded. *)
type chaos =
  | Slave_cut of { slave : int; from_time : float; outage : float }
      (** partition the slave's links, then heal *)
  | Slave_churn of { slave : int; from_time : float; outage : float }
      (** fail-stop crash (state wiped), then reinstate from a master *)
  | Master_cut of { master : int; from_time : float; outage : float }
  | Auditor_cut of { from_time : float; outage : float }
  | Loss_burst of { loss : float; from_time : float; duration : float }
  | Latency_spike of { factor : float; from_time : float; duration : float }

type t = {
  sys_seed : int;  (** seeds the system PRNG and the content *)
  n_shards : int;
      (** content items in the deployment (clamped to [1,4]); 1 runs
          the classic single-content system, >1 runs a sharded
          {!Secrep_shard.Deployment} with per-shard invariant checks
          and cross-shard chaos windows *)
  n_masters : int;
  slaves_per_master : int;
  n_clients : int;
  n_items : int;
  max_latency : float;
  keepalive_period : float;
  double_check_p : float;
  audit : bool;
  pledge_batch : int;
      (** [Config.pledge_batch_size]: 1 = classic per-pledge signing,
          >1 = Merkle-batched pledges (clamped to [1,8]) *)
  read_nonces : bool;
      (** [Config.read_nonces]: clients bind pledges to a per-read
          nonce and reject replays *)
  audit_adaptive : bool;
      (** [Config.audit_adaptive]: suspicion-weighted audit sampling
          with quarantine *)
  net : net;
  faults : fault list;
  chaos : chaos list;
  ops : op list;
}

val normalize : t -> t
(** Idempotent; every field in range, every index within the topology. *)

val config : t -> Secrep_core.Config.t
(** The protocol configuration the scenario runs under: the default
    config with the scenario's protocol knobs applied. *)

val of_config :
  sys_seed:int ->
  n_masters:int ->
  slaves_per_master:int ->
  n_clients:int ->
  n_items:int ->
  Secrep_core.Config.t ->
  t
(** A workload-free description of one shard of a run its caller drove
    itself (the CLI's [chaos]): the config's protocol knobs, a WAN, no
    faults, chaos windows or ops — so the honest-run invariants apply
    in full.  Not normalized: sizes are taken as given. *)

val honest : t -> bool
(** No effective fault after normalization.  Chaos does not count:
    an honest run under partitions must still never accuse anyone. *)

val has_chaos : t -> bool
(** Some chaos window survives normalization. *)

val lossy : t -> bool

val op_time : op -> float

val chaos_end : chaos -> float
(** Time at which the window heals itself. *)

val gen : t Gen.t

val shrink : t Shrink.t
(** Order of attack: drop ops, drop faults, then pull the shard count
    toward 1 (a violation that survives on the single-content system
    implicates the protocol, not the deployment layer), the topology,
    content size and double-check probability toward minimal.  Timing
    parameters ([max_latency], [keepalive_period], op times) are left
    alone: changing them reshapes the whole schedule and mostly makes
    failures vanish for the wrong reason. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
