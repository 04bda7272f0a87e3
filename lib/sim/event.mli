(** Typed trace events: the protocol's load-bearing moments.

    Components used to log pre-rendered strings; these variants carry
    the structured fields instead so exporters ({!Export}) can emit
    machine-readable JSONL / Chrome traces and tests can assert on the
    event taxonomy rather than on string formatting.  [Log] is the
    compatibility constructor for free-form messages. *)

type dc_outcome =
  | Passed  (** master's digest matched the slave's pledge *)
  | Mismatch  (** immediate discovery (§3.5) *)
  | Throttled  (** greedy-client quota (§3.3) *)

type t =
  | Log of string  (** free-form message (compat shim for string logs) *)
  | Read_issued of { client : int; request : int; mode : string }
      (** [request] is the causal lineage id carried through every event
          this read generates ([-1] on traces predating lineage). *)
  | Read_answered of {
      client : int;
      request : int;
      slave : int;  (** -1 when no slave served it (gave up / by-master) *)
      outcome : string;  (** "accepted" | "by-master" | "gave-up" *)
      version : int;
      latency : float;
    }
  | Pledge_signed of { slave : int; request : int; version : int; lied : bool }
  | Pledge_batch_signed of { slave : int; version : int; batch : int }
      (** Slave flushed a Merkle batch of [batch] pledges under one
          signature; [version] is the keep-alive version at flush. *)
  | Pledge_verified of {
      client : int;
      request : int;
      slave : int;
      version : int;  (** content version the pledge claims (-1 if unparsable) *)
      ok : bool;
      reason : string;
    }
  | Double_check of { client : int; request : int; slave : int; outcome : dc_outcome }
  | Write_committed of { master : int; version : int }
  | Keepalive_sent of { master : int; version : int }
  | State_update_applied of { slave : int; from_version : int; to_version : int }
  | Audit_advance of { version : int }
  | Audit_conviction of { slave : int; version : int }
  | Slave_excluded of { slave : int; immediate : bool }
  | Order_delivered of { member : int; seq : int }
  | View_installed of { member : int; view : int; sequencer : int }
  | Partition of { target : string; up : bool }
      (** Chaos connectivity change for a node, e.g. ["slave-2"]. *)
  | Node_crashed of { node : string }
      (** Benign crash (fail-stop, state wiped) injected by chaos. *)
  | Node_recovered of { node : string; version : int }
      (** Node rejoined; [version] is its store version at rejoin. *)
  | Net_degraded of { loss : float; latency_factor : float }
      (** Chaos loss/latency override changed; [loss = 0.0] and
          [latency_factor = 1.0] mean the network is back to normal. *)
  | Breaker_opened of { client : int; slave : int }
      (** Client circuit breaker tripped after consecutive timeouts. *)
  | Breaker_closed of { client : int; slave : int }
      (** Breaker reset by a successful read after cooldown. *)
  | Audit_overload of { backlog : int }
      (** Auditor dropped a pledge: queue at capacity [backlog]. *)
  | Alert_raised of { rule : string; value : float; threshold : float }
      (** Online SLO rule [rule] breached: observed [value] crossed
          [threshold] (emitted by {e Slo}, source ["slo"]). *)
  | Alert_cleared of { rule : string; duration : float }
      (** The alert for [rule] recovered after [duration] seconds. *)
  | Shard_assigned of { shard : int; host : int; slot : int }
      (** Deployment placement: content [shard]'s replica [slot] was
          placed on pool host [host] (rendezvous hashing). *)
  | Shard_rebalanced of {
      shard : int;
      slot : int;
      from_host : int;
      to_host : int;
      reason : string;  (** "crash" | "exclusion" *)
    }
      (** Re-homing (§3.5): the replica moved to a fresh host after its
          old host died or the slave process was excluded. *)
  | Attack_launched of { slave : int; mode : string; client : int; request : int }
      (** A strategic attacker ({e Fault} modes) acted on this read:
          [mode] is {e Fault.mode_name}, [request] the victim read's
          lineage id (-1 when the attack is not tied to one read). *)
  | Attack_suppressed of { slave : int; mode : string; reason : string }
      (** A strategic attacker chose {e not} to act — e.g. an
          [Adaptive] liar under audit pressure or an [Equivocate]
          attacker serving its clique honestly. *)
  | Slave_quarantined of { slave : int; score : float; until : float }
      (** The adaptive auditor put [slave] on probation (100% audit)
          until simulated time [until]; [score] is the suspicion EWMA
          that crossed the threshold. *)
  | Domain_started of { domain : int; shards : int }
      (** A sharded deployment's parallel scheduler started worker
          domain [domain] carrying [shards] shard(s) (source
          ["deployment"], emitted at the simulated time the parallel
          window opens).  Only parallel runs emit it, so the
          determinism digest over shard streams never sees one. *)
  | Shard_merged of { shard : int; events : int }
      (** The coordinator merged [events] buffered records of [shard]
          back into the deployment stream, in [(time, shard, seq)]
          order, over the parallel window that just closed. *)

type field = I of int | F of float | S of string | B of bool

val kind : t -> string
(** Stable snake_case tag, e.g. ["read_issued"]. *)

val all_kinds : string list

val fields : t -> (string * field) list
(** Structured payload, in declaration order. *)

val of_fields : kind:string -> (string * field) list -> (t, string) result
(** Inverse of {!kind} + {!fields}; used by the JSONL importer. *)

val dc_outcome_to_string : dc_outcome -> string

val pp : Format.formatter -> t -> unit
(** ["kind k=v k=v …"]; [Log] renders as its bare message. *)

val to_string : t -> string
