(** Reliable, totally-ordered broadcast over a full mesh of simulated
    links — the substrate the paper assumes among master servers
    ("implement a reliable, total-ordering broadcast protocol that can
    tolerate benign server failures", §3, citing Kaashoek et al.).

    Design: a sequencer member assigns consecutive slot numbers to
    requests and rebroadcasts them; members deliver strictly in slot
    order, nack holes, and retry unacknowledged requests.  When the
    sequencer is suspected dead (missed heartbeats), the lowest
    remaining id runs a state-sync round and installs a new view.
    Failures are benign (crash-stop): members never lie, matching the
    paper's trusted-master assumption. *)

type 'a t

val create :
  Secrep_sim.Sim.t ->
  rng:Secrep_crypto.Prng.t ->
  members:int list ->
  latency:Secrep_sim.Latency.t ->
  ?loss:float ->
  ?trace:Secrep_sim.Trace.t ->
  deliver:(member:int -> seq:int -> 'a -> unit) ->
  unit ->
  'a t
(** Member ids must be distinct and non-negative.  [deliver] is called
    once per (member, slot) in slot order on every live member. *)

val broadcast : 'a t -> from:int -> 'a -> unit
(** Reliable: retried across sequencer crashes until ordered.  Raises
    [Invalid_argument] if [from] is crashed or unknown. *)

val crash : 'a t -> int -> unit
(** Crash-stop: the member ceases all activity and its links go down.
    Idempotent. *)

val alive : 'a t -> int list
val is_alive : 'a t -> int -> bool

val view_of : 'a t -> int -> int
val sequencer_of : 'a t -> int -> int
(** Current view / believed sequencer at one member. *)

val delivered_count : 'a t -> int -> int
val link_between : 'a t -> int -> int -> Secrep_sim.Link.t
(** For partition experiments.  Raises [Not_found] for self-pairs. *)
