(** The auditor's re-execution memo.

    Keyed by (content version, {!Codec} query encoding).  The auditor
    re-executes a read on a miss and records its digest ([store]);
    every later pledge for the same (version, query) settles against
    the memoized digest ([find], counted as a hit).  The memo holds the
    version under audit only: the auditor empties it when its cursor
    advances ([clear]), and [store] empties it first when it already
    holds [capacity] entries.  Emptying takes constant time. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 entries.  Raises [Invalid_argument] below 1. *)

val find : t -> version:int -> Query.t -> string option
(** Memoized result digest; counts a hit or a miss. *)

val store : t -> version:int -> Query.t -> digest:string -> unit
(** Record the digest of a fresh re-execution, emptying the memo first
    if it is full. *)

val clear : t -> unit
(** Forget every entry; the hit and miss counts are kept. *)

val hits : t -> int
val misses : t -> int

val hit_rate : t -> float
(** hits / (hits + misses); 0 when never queried. *)

val size : t -> int
