(** Corrective-action bookkeeping (§3.5): which slaves were excluded,
    when, how they were caught, and how many clients had to be
    re-homed.  Experiments read detection delays from here. *)

type discovery =
  | Immediate  (** caught by a client double-check *)
  | Delayed  (** caught by the background audit *)

type event = {
  time : float;
  slave_id : int;
  discovery : discovery;
  clients_reassigned : int;
}

type t

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list
(** Chronological. *)

val excluded : t -> int list
(** Every slave ever excluded (history). *)

val is_excluded : t -> slave_id:int -> bool

val readmit : t -> slave_id:int -> time:float -> unit
(** §3.5: a slave that was "the victim of an attack" may, "after
    recovering it to a safe state", be brought back to use.  The
    exclusion stays in the history. *)

val currently_excluded : t -> int list
(** Excluded and not subsequently readmitted. *)

val is_currently_excluded : t -> slave_id:int -> bool
val first_detection : t -> slave_id:int -> event option
val count : t -> discovery:discovery -> int
