(** Append-only (time, value) series for experiment plots such as the
    auditor-backlog-over-a-day curve. *)

type t

val create : ?name:string -> unit -> t

val record : t -> time:float -> float -> unit
(** Times must be non-decreasing; raises [Invalid_argument] otherwise. *)

val length : t -> int
val name : t -> string
val points : t -> (float * float) array

val max_value : t -> float option

val downsample : t -> buckets:int -> (float * float) array
(** Mean value per equal-width time bucket over the recorded span;
    empty buckets are skipped.  Used to print compact series. *)

val pp_ascii : ?width:int -> ?height:int -> Format.formatter -> t -> unit
(** Rough ASCII plot, for the experiment harness output. *)
