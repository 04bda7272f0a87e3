(** Named counters and gauges shared by the experiment harness. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** Unknown counters read as 0. *)

val set_gauge : t -> string -> float -> unit
val gauge : t -> string -> float option

val histogram : t -> string -> Histogram.t
(** Lazily-created named histogram, shared across calls. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list
(** Sorted by name. *)

val histograms : t -> Histogram.t list
(** Sorted by name. *)
