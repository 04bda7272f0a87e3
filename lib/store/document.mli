(** A document: an immutable map from field names to values.  The unit
    of storage under each key of the content store. *)

type t

val empty : t
val of_fields : (string * Value.t) list -> t
(** Later bindings for the same field win. *)

val fields : t -> (string * Value.t) list
(** Sorted by field name. *)

val fold : t -> init:'a -> f:('a -> string -> Value.t -> 'a) -> 'a
(** Folds the fields in {!fields} order without building the list. *)

val get : t -> string -> Value.t option
val set : t -> string -> Value.t -> t
val remove : t -> string -> t
val mem : t -> string -> bool
val field_count : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
