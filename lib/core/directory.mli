(** The public directory (§2): maps a content id to the certificates of
    the masters replicating that content.  The directory itself is
    untrusted — clients verify every certificate against the
    self-certifying content id — so a plain lookup service suffices. *)

type t

val create : unit -> t

val publish : t -> Certificate.t -> unit
(** Re-publishing a (content, master) pair replaces the old entry. *)

val lookup : t -> content_id:string -> Certificate.t list
(** Sorted by master id; empty when unknown. *)
