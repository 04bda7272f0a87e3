(** Bounded in-memory event trace.

    Protocol components append {!Event.t} records; tests assert on
    them and exporters ({!Export}) turn them into JSONL / Chrome
    traces.  The buffer is a ring so long simulations cannot exhaust
    memory.

    [log] is the compatibility shim for the old string API: it wraps
    the message in {!Event.Log}. *)

type t

type record = { time : float; source : string; event : Event.t }

val create : ?capacity:int -> unit -> t
(** Capacity defaults to 4096 records, the size every run uses; the
    tests pass a small one to exercise wrap-around. *)

val emit : t -> time:float -> source:string -> Event.t -> unit

val on_emit : t -> (record -> unit) -> unit
(** Subscribe to the live event stream: [f] runs synchronously on
    every subsequent {!emit}, before the record can be overwritten by
    the ring.  This is how the fuzz harness captures complete event
    streams regardless of the ring capacity, and how the SLO monitor
    evaluates rules online.  Subscribers fire in registration order.
    A subscriber may itself emit into the same trace (the SLO engine
    emits [Alert_raised] this way) — the nested record is delivered to
    every subscriber too, so a subscriber must not emit in response to
    its own emissions or delivery will never terminate. *)

val log : t -> time:float -> source:string -> string -> unit
(** [log t ~time ~source msg] = [emit t ~time ~source (Event.Log msg)]. *)

val size : t -> int
(** Records still retained (at most the capacity). *)

val total_logged : t -> int
(** Records ever emitted, including those the ring has overwritten. *)

val to_list : t -> record list
(** Oldest first (of what is still retained). *)

val message : record -> string
(** Rendered event text (compat helper for string assertions). *)

val find : t -> f:(record -> bool) -> record option
val count_matching : t -> f:(record -> bool) -> int

val count_kind : t -> kind:string -> int
(** Retained records whose {!Event.kind} equals [kind]. *)

val kinds : t -> string list
(** Distinct event kinds retained, sorted. *)
