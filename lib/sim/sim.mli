(** The discrete-event simulation engine.

    A simulation owns a virtual clock and an event queue of thunks.
    Everything in the system — network delivery, protocol timers,
    client think time — is a scheduled thunk; running the simulation
    pops thunks in time order and executes them, which may schedule
    more.  Time only advances between events, so a run is fully
    deterministic given the PRNG seeds. *)

type t

type handle = Event_queue.handle
(** Cancellation handle for a scheduled event. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule sim ~delay f] runs [f] at [now + delay].  A negative
    delay raises [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; [time] must not precede [now]. *)

val cancel : t -> handle -> unit

val pending : t -> int
(** Number of live events still queued. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue.  With [until], stops once the next event would
    fire after [until] and advances the clock exactly to [until]; with
    [max_events], stops after that many events (guard against
    run-away protocols). *)

val executed_events : t -> int
(** Total events executed so far; cheap progress metric. *)
