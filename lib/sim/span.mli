(** Virtual-clock spans: per-phase duration probes.

    A span measures how long a request phase (sign, verify,
    query-eval, network hop, audit re-execution) took in simulated
    time.  Every producer knows the duration when it records the span
    (from the cost model, or at message delivery), so a span is one
    {!record} call: it appends a bounded-ring record for the
    Chrome-trace exporter and feeds the ["span.<name>"] histogram of
    the attached {!Stats.t}, so p50/p95/p99 per phase come for free. *)

type t

type record = { name : string; source : string; start : float; duration : float }

val create : ?capacity:int -> ?stats:Stats.t -> unit -> t
(** Ring capacity defaults to 4096 spans, the size every run uses; the
    tests pass a small one to exercise wrap-around. *)

val record : t -> source:string -> start:float -> duration:float -> string -> unit
(** Raises [Invalid_argument] on a negative or NaN duration. *)

val size : t -> int
(** Spans still retained. *)

val total_finished : t -> int
(** Spans recorded since creation, including those the ring dropped. *)

val finished : t -> record list
(** Oldest first (of what is still retained). *)

val histogram_name : string -> string
(** ["span." ^ name]: the {!Stats} histogram a span feeds. *)
