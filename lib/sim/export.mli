(** Machine-readable exports: JSONL event logs, Chrome
    [trace_event]-format JSON (loadable in Perfetto / chrome://tracing)
    and Prometheus text exposition of {!Stats}.

    Everything is dependency-free: a built-in minimal JSON emitter and
    parser cover the subset these formats need. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val parse : string -> (t, string) result
  val member : string -> t -> t option
end

val event_line :
  ?extra:(string * Json.t) list -> time:float -> source:string -> Event.t -> string
(** One JSONL line (no trailing newline):
    [{"ts":…,"source":…,"kind":…,<fields>}].  [extra] pairs are
    appended after the event fields (stream metadata such as a
    ["shard"] tag); {!record_of_line} ignores keys no event declares,
    so tagged lines round-trip to the same record. *)

val jsonl_of_trace : Trace.t -> string
(** Every retained record, oldest first, one line each. *)

val record_of_line : string -> (Trace.record, string) result
(** Inverse of {!event_line}; used by the [trace] replay subcommand
    and the round-trip tests. *)

val chrome_of : ?spans:Span.t -> trace:Trace.t -> unit -> string
(** Chrome [trace_event] JSON: spans become complete ("X") events,
    trace records become instants ("i"), and each source gets a named
    thread via metadata events. *)

val prometheus_of_stats : Stats.t -> string
(** Counters, gauges, and histogram summaries (p50/p95/p99 quantiles,
    sum, count) in Prometheus text format; names are prefixed with
    [secrep_] and sanitized. *)
