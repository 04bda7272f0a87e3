(** End-of-run health report: alerts + lineage summary + per-node
    rows, renderable as text ({!pp}) or as the machine-readable JSON
    the CI smoke job uploads ({!to_json}). *)

type t = {
  alerts : Slo.alert list;
  active_rules : string list;  (** rules still firing at end of run *)
  summary : Lineage.summary;
  clients : Lineage.client_row list;
  slaves : Lineage.slave_row list;
  quarantines : Lineage.quarantine list;
      (** adaptive-audit probation events (not accusations) *)
}

val build : slo:Slo.t -> lineage:Lineage.t -> unit -> t
(** Call after [Slo.finalize]; finalizes [lineage] itself. *)

val healthy : t -> bool
(** No alerts were ever raised. *)

val to_json : t -> Secrep_sim.Export.Json.t
val pp : Format.formatter -> t -> unit
