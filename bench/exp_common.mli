(** Shared plumbing for the experiment harness: table rendering,
    wall-clock lines, gates, standard system builders and workload
    helpers. *)

val table :
  Format.formatter ->
  title:string ->
  header:string list ->
  ?wall_clock:string list list ->
  string list list ->
  unit
(** Render an aligned ASCII table with a title line; [wall_clock] rows
    come last and print through {!wall_clock_line}. *)

val wall_clock_mark : string

val wall_clock_line : Format.formatter -> string -> unit
(** Print a line that carries a wall-clock measurement, ending it with
    {!wall_clock_mark}.  Everything else quick E1–E13 print depends
    only on their seeds; the golden corpus (test/golden.ml) masks
    exactly the marked lines. *)

type gate = {
  name : string;
  value : string;  (** measured, rendered *)
  threshold : string;  (** what the value must satisfy, rendered *)
  ok : bool;
  applies : bool;  (** false: this machine cannot measure it; prints SKIP, never fails *)
}
(** One claim an experiment checks.  [bench/main.exe] prints one line
    per gate and exits with {!exit_code} of them all. *)

val gate : ?applies:bool -> string -> value:string -> threshold:string -> bool -> gate
val pp_gate : Format.formatter -> experiment:string -> gate -> unit

val exit_code : gate list -> int
(** 1 if any applicable gate failed, else 0. *)

val f2 : float -> string
(** Two-decimal rendering. *)

val f3 : float -> string
val pct : float -> string
(** "12.3%". *)

val base_config : Secrep_core.Config.t
(** The configuration experiments start from: max_latency 5s,
    keep-alive 1s, p = 0.05, audit on. *)

val build_system :
  ?config:Secrep_core.Config.t ->
  ?n_masters:int ->
  ?slaves_per_master:int ->
  ?n_clients:int ->
  ?seed:int64 ->
  ?n_items:int ->
  ?client_max_latency:(int -> float option) ->
  unit ->
  Secrep_core.System.t * string array
(** A system pre-loaded with a product catalogue; returns the loaded
    keys for workload generation. *)

val drain : Secrep_core.System.t -> extra:float -> unit
(** Run the simulation for [extra] more virtual seconds. *)

val mean : float list -> float
val quick_factor : bool -> float
(** Scale factor for run lengths: 1.0 normally, smaller when --quick. *)
