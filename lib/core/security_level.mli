(** Per-read security levels (§4, first variant).

    Clients may mark reads "security sensitive" — executed only on
    trusted masters, 100% correct — or assign graded levels that scale
    the double-check probability, up to 1.0 which again means
    "execute only on trusted hosts". *)

type t =
  | Normal  (** the base protocol: configured double-check probability *)
  | Leveled of int  (** 0 = lowest sensitivity .. [levels - 1] = highest *)
  | Sensitive  (** execute on the master, never on a slave *)

val levels : int
(** Number of graded levels (4). *)

val double_check_probability : base:float -> t -> float
(** Geometric interpolation from [base] (level 0) to 1.0 (top level);
    [Sensitive] maps to 1.0.  Raises [Invalid_argument] on an
    out-of-range level. *)

val executes_on_master : base:float -> t -> bool
(** True when the effective probability is 1.0 — the refinement of §4
    collapses "always double-check" into "just run it on the master". *)
